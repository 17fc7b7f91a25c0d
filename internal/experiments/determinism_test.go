package experiments

import (
	"testing"

	"repro/internal/engine"
)

// TestFigure3DeterministicAcrossJobs pins the runner's central contract: the
// rendered output of a sweep is byte-identical at any parallelism level,
// because every trial derives its stochastic state from its own spec rather
// than from a shared stream. A regression here means some component snuck a
// shared RNG (or other cross-trial state) into the trial path.
func TestFigure3DeterministicAcrossJobs(t *testing.T) {
	serial := RunFigure3(Quick, engine.Config{Jobs: 1}).String()
	parallel := RunFigure3(Quick, engine.Config{Jobs: 8}).String()

	if serial != parallel {
		t.Fatalf("Figure 3 output differs between -jobs 1 and -jobs 8:\n--- jobs=1 ---\n%s\n--- jobs=8 ---\n%s", serial, parallel)
	}
}

// TestValidationEnergyDeterministicAcrossJobs covers the one harness whose
// trials are internally sequential pairs (the race-to-idle arm reuses its
// partner's window) and which keeps the noisy instrument chain enabled — the
// most RNG-sensitive sweep in the suite.
func TestValidationEnergyDeterministicAcrossJobs(t *testing.T) {
	serial := RunValidationEnergy(Quick, engine.Config{Jobs: 1}).String()
	parallel := RunValidationEnergy(Quick, engine.Config{Jobs: 6}).String()

	if serial != parallel {
		t.Fatalf("energy validation output differs between -jobs 1 and -jobs 6:\n--- jobs=1 ---\n%s\n--- jobs=6 ---\n%s", serial, parallel)
	}
}
