package fleetsched

import (
	"testing"

	"repro/internal/engine"
)

// TestSchedDeterministicAcrossJobs extends the runner's central contract to
// the cross-machine engine: rendered output and comparison CSV are
// byte-identical at any parallelism, because every cross-machine decision
// happens at a single-threaded round barrier and machines advance between
// barriers as deterministic functions of their own state.
func TestSchedDeterministicAcrossJobs(t *testing.T) {
	render := func(jobs int) string {
		res, err := RunByName("sched-shootout", "", 0.02, engine.Config{Jobs: jobs})
		if err != nil {
			t.Fatal(err)
		}
		return res.String()
	}
	serial := render(1)
	parallel := render(8)
	if serial != parallel {
		t.Fatalf("sched output differs between -jobs 1 and -jobs 8:\n--- jobs=1 ---\n%s\n--- jobs=8 ---\n%s", serial, parallel)
	}
}

// TestMigrationDeterministicAcrossJobs covers the most stateful path — the
// evacuation loop killing and respawning threads mid-run — across jobs.
func TestMigrationDeterministicAcrossJobs(t *testing.T) {
	render := func(jobs int) string {
		res, err := RunByName("hotspot-herd", "", 0.02, engine.Config{Jobs: jobs})
		if err != nil {
			t.Fatal(err)
		}
		return res.String()
	}
	serial := render(1)
	parallel := render(6)
	if serial != parallel {
		t.Fatalf("migration output differs between -jobs 1 and -jobs 6:\n--- jobs=1 ---\n%s\n--- jobs=6 ---\n%s", serial, parallel)
	}
}

// TestComparisonDeterministicAcrossJobs pins the full policy sweep plus its
// CSV export.
func TestComparisonDeterministicAcrossJobs(t *testing.T) {
	render := func(jobs int) (string, string) {
		c, err := CompareByName("sched-shootout", 0.02, engine.Config{Jobs: jobs})
		if err != nil {
			t.Fatal(err)
		}
		csv, err := c.CSV()
		if err != nil {
			t.Fatal(err)
		}
		return c.String(), csv
	}
	s1, c1 := render(1)
	s8, c8 := render(8)
	if s1 != s8 {
		t.Fatal("comparison table differs between -jobs 1 and -jobs 8")
	}
	if c1 != c8 {
		t.Fatal("comparison CSV differs between -jobs 1 and -jobs 8")
	}
}
