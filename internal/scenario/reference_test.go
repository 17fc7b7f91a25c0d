package scenario

import (
	"testing"

	"repro/internal/runner"
)

// runMachine is the reference fleet member: build the trial's machine and
// measure it, with no shared ladders and no replication.
// The engine must reproduce its bytes exactly.
func runMachine(t MachineTrial, opts RunOptions) (MachineResult, error) {
	m, tm1, srv, err := t.Build()
	if err != nil {
		return MachineResult{}, err
	}
	return measure(m, tm1, srv, t, opts)
}

// runReference is the reference fleet run the equivalence suite pins the
// engine against: every compiled trial built and measured independently
// across the runner pool, then aggregated exactly like Run.
func runReference(tb testing.TB, spec *Spec, scale float64) *Result {
	tb.Helper()
	if err := spec.Validate(); err != nil {
		tb.Fatal(err)
	}
	trials := spec.Compile(scale)
	machines, err := runner.MapErrCtx(nil, 0, trials, func(_ int, t MachineTrial) (MachineResult, error) {
		return runMachine(t, RunOptions{})
	})
	if err != nil {
		tb.Fatal(err)
	}
	return &Result{
		Spec:     spec,
		Scale:    scale,
		Duration: trials[0].Duration,
		Warmup:   trials[0].Warmup,
		Machines: machines,
		Fleet:    aggregate(spec, machines),
	}
}
