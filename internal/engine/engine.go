// Package engine holds the one value that says how simulations execute. The
// caller owns it and passes it down, so engines with different settings can
// share a process; outputs are byte-identical at any Jobs.
package engine

import (
	"fmt"

	"repro/internal/machine"
)

// Config selects the thermal integrator and the trial parallelism. The zero
// value is the default engine: Integrator "" is the caller's default (exact
// for the experiment harnesses, leap for scenario and sched runs), and Jobs
// 0 or less means GOMAXPROCS workers.
type Config struct {
	Integrator string
	Jobs       int
}

// Validate reports an unknown integrator.
func (c Config) Validate() error {
	if !machine.ValidIntegrator(c.Integrator) {
		return fmt.Errorf("unknown integrator %q (want %q or %q)", c.Integrator, machine.IntegratorExact, machine.IntegratorLeap)
	}
	return nil
}
