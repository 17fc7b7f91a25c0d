// Package adaptive implements closed-loop Dimetrodon policy control — the
// online adjustment the paper describes but leaves unevaluated (§2.1: idle
// cycle injection "can be adjusted online according to the thermal profile
// and performance constraints of the application").
//
// The SetpointController holds the hottest junction at a target temperature
// by steering the global injection probability with a PI law: when the chip
// runs hot the controller injects more aggressively; when the workload
// lightens it backs off to zero, spending performance only when heat demands
// it. It reads the same quantised DTS observable an operating system would,
// not the simulator's ground truth.
package adaptive

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/sensor"
	"repro/internal/simclock"
	"repro/internal/trace"
	"repro/internal/units"
)

// Config parameterises the controller.
type Config struct {
	// Target is the junction temperature setpoint (absolute, °C).
	Target units.Celsius
	// L is the idle quantum length used for injection; the probability is
	// the actuated variable. Short quanta are the efficient regime
	// (Figure 3), so the default is 10 ms.
	L units.Time
	// Interval is the control period. Thermal time constants at the
	// package level are seconds, so 500 ms default.
	Interval units.Time
	// Kp and Ki are the proportional and integral gains in probability
	// per °C (and per °C·s).
	Kp, Ki float64
	// PMax caps the actuated probability below 1 (the model diverges at
	// p = 1).
	PMax float64
	// SmoothingAlpha is the exponential-moving-average coefficient
	// applied to the DTS observation before the PI law (1 = no
	// smoothing). The hottest-junction reading dithers by a degree or
	// more under short-quantum injection plus 1 °C quantisation;
	// smoothing keeps the controller from chattering against its
	// saturation limits.
	SmoothingAlpha float64
}

// DefaultConfig returns gains tuned for the calibrated testbed: convergence
// in a few package time constants without oscillation.
func DefaultConfig(target units.Celsius) Config {
	return Config{
		Target:         target,
		L:              10 * units.Millisecond,
		Interval:       500 * units.Millisecond,
		Kp:             0.10,
		Ki:             0.02,
		PMax:           0.95,
		SmoothingAlpha: 0.25,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.L <= 0 {
		return fmt.Errorf("adaptive: non-positive quantum %v", c.L)
	}
	if c.Interval <= 0 {
		return fmt.Errorf("adaptive: non-positive interval %v", c.Interval)
	}
	if c.PMax <= 0 || c.PMax >= 1 {
		return fmt.Errorf("adaptive: PMax %v outside (0,1)", c.PMax)
	}
	if c.Kp < 0 || c.Ki < 0 {
		return fmt.Errorf("adaptive: negative gains")
	}
	if c.SmoothingAlpha < 0 || c.SmoothingAlpha > 1 {
		return fmt.Errorf("adaptive: smoothing alpha %v outside [0,1]", c.SmoothingAlpha)
	}
	return nil
}

// Controller is a running setpoint controller bound to a machine.
type Controller struct {
	cfg     Config
	m       *machine.Machine
	policy  *core.Controller
	sensors []*sensor.DTS
	integ   float64
	p       float64
	ema     float64
	emaInit bool

	// PTrace and TempTrace record the actuation and the observed hottest
	// junction for analysis.
	PTrace    *trace.Series
	TempTrace *trace.Series
	stopped   bool
	tickEv    simclock.Event // the one pending tick, re-armed each period
}

// Attach installs a fresh Dimetrodon policy engine on m and starts the
// control loop on its virtual clock. The controller owns the global policy;
// per-process policies can still be layered on the returned engine.
func Attach(m *machine.Machine, cfg Config) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Controller{
		cfg:       cfg,
		m:         m,
		policy:    core.NewController(m.RNG.Split()),
		PTrace:    trace.NewSeries("injection-p", "prob"),
		TempTrace: trace.NewSeries("hottest-dts", "C"),
	}
	for i := 0; i < m.Chip.NumCores(); i++ {
		c.sensors = append(c.sensors, sensor.NewCoretemp())
	}
	m.Sched.SetInjector(c.policy)
	c.tickEv = simclock.Event{Fire: c.tick, Label: "adaptive-tick"}
	m.Clock.Reschedule(&c.tickEv, m.Now()+cfg.Interval)
	return c, nil
}

// Policy exposes the underlying policy engine (e.g. to exempt a process).
func (c *Controller) Policy() *core.Controller { return c.policy }

// P returns the currently actuated injection probability.
func (c *Controller) P() float64 { return c.p }

// Stop halts the control loop; the last actuated policy remains in force.
func (c *Controller) Stop() { c.stopped = true }

// tick is one control period: read the hottest DTS, update the PI state, and
// actuate the global policy.
func (c *Controller) tick(now units.Time) {
	if c.stopped {
		return
	}
	hottest := c.readHottest(now)
	alpha := c.cfg.SmoothingAlpha
	if alpha <= 0 {
		alpha = 1
	}
	if !c.emaInit {
		c.ema = float64(hottest)
		c.emaInit = true
	} else {
		c.ema += alpha * (float64(hottest) - c.ema)
	}
	err := c.ema - float64(c.cfg.Target)
	dt := c.cfg.Interval.Seconds()

	// PI with conditional integration (anti-windup): the integrator only
	// accumulates while the actuator is unsaturated or the error drives
	// it back in range.
	next := c.cfg.Kp*err + c.cfg.Ki*(c.integ+err*dt)
	saturatedHigh := next >= c.cfg.PMax && err > 0
	saturatedLow := next <= 0 && err < 0
	if !saturatedHigh && !saturatedLow {
		c.integ += err * dt
	}
	p := c.cfg.Kp*err + c.cfg.Ki*c.integ
	if p < 0 {
		p = 0
	}
	if p > c.cfg.PMax {
		p = c.cfg.PMax
	}
	c.p = p

	if p == 0 {
		c.policy.ClearGlobal()
	} else if err := c.policy.SetGlobal(core.Params{P: p, L: c.cfg.L}); err != nil {
		panic(fmt.Sprintf("adaptive: actuating p=%v: %v", p, err))
	}
	c.PTrace.Append(now, p)
	c.TempTrace.Append(now, c.ema)
	c.m.Clock.Reschedule(&c.tickEv, now+c.cfg.Interval)
}

// readHottest samples every core's DTS and returns the maximum reading — the
// observable a real kernel policy would act on.
func (c *Controller) readHottest(now units.Time) units.Celsius {
	temps := c.m.JunctionTemps()
	hottest := units.Celsius(-1000)
	for i, s := range c.sensors {
		if v := s.Read(now, temps[i]); v > hottest {
			hottest = v
		}
	}
	return hottest
}
