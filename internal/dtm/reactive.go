package dtm

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/sensor"
	"repro/internal/simclock"
	"repro/internal/units"
)

// TM1Config parameterises the reactive thermal monitor: the worst-case DTM
// mechanism the paper contrasts Dimetrodon against (§1: traditional DTM "is
// not activated except under extreme thermal conditions that are likely
// caused by some other catastrophic failure (e.g., cooling system
// problems)").
type TM1Config struct {
	// Trip engages throttling when any DTS reading reaches it.
	Trip units.Celsius
	// Relief disengages once the hottest reading falls below it
	// (hysteresis; must be below Trip).
	Relief units.Celsius
	// Duty is the TCC duty cycle applied while engaged (TM1 on real
	// hardware modulates at 37.5–50 %).
	Duty float64
	// PollEvery is the monitor's sampling period.
	PollEvery units.Time
}

// DefaultTM1Config mirrors the hardware's thermal monitor: trip just below
// TjMax, 5 °C hysteresis, 37.5 % duty.
func DefaultTM1Config() TM1Config {
	return TM1Config{
		Trip:      85,
		Relief:    80,
		Duty:      0.375,
		PollEvery: units.Millisecond,
	}
}

// Validate reports configuration errors.
func (c TM1Config) Validate() error {
	if c.Relief >= c.Trip {
		return fmt.Errorf("dtm: TM1 relief %v must be below trip %v", c.Relief, c.Trip)
	}
	if c.Duty <= 0 || c.Duty > 1 {
		return fmt.Errorf("dtm: TM1 duty %v outside (0,1]", c.Duty)
	}
	if c.PollEvery <= 0 {
		return fmt.Errorf("dtm: TM1 poll period must be positive")
	}
	return nil
}

// TM1 is a running reactive thermal monitor bound to a machine: it polls the
// DTS sensors and engages TCC duty-cycle throttling above the trip point,
// releasing with hysteresis. It is the emergency backstop preventive
// management aims to keep dormant.
type TM1 struct {
	cfg     TM1Config
	m       *machine.Machine
	sensors []*sensor.DTS
	engaged bool
	pollEv  simclock.Event // the one pending poll, re-armed each period

	// Engagements counts trip events; ThrottledTime accumulates time
	// spent throttled.
	Engagements   int
	ThrottledTime units.Time
	engagedAt     units.Time
}

// AttachTM1 starts a reactive monitor on m.
func AttachTM1(m *machine.Machine, cfg TM1Config) (*TM1, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	t := &TM1{cfg: cfg, m: m}
	for i := 0; i < m.Chip.NumCores(); i++ {
		t.sensors = append(t.sensors, sensor.NewCoretemp())
	}
	t.pollEv = simclock.Event{Fire: t.poll, Label: "tm1-poll"}
	m.Clock.Reschedule(&t.pollEv, m.Now()+cfg.PollEvery)
	return t, nil
}

// Engaged reports whether throttling is currently active.
func (t *TM1) Engaged() bool { return t.engaged }

func (t *TM1) poll(now units.Time) {
	temps := t.m.JunctionTemps()
	hottest := units.Celsius(-1000)
	for i, s := range t.sensors {
		if v := s.Read(now, temps[i]); v > hottest {
			hottest = v
		}
	}
	switch {
	case !t.engaged && hottest >= t.cfg.Trip:
		t.engaged = true
		t.engagedAt = now
		t.Engagements++
		t.m.Chip.SetDuty(t.cfg.Duty)
	case t.engaged && hottest < t.cfg.Relief:
		t.engaged = false
		t.ThrottledTime += now - t.engagedAt
		t.m.Chip.SetDuty(1)
	}
	t.m.Clock.Reschedule(&t.pollEv, now+t.cfg.PollEvery)
}

// Throttled returns the total time spent engaged, including an in-progress
// engagement up to now.
func (t *TM1) Throttled(now units.Time) units.Time {
	d := t.ThrottledTime
	if t.engaged {
		d += now - t.engagedAt
	}
	return d
}
