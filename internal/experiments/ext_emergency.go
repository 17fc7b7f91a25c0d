package experiments

import (
	"fmt"
	"strings"

	"repro/internal/adaptive"
	"repro/internal/dtm"
	"repro/internal/engine"
	"repro/internal/export"
	"repro/internal/machine"
	"repro/internal/runner"
	"repro/internal/units"
)

// EmergencyArm is one management strategy's outcome in the cooling-failure
// scenario.
type EmergencyArm struct {
	Name         string
	PeakJunction units.Celsius
	MeanJunction units.Celsius
	WorkRate     float64
	Trips        int        // TM1 engagements
	Throttled    units.Time // time spent in emergency throttling
}

// EmergencyResult is the §1-motivation study: a cooling failure under full
// load, handled by (a) the reactive TM1 backstop alone, and (b) preventive
// Dimetrodon (the adaptive setpoint controller) with TM1 still armed.
// Preventive management keeps the junction below the trip point so the
// emergency mechanism never fires, at comparable or better throughput than
// the coarse duty-cycle oscillation TM1 produces on its own.
type EmergencyResult struct {
	FanFactor float64
	Trip      units.Celsius
	Arms      []EmergencyArm
}

// RunEmergencyScenario degrades the cooling path (fan failure: 2.4× the
// sink-to-ambient resistance) under 4× cpuburn and compares the arms.
func RunEmergencyScenario(scale Scale, ec engine.Config) EmergencyResult {
	duration := scale.seconds(300)
	tm1Cfg := dtm.DefaultTM1Config()

	run := func(preventive bool, seed uint64) EmergencyArm {
		cfg := machineConfig(ec)
		cfg.Meter.Disabled = true
		cfg.Seed = seed
		cfg.FanFactor = 2.4
		m := machine.New(cfg)
		tm1, err := dtm.AttachTM1(m, tm1Cfg)
		if err != nil {
			panic(err)
		}
		if preventive {
			// Hold 5 °C of headroom below the trip point.
			acfg := adaptive.DefaultConfig(tm1Cfg.Trip - 5)
			if _, err := adaptive.Attach(m, acfg); err != nil {
				panic(err)
			}
		}
		SpawnBurnPerCore(1.0)(m)
		peak := units.Celsius(0)
		var tick units.Time = 100 * units.Millisecond
		i0 := m.MeanJunctionIntegral()
		w0 := m.TotalWorkDone()
		t0 := m.Now()
		for m.Now() < duration {
			m.RunFor(tick)
			for _, tj := range m.JunctionTemps() {
				if tj > peak {
					peak = tj
				}
			}
		}
		i1 := m.MeanJunctionIntegral()
		w1 := m.TotalWorkDone()
		secs := (m.Now() - t0).Seconds()
		name := "reactive TM1 only"
		if preventive {
			name = "preventive (adaptive) + TM1 armed"
		}
		return EmergencyArm{
			Name:         name,
			PeakJunction: peak,
			MeanJunction: units.Celsius((i1 - i0) / secs),
			WorkRate:     (w1 - w0) / secs,
			Trips:        tm1.Engagements,
			Throttled:    tm1.Throttled(m.Now()),
		}
	}

	res := EmergencyResult{FanFactor: 2.4, Trip: tm1Cfg.Trip}
	res.Arms = runner.Collect(ec.Jobs,
		func() EmergencyArm { return run(false, 900) },
		func() EmergencyArm { return run(true, 901) },
	)
	return res
}

// String renders the comparison.
func (r EmergencyResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension: cooling failure under load (fan at 1/%.1f airflow, PROCHOT trip %.0fC)\n",
		r.FanFactor, float64(r.Trip))
	b.WriteString(" strategy                            peak      mean     work/s   trips  throttled\n")
	for _, a := range r.Arms {
		fmt.Fprintf(&b, " %-34s  %6.1fC  %6.1fC   %5.2f    %4d   %v\n",
			a.Name, float64(a.PeakJunction), float64(a.MeanJunction),
			a.WorkRate, a.Trips, a.Throttled)
	}
	b.WriteString("(§1: reactive DTM exists for catastrophic conditions; preventive\n")
	b.WriteString(" management keeps it dormant while delivering steadier throughput)\n")
	return b.String()
}

// Files renders one row per strategy.
func (r EmergencyResult) Files() []export.File {
	var b strings.Builder
	b.WriteString("strategy,peak_c,mean_c,work_rate,trips,throttled_s\n")
	for _, a := range r.Arms {
		fmt.Fprintf(&b, "%q,%.3f,%.3f,%.4f,%d,%.3f\n", a.Name,
			float64(a.PeakJunction), float64(a.MeanJunction),
			a.WorkRate, a.Trips, a.Throttled.Seconds())
	}
	return []export.File{{Name: "ext_emergency.csv", Content: b.String()}}
}
