package experiments

import (
	"fmt"
	"strings"

	"repro/internal/dtm"
	"repro/internal/engine"
	"repro/internal/export"
	"repro/internal/machine"
	"repro/internal/runner"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/workload"
)

// Figure1Result holds the two power traces of Figure 1: race-to-idle versus
// Dimetrodon for a multi-threaded CPU-bound process. Under Dimetrodon the
// trace steps between discrete levels corresponding to how many of the four
// cores are idling at once.
type Figure1Result struct {
	RaceToIdle *trace.Series
	Dimetrodon *trace.Series
	// Levels are the expected package power levels with k = 0..4 cores
	// idle, for annotating the plot.
	Levels []float64
	// MeanPowerRace/MeanPowerDim are the average powers while the job
	// runs, demonstrating the paper's point that Dimetrodon lowers
	// average power during execution.
	MeanPowerRace units.Watts
	MeanPowerDim  units.Watts
}

// RunFigure1 reproduces Figure 1: four CPU-bound threads (one per core) with
// ~2 reference-seconds of work each, run to completion under race-to-idle and
// under Dimetrodon with p=0.5, L=100 ms, while the clamp meter samples
// package power at 3 kHz.
func RunFigure1(scale Scale, ec engine.Config) Figure1Result {
	work := 2.0 * float64(scale)
	if work < 0.5 {
		work = 0.5
	}
	run := func(tech dtm.Technique, horizon units.Time) (*trace.Series, units.Watts) {
		cfg := machineConfig(ec)
		cfg.RecordPower = true
		m := machine.New(cfg)
		if err := tech.Apply(m); err != nil {
			panic(err)
		}
		var threads []*sched.Thread
		for i := 0; i < m.Chip.NumCores(); i++ {
			threads = append(threads, m.Sched.Spawn(workload.FiniteBurn(work), sched.SpawnConfig{
				Name:        fmt.Sprintf("job-%d", i),
				PowerFactor: 1.0,
			}))
		}
		// Run until all threads exit (plus a short idle tail), bounded
		// by the horizon.
		step := 100 * units.Millisecond
		var doneAt units.Time
		for m.Now() < horizon {
			m.RunFor(step)
			all := true
			for _, t := range threads {
				if !t.Exited() {
					all = false
					break
				}
			}
			if all && doneAt == 0 {
				doneAt = m.Now()
			}
			if doneAt != 0 && m.Now() >= doneAt+500*units.Millisecond {
				break
			}
		}
		if doneAt == 0 {
			doneAt = m.Now()
		}
		series := m.Recorder.Lookup("package.power")
		mean, _ := series.MeanOver(0, doneAt)
		return series, units.Watts(mean)
	}
	horizon := units.FromSeconds(8*work + 2)
	type armOut struct {
		series *trace.Series
		mean   units.Watts
	}
	arms := runner.Collect(ec.Jobs,
		func() armOut { s, m := run(dtm.RaceToIdle{}, horizon); return armOut{s, m} },
		func() armOut {
			s, m := run(dtm.Dimetrodon{P: 0.5, L: 100 * units.Millisecond}, horizon)
			return armOut{s, m}
		},
	)
	raceSeries, raceMean := arms[0].series, arms[0].mean
	dimSeries, dimMean := arms[1].series, arms[1].mean

	// Annotate expected power levels for k idle cores at a representative
	// warm junction temperature.
	cfg := machine.DefaultConfig()
	m := machine.New(cfg)
	var levels []float64
	warm := []units.Celsius{45, 45, 45, 45}
	for idle := 0; idle <= 4; idle++ {
		for c := 0; c < 4; c++ {
			if c < idle {
				m.Chip.SetIdle(c, cfg.InjectedIdle)
			} else {
				m.Chip.SetActive(c, 1.0)
			}
		}
		levels = append(levels, float64(m.Chip.TotalPower(warm)))
	}
	return Figure1Result{
		RaceToIdle:    raceSeries,
		Dimetrodon:    dimSeries,
		Levels:        levels,
		MeanPowerRace: raceMean,
		MeanPowerDim:  dimMean,
	}
}

// String renders the traces as ASCII charts plus the level annotation.
func (r Figure1Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 1: race-to-idle versus Dimetrodon power consumption\n")
	fmt.Fprintf(&b, "mean power while running: race-to-idle %.1fW, dimetrodon %.1fW\n",
		float64(r.MeanPowerRace), float64(r.MeanPowerDim))
	b.WriteString("expected levels (cores idle -> W):")
	for k, w := range r.Levels {
		fmt.Fprintf(&b, " %d:%.0f", k, w)
	}
	b.WriteString("\n\nrace-to-idle:\n")
	b.WriteString(r.RaceToIdle.ASCII(72, 10))
	b.WriteString("\ndimetrodon (p=0.5, L=100ms):\n")
	b.WriteString(r.Dimetrodon.ASCII(72, 10))
	return b.String()
}

// Files renders the two power traces.
func (r Figure1Result) Files() []export.File {
	return []export.File{
		seriesCSV("fig1_race_to_idle.csv", r.RaceToIdle),
		seriesCSV("fig1_dimetrodon.csv", r.Dimetrodon),
	}
}
