package experiments

import (
	"fmt"
	"strings"

	"repro/internal/dtm"
	"repro/internal/engine"
	"repro/internal/export"
	"repro/internal/machine"
	"repro/internal/runner"
	"repro/internal/trace"
	"repro/internal/units"
)

// Figure2Curve is one idle-proportion setting's temperature trajectory.
type Figure2Curve struct {
	P float64
	// Rise is the across-core average junction temperature rise over the
	// idle temperature, sampled once per second.
	Rise *trace.Series
	// FinalRise is the mean rise over the last tenth of the run.
	FinalRise float64
}

// Figure2Result holds Figure 2: average core temperature rise over idle
// during a cpuburn execution for p ∈ {0, .25, .5, .75}, L = 100 ms.
type Figure2Result struct {
	Duration units.Time
	IdleTemp units.Celsius
	Curves   []Figure2Curve
}

// RunFigure2 reproduces Figure 2. The paper runs five minutes of cpuburn on
// all cores; temperatures fluctuate under the probabilistic injection and
// plateau lower for higher p.
func RunFigure2(scale Scale, ec engine.Config) Figure2Result {
	dur := scale.seconds(300)
	res := Figure2Result{Duration: dur}
	type curveOut struct {
		curve Figure2Curve
		idle  units.Celsius
	}
	curve := func(p float64) curveOut {
		cfg := machineConfig(ec)
		cfg.Meter.Disabled = true
		cfg.Seed = uint64(100 + p*100)
		m := machine.New(cfg)
		tech := dtm.Technique(dtm.RaceToIdle{})
		if p > 0 {
			tech = dtm.Dimetrodon{P: p, L: 100 * units.Millisecond}
		}
		if err := tech.Apply(m); err != nil {
			panic(err)
		}
		SpawnBurnPerCore(1.0)(m)
		idle := m.IdleJunctionTemp()
		rise := trace.NewSeries(fmt.Sprintf("rise p=%g", p), "C")
		sampleEvery := units.Second
		if dur < 60*units.Second {
			sampleEvery = dur / 60
		}
		prevI := m.MeanJunctionIntegral()
		prevT := m.Now()
		for m.Now() < dur {
			m.RunFor(sampleEvery)
			i := m.MeanJunctionIntegral()
			t := m.Now()
			mean := (i - prevI) / (t - prevT).Seconds()
			rise.Append(t, mean-float64(idle))
			prevI, prevT = i, t
		}
		final, _ := rise.MeanOver(dur-dur/10, dur)
		return curveOut{Figure2Curve{P: p, Rise: rise, FinalRise: final}, idle}
	}
	ps := []float64{0, 0.25, 0.5, 0.75}
	outs := runner.Map(ec.Jobs, ps, func(_ int, p float64) curveOut { return curve(p) })
	for _, o := range outs {
		res.Curves = append(res.Curves, o.curve)
		res.IdleTemp = o.idle // shared config: identical across curves
	}
	return res
}

// String renders the curves as ASCII charts with their plateaus.
func (r Figure2Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 2: core temperature rise over idle, cpuburn, L=100ms (%v run, idle=%.1fC)\n",
		r.Duration, float64(r.IdleTemp))
	for _, c := range r.Curves {
		fmt.Fprintf(&b, "\np=%.2f  final rise %.2fC\n", c.P, c.FinalRise)
		b.WriteString(c.Rise.ASCII(72, 8))
	}
	return b.String()
}

// Files renders one rise trace per injection proportion.
func (r Figure2Result) Files() []export.File {
	var files []export.File
	for _, c := range r.Curves {
		files = append(files, seriesCSV(fmt.Sprintf("fig2_rise_p%02.0f.csv", c.P*100), c.Rise))
	}
	return files
}
