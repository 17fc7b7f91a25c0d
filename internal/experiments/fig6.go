package experiments

import (
	"fmt"
	"strings"

	"repro/internal/dtm"
	"repro/internal/engine"
	"repro/internal/export"
	"repro/internal/machine"
	"repro/internal/runner"
	"repro/internal/units"
	"repro/internal/webserver"
)

// Figure6Point is one web-serving configuration's outcome.
type Figure6Point struct {
	Label         string
	TempReduction float64
	GoodQoS       float64 // relative to baseline "good" fraction
	TolerableQoS  float64 // relative to baseline "tolerable" fraction
	Throughput    float64 // requests/s
	MeanLatency   units.Time
}

// Figure6Result holds the QoS-versus-temperature sweep of Figure 6.
type Figure6Result struct {
	BaselineRise units.Celsius
	BaselineQoS  webserver.Stats
	Points       []Figure6Point
	GoodPareto   []Figure6Point
	TolPareto    []Figure6Point
}

// RunFigure6 reproduces Figure 6: the SPECWeb-like workload (440 connections,
// ~15–25 % per-core load, ≈6 °C unconstrained rise) under a Dimetrodon sweep.
// QoS follows the SPECWeb thresholds: "good" ≤ 3 s, "tolerable" ≤ 5 s.
//
// The closed loop produces the paper's dynamics: stretching responses lowers
// each connection's issue rate, removing work and heat — until the injected
// idle time saturates the cores, queueing explodes, and QoS collapses.
func RunFigure6(scale Scale, ec engine.Config) Figure6Result {
	duration := scale.seconds(240)
	webCfg := webserver.DefaultConfig()
	if w := duration / 6; w < webCfg.Warmup {
		webCfg.Warmup = w
	}

	type outcome struct {
		meanTemp units.Celsius
		idleTemp units.Celsius
		stats    webserver.Stats
	}
	run := func(tech dtm.Technique, seed uint64) outcome {
		cfg := machineConfig(ec)
		cfg.Meter.Disabled = true
		cfg.Seed = seed
		m := machine.New(cfg)
		if err := tech.Apply(m); err != nil {
			panic(err)
		}
		srv := webserver.New(m, webCfg)
		m.RunUntil(webCfg.Warmup)
		i0 := m.MeanJunctionIntegral()
		t0 := m.Now()
		m.RunUntil(duration)
		i1 := m.MeanJunctionIntegral()
		t1 := m.Now()
		return outcome{
			meanTemp: units.Celsius((i1 - i0) / (t1 - t0).Seconds()),
			idleTemp: m.IdleJunctionTemp(),
			stats:    srv.Snapshot(m.Now()),
		}
	}

	// Baseline first, then the p×L sweep, all as one trial list.
	type f6Spec struct {
		p    float64
		l    units.Time
		seed uint64
	}
	specs := []f6Spec{{0, 0, 600}}
	seed := uint64(60000)
	for _, p := range []float64{0.25, 0.5, 0.65, 0.75, 0.8, 0.85, 0.9, 0.93, 0.95} {
		for _, l := range []units.Time{10 * units.Millisecond, 25 * units.Millisecond, 50 * units.Millisecond, 100 * units.Millisecond} {
			seed++
			specs = append(specs, f6Spec{p, l, seed})
		}
	}
	outs := runner.Map(ec.Jobs, specs, func(i int, s f6Spec) outcome {
		if i == 0 {
			return run(dtm.RaceToIdle{}, s.seed)
		}
		return run(dtm.Dimetrodon{P: minProb(s.p), L: s.l}, s.seed)
	})
	base := outs[0]
	rise := float64(base.meanTemp - base.idleTemp)
	res := Figure6Result{BaselineRise: units.Celsius(rise), BaselineQoS: base.stats}

	for i, s := range specs[1:] {
		o := outs[i+1]
		pt := Figure6Point{
			Label:         fmt.Sprintf("p=%g L=%v", s.p, s.l),
			TempReduction: float64(base.meanTemp-o.meanTemp) / rise,
			Throughput:    o.stats.Throughput,
			MeanLatency:   o.stats.MeanLatency,
		}
		if g := base.stats.GoodFraction(); g > 0 {
			pt.GoodQoS = o.stats.GoodFraction() / g
		}
		if t := base.stats.TolerableFraction(); t > 0 {
			pt.TolerableQoS = o.stats.TolerableFraction() / t
		}
		res.Points = append(res.Points, pt)
	}
	res.GoodPareto = fig6Pareto(res.Points, true)
	res.TolPareto = fig6Pareto(res.Points, false)
	return res
}

// minProb keeps sweep probabilities inside the model's domain.
func minProb(p float64) float64 {
	if p >= 1 {
		return 0.99
	}
	return p
}

// fig6Pareto extracts the boundary maximising (TempReduction, QoS).
func fig6Pareto(points []Figure6Point, good bool) []Figure6Point {
	qos := func(p Figure6Point) float64 {
		if good {
			return p.GoodQoS
		}
		return p.TolerableQoS
	}
	var out []Figure6Point
	for _, p := range points {
		dominated := false
		for _, q := range points {
			if q.TempReduction >= p.TempReduction && qos(q) >= qos(p) &&
				(q.TempReduction > p.TempReduction || qos(q) > qos(p)) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, p)
		}
	}
	// Sort by temperature reduction ascending (insertion, small n).
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].TempReduction < out[j-1].TempReduction; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// String renders the QoS boundaries.
func (r Figure6Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6: web workload QoS vs temperature reduction (baseline rise %.2fC)\n", float64(r.BaselineRise))
	fmt.Fprintf(&b, "baseline: %v\n", r.BaselineQoS)
	b.WriteString("\n\"good\" (<=3s) pareto boundary:\n")
	for _, p := range r.GoodPareto {
		fmt.Fprintf(&b, "  r=%5.1f%%  QoS=%6.1f%%  rate=%5.1f/s mean=%v  (%s)\n",
			100*p.TempReduction, 100*p.GoodQoS, p.Throughput, p.MeanLatency, p.Label)
	}
	b.WriteString("\n\"tolerable\" (<=5s) pareto boundary:\n")
	for _, p := range r.TolPareto {
		fmt.Fprintf(&b, "  r=%5.1f%%  QoS=%6.1f%%  rate=%5.1f/s mean=%v  (%s)\n",
			100*p.TempReduction, 100*p.TolerableQoS, p.Throughput, p.MeanLatency, p.Label)
	}
	b.WriteString("\n(paper: tolerable allows ~20% temperature reduction with virtually no\n")
	b.WriteString(" drop-off; good holds >=1:1 until ~30% then falls quickly)\n")
	return b.String()
}

// Files renders the QoS points.
func (r Figure6Result) Files() []export.File {
	var b strings.Builder
	b.WriteString("label,temp_reduction,good_qos,tolerable_qos,throughput_rps,mean_latency_s\n")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%q,%.6f,%.6f,%.6f,%.3f,%.6f\n",
			p.Label, p.TempReduction, p.GoodQoS, p.TolerableQoS,
			p.Throughput, p.MeanLatency.Seconds())
	}
	return []export.File{{Name: "fig6_web_qos.csv", Content: b.String()}}
}
