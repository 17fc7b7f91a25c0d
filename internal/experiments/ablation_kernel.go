package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/export"
	"repro/internal/machine"
	"repro/internal/runner"
	"repro/internal/units"
	"repro/internal/webserver"
)

// KernelAblationPoint compares one injection setting with kernel threads
// shielded (the paper's policy) versus injectable.
type KernelAblationPoint struct {
	Label         string
	ShieldedGood  float64 // relative good QoS with kernel threads exempt
	InjectedGood  float64 // relative good QoS with kernel threads injectable
	ShieldedMean  units.Time
	InjectedMean  units.Time
	ShieldedRed   float64 // temperature reduction
	InjectedRed   float64
	KernelInjects int // injections suffered by the network thread
}

// KernelAblationResult holds the §3.1 policy-decision study.
type KernelAblationResult struct {
	Points []KernelAblationPoint
}

// RunAblationKernelThreads quantifies the paper's §3.1 policy decision to
// always schedule kernel-level threads. When the network interrupt thread is
// injectable, request processing is delayed twice — once in the kernel and
// again in the user thread — degrading QoS for no additional temperature
// benefit.
func RunAblationKernelThreads(scale Scale, ec engine.Config) KernelAblationResult {
	duration := scale.seconds(180)
	webCfg := webserver.DefaultConfig()
	if w := duration / 6; w < webCfg.Warmup {
		webCfg.Warmup = w
	}
	type outcome struct {
		stats      webserver.Stats
		meanTemp   units.Celsius
		idleTemp   units.Celsius
		kernelInjs int
	}
	run := func(p float64, l units.Time, injectKernel bool, seed uint64) outcome {
		cfg := machineConfig(ec)
		cfg.Meter.Disabled = true
		cfg.Seed = seed
		m := machine.New(cfg)
		if p > 0 {
			ctl := core.NewController(m.RNG.Split())
			ctl.InjectKernel = injectKernel
			if err := ctl.SetGlobal(core.Params{P: p, L: l}); err != nil {
				panic(err)
			}
			m.Sched.SetInjector(ctl)
		}
		srv := webserver.New(m, webCfg)
		m.RunUntil(webCfg.Warmup)
		i0 := m.MeanJunctionIntegral()
		t0 := m.Now()
		m.RunUntil(duration)
		i1 := m.MeanJunctionIntegral()
		t1 := m.Now()
		var kinjs int
		for _, th := range m.Sched.Threads() {
			if th.Kernel {
				kinjs += th.Injections
			}
		}
		return outcome{
			stats:      srv.Snapshot(m.Now()),
			meanTemp:   units.Celsius((i1 - i0) / (t1 - t0).Seconds()),
			idleTemp:   m.IdleJunctionTemp(),
			kernelInjs: kinjs,
		}
	}
	grid := []struct {
		p float64
		l units.Time
	}{{0.5, 50 * units.Millisecond}, {0.75, 50 * units.Millisecond}, {0.85, 50 * units.Millisecond}}

	// Baseline first, then a shielded/injectable pair per grid point.
	type kaSpec struct {
		p            float64
		l            units.Time
		injectKernel bool
		seed         uint64
	}
	specs := []kaSpec{{0, 0, false, 955}}
	for _, g := range grid {
		specs = append(specs,
			kaSpec{g.p, g.l, false, 956},
			kaSpec{g.p, g.l, true, 957})
	}
	outs := runner.Map(ec.Jobs, specs, func(_ int, s kaSpec) outcome {
		return run(s.p, s.l, s.injectKernel, s.seed)
	})
	base := outs[0]
	rise := float64(base.meanTemp - base.idleTemp)
	var res KernelAblationResult
	for i, g := range grid {
		shielded := outs[1+2*i]
		injected := outs[2+2*i]
		pt := KernelAblationPoint{
			Label:         fmt.Sprintf("p=%g L=%v", g.p, g.l),
			ShieldedMean:  shielded.stats.MeanLatency,
			InjectedMean:  injected.stats.MeanLatency,
			KernelInjects: injected.kernelInjs,
		}
		if g := base.stats.GoodFraction(); g > 0 {
			pt.ShieldedGood = shielded.stats.GoodFraction() / g
			pt.InjectedGood = injected.stats.GoodFraction() / g
		}
		if rise > 0 {
			pt.ShieldedRed = float64(base.meanTemp-shielded.meanTemp) / rise
			pt.InjectedRed = float64(base.meanTemp-injected.meanTemp) / rise
		}
		res.Points = append(res.Points, pt)
	}
	return res
}

// String renders the comparison.
func (r KernelAblationResult) String() string {
	var b strings.Builder
	b.WriteString("Ablation \"kernel-threads\": §3.1 policy — always schedule kernel threads\n")
	b.WriteString(" config           shielded QoS/r/mean       kernel-injectable QoS/r/mean   kernel injections\n")
	for _, p := range r.Points {
		fmt.Fprintf(&b, " %-15s  %5.1f%%/%5.1f%%/%-10v  %5.1f%%/%5.1f%%/%-10v  %d\n",
			p.Label,
			100*p.ShieldedGood, 100*p.ShieldedRed, p.ShieldedMean,
			100*p.InjectedGood, 100*p.InjectedRed, p.InjectedMean,
			p.KernelInjects)
	}
	b.WriteString("(delaying interrupt processing delays requests twice: once in the kernel,\n")
	b.WriteString(" again in the user thread)\n")
	return b.String()
}

// Files renders the shielded and injected arms side by side.
func (r KernelAblationResult) Files() []export.File {
	var b strings.Builder
	b.WriteString("label,shielded_good,shielded_r,shielded_mean_s,injected_good,injected_r,injected_mean_s,kernel_injections\n")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%q,%.4f,%.4f,%.6f,%.4f,%.4f,%.6f,%d\n", p.Label,
			p.ShieldedGood, p.ShieldedRed, p.ShieldedMean.Seconds(),
			p.InjectedGood, p.InjectedRed, p.InjectedMean.Seconds(), p.KernelInjects)
	}
	return []export.File{{Name: "abl_kernel.csv", Content: b.String()}}
}
