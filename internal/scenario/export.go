package scenario

import (
	"fmt"
	"strings"

	"repro/internal/engine"
	"repro/internal/export"
)

// ExportResult writes a run's plot-ready CSVs into dir: a per-machine table
// and a fleet-aggregate table, named after the scenario.
func ExportResult(r *Result, dir string) ([]string, error) {
	return export.Write(dir, RenderResult(r)...)
}

// RenderResult renders the run's CSV artefacts in memory — the single
// definition ExportResult writes to disk and the service daemon serves over
// HTTP, which is what makes daemon exports byte-identical to the CLI's.
func RenderResult(r *Result) []export.File {
	var mb strings.Builder
	mb.WriteString("machine,seed,fan_factor,mean_c,peak_c,idle_c,work_rate,power_w," +
		"injections,injected_idle_s,busy_s,overhead_pct,violation_s,violations," +
		"tm1_trips,tm1_throttled_s,web_good,web_tolerable,web_rps\n")
	for _, m := range r.Machines {
		webGood, webTol, webRPS := 0.0, 0.0, 0.0
		if m.Web != nil {
			webGood = m.Web.GoodFraction()
			webTol = m.Web.TolerableFraction()
			webRPS = m.Web.Throughput
		}
		fmt.Fprintf(&mb, "%d,%d,%.6f,%.4f,%.4f,%.4f,%.6f,%.4f,%d,%.4f,%.4f,%.4f,%.3f,%d,%d,%.3f,%.6f,%.6f,%.3f\n",
			m.Index, m.Seed, m.FanFactor, m.MeanJunction, m.PeakJunction, m.IdleTemp,
			m.WorkRate, m.MeanPower, m.Injections, m.InjectedIdleS, m.BusyS,
			100*m.OverheadFraction(), m.ViolationS, m.Violations,
			m.TM1Trips, m.TM1ThrottledS, webGood, webTol, webRPS)
	}

	a := r.Fleet
	var fb strings.Builder
	fb.WriteString("metric,value\n")
	row := func(k string, format string, v any) { fmt.Fprintf(&fb, "%s,"+format+"\n", k, v) }
	row("machines", "%d", len(r.Machines))
	row("duration_s", "%.3f", r.Duration.Seconds())
	row("warmup_s", "%.3f", r.Warmup.Seconds())
	row("mean_junction_p50_c", "%.4f", a.MeanJunctionP50)
	row("mean_junction_p90_c", "%.4f", a.MeanJunctionP90)
	row("mean_junction_max_c", "%.4f", a.MeanJunctionMax)
	row("peak_junction_p50_c", "%.4f", a.PeakJunctionP50)
	row("peak_junction_p99_c", "%.4f", a.PeakJunctionP99)
	row("peak_junction_max_c", "%.4f", a.PeakJunctionMax)
	row("total_work_rate", "%.6f", a.TotalWorkRate)
	row("total_power_w", "%.4f", a.TotalPower)
	row("overhead_pct", "%.4f", a.OverheadPct)
	row("total_injections", "%d", a.TotalInjection)
	row("violation_s", "%.3f", a.ViolationS)
	row("total_violations", "%d", a.TotalViolations)
	row("machines_with_violations", "%d", a.MachinesViol)
	row("tm1_trips", "%d", a.TM1Trips)
	row("tm1_throttled_s", "%.3f", a.TM1ThrottledS)
	row("web_machines", "%d", a.WebMachines)
	row("web_good_mean", "%.6f", a.WebGoodMean)
	row("web_good_min", "%.6f", a.WebGoodMin)
	row("web_throughput_rps", "%.3f", a.WebThroughput)

	base := strings.ReplaceAll(r.Spec.Name, "-", "_")
	return []export.File{
		{Name: fmt.Sprintf("scenario_%s_machines.csv", base), Content: mb.String()},
		{Name: fmt.Sprintf("scenario_%s_fleet.csv", base), Content: fb.String()},
	}
}

// Export runs the named registered scenario under the given engine and
// writes its CSVs.
func Export(name string, scale float64, dir string, ec engine.Config) ([]string, error) {
	res, err := RunByName(name, scale, ec)
	if err != nil {
		return nil, err
	}
	return ExportResult(res, dir)
}
