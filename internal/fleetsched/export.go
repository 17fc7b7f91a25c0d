package fleetsched

import (
	"fmt"
	"strings"

	"repro/internal/engine"
	"repro/internal/export"
)

// ExportResult writes a scheduled run's plot-ready CSVs into dir: the
// per-machine table (the unscheduled columns plus the placement ledger), a
// fleet/placement aggregate table, and the per-job ledger.
func ExportResult(r *Result, dir string) ([]string, error) {
	files, err := RenderResult(r)
	if err != nil {
		return nil, err
	}
	return export.Write(dir, files...)
}

// RenderResult renders the scheduled run's CSV artefacts in memory — shared
// by ExportResult and the service daemon, so daemon exports are
// byte-identical to the CLI's.
func RenderResult(r *Result) ([]export.File, error) {
	mHeader := []string{
		"machine", "seed", "fan_factor", "mean_c", "peak_c", "idle_c",
		"work_rate", "power_w", "injections", "injected_idle_s", "busy_s",
		"overhead_pct", "violation_s", "violations", "tm1_trips",
		"tm1_throttled_s", "web_good", "web_rps",
		"jobs_placed", "jobs_completed", "migrated_in", "migrated_out",
	}
	var mRows [][]string
	for _, m := range r.Machines {
		webGood, webRPS := 0.0, 0.0
		if m.Web != nil {
			webGood = m.Web.GoodFraction()
			webRPS = m.Web.Throughput
		}
		mRows = append(mRows, []string{
			fmt.Sprintf("%d", m.Index),
			fmt.Sprintf("%d", m.Seed),
			fmt.Sprintf("%.6f", m.FanFactor),
			fmt.Sprintf("%.4f", m.MeanJunction),
			fmt.Sprintf("%.4f", m.PeakJunction),
			fmt.Sprintf("%.4f", m.IdleTemp),
			fmt.Sprintf("%.6f", m.WorkRate),
			fmt.Sprintf("%.4f", m.MeanPower),
			fmt.Sprintf("%d", m.Injections),
			fmt.Sprintf("%.4f", m.InjectedIdleS),
			fmt.Sprintf("%.4f", m.BusyS),
			fmt.Sprintf("%.4f", 100*m.OverheadFraction()),
			fmt.Sprintf("%.3f", m.ViolationS),
			fmt.Sprintf("%d", m.Violations),
			fmt.Sprintf("%d", m.TM1Trips),
			fmt.Sprintf("%.3f", m.TM1ThrottledS),
			fmt.Sprintf("%.6f", webGood),
			fmt.Sprintf("%.3f", webRPS),
			fmt.Sprintf("%d", m.JobsPlaced),
			fmt.Sprintf("%d", m.JobsCompleted),
			fmt.Sprintf("%d", m.MigratedIn),
			fmt.Sprintf("%d", m.MigratedOut),
		})
	}
	machinesCSV, err := export.CSV(mHeader, mRows)
	if err != nil {
		return nil, err
	}

	a, p := r.Fleet, r.Placement
	var fRows [][]string
	row := func(k, v string) { fRows = append(fRows, []string{k, v}) }
	row("policy", r.Policy)
	row("machines", fmt.Sprintf("%d", len(r.Machines)))
	row("duration_s", fmt.Sprintf("%.3f", r.Duration.Seconds()))
	row("warmup_s", fmt.Sprintf("%.3f", r.Warmup.Seconds()))
	row("round_s", fmt.Sprintf("%.3f", r.Round.Seconds()))
	row("jobs_arrived", fmt.Sprintf("%d", p.JobsArrived))
	row("jobs_dispatched", fmt.Sprintf("%d", p.JobsDispatched))
	row("jobs_completed", fmt.Sprintf("%d", p.JobsCompleted))
	row("migrations", fmt.Sprintf("%d", p.Migrations))
	row("slowdown_mean", fmt.Sprintf("%.6f", p.SlowdownMean))
	row("slowdown_p95", fmt.Sprintf("%.6f", p.SlowdownP95))
	row("wait_mean_s", fmt.Sprintf("%.6f", p.WaitMeanS))
	row("temp_stddev_c", fmt.Sprintf("%.4f", p.TempStddevC))
	row("peak_spread_c", fmt.Sprintf("%.4f", p.PeakSpreadC))
	row("mean_junction_max_c", fmt.Sprintf("%.4f", a.MeanJunctionMax))
	row("peak_junction_max_c", fmt.Sprintf("%.4f", a.PeakJunctionMax))
	row("total_work_rate", fmt.Sprintf("%.6f", a.TotalWorkRate))
	row("overhead_pct", fmt.Sprintf("%.4f", a.OverheadPct))
	row("violation_s", fmt.Sprintf("%.3f", a.ViolationS))
	row("total_violations", fmt.Sprintf("%d", a.TotalViolations))
	row("machines_with_violations", fmt.Sprintf("%d", a.MachinesViol))
	row("tm1_trips", fmt.Sprintf("%d", a.TM1Trips))
	row("web_good_mean", fmt.Sprintf("%.6f", a.WebGoodMean))
	row("web_throughput_rps", fmt.Sprintf("%.3f", a.WebThroughput))
	fleetCSV, err := export.CSV([]string{"metric", "value"}, fRows)
	if err != nil {
		return nil, err
	}

	jHeader := []string{
		"job", "class", "threads", "work_s", "power_factor",
		"arrive_s", "dispatch_s", "done_s", "machine", "migrations", "slowdown",
	}
	var jRows [][]string
	for _, j := range r.Jobs {
		dispatch, done, slow := -1.0, -1.0, 0.0
		if j.Machine >= 0 {
			dispatch = j.DispatchAt.Seconds()
		}
		if j.done {
			done = j.DoneAt.Seconds()
			slow = j.Slowdown()
		}
		jRows = append(jRows, []string{
			fmt.Sprintf("%d", j.ID),
			j.Class,
			fmt.Sprintf("%d", j.Threads),
			fmt.Sprintf("%.4f", j.WorkS),
			fmt.Sprintf("%.3f", j.PowerFactor),
			fmt.Sprintf("%.4f", j.ArriveAt.Seconds()),
			fmt.Sprintf("%.4f", dispatch),
			fmt.Sprintf("%.4f", done),
			fmt.Sprintf("%d", j.Machine),
			fmt.Sprintf("%d", j.Migrations),
			fmt.Sprintf("%.6f", slow),
		})
	}
	jobsCSV, err := export.CSV(jHeader, jRows)
	if err != nil {
		return nil, err
	}

	base := strings.ReplaceAll(r.Spec.Name, "-", "_")
	return []export.File{
		{Name: fmt.Sprintf("sched_%s_machines.csv", base), Content: machinesCSV},
		{Name: fmt.Sprintf("sched_%s_fleet.csv", base), Content: fleetCSV},
		{Name: fmt.Sprintf("sched_%s_jobs.csv", base), Content: jobsCSV},
	}, nil
}

// Export runs the named scheduled scenario under its default policy and
// writes its CSVs.
func Export(name string, scale float64, dir string, ec engine.Config) ([]string, error) {
	res, err := RunByName(name, "", scale, ec)
	if err != nil {
		return nil, err
	}
	return ExportResult(res, dir)
}
