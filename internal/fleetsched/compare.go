package fleetsched

import (
	"fmt"
	"strings"

	"repro/internal/engine"
	"repro/internal/export"
	"repro/internal/scenario"
)

// Comparison is one scheduled scenario swept over every placement policy,
// each policy seeing the identical fleet, arrival streams and migration
// settings — only the placement decisions differ.
type Comparison struct {
	Spec    *scenario.Spec
	Scale   float64
	Results []*Result // in PlacementPolicies order
}

// Compare runs the scheduled scenario under every placement policy. Policies
// run sequentially (each run parallelises over machines within rounds), so
// the comparison is byte-identical at any -jobs level.
func Compare(spec *scenario.Spec, scale float64) (*Comparison, error) {
	return CompareOpts(spec, scale, Options{}, nil)
}

// CompareOpts is Compare with per-run options; onPolicy, when non-nil, is
// called with each policy's name as its sweep starts, so a streaming
// observer can attribute the round telemetry that follows.
func CompareOpts(spec *scenario.Spec, scale float64, opts Options, onPolicy func(policy string)) (*Comparison, error) {
	c := &Comparison{Spec: spec, Scale: scale}
	for _, name := range Names() {
		if onPolicy != nil {
			onPolicy(name)
		}
		res, err := RunOpts(spec, name, scale, opts)
		if err != nil {
			return nil, fmt.Errorf("fleetsched: comparing %q under %s: %w", spec.Name, name, err)
		}
		c.Results = append(c.Results, res)
	}
	return c, nil
}

// DefaultResult returns the comparison entry run under the spec's default
// placement policy (coolest-first when the spec names none) — the run whose
// per-machine/fleet/job CSVs `sched export` ships alongside the comparison,
// without re-simulating it.
func (c *Comparison) DefaultResult() *Result {
	name := c.Spec.Scheduler.Policy
	if name == "" {
		name = scenario.PlaceCoolestFirst
	}
	for _, r := range c.Results {
		if r.Policy == name {
			return r
		}
	}
	return c.Results[0]
}

// CompareByName looks the scenario up in the registry and compares policies
// under the given engine.
func CompareByName(name string, scale float64, ec engine.Config) (*Comparison, error) {
	spec, ok := scenario.Get(name)
	if !ok {
		return nil, fmt.Errorf("fleetsched: unknown scenario %q", name)
	}
	return CompareOpts(spec, scale, Options{Engine: ec}, nil)
}

// String renders the policy-comparison table: one row per policy, the
// thermal columns first (what a preventive system defends), then placement
// churn and QoS. The QoS delta column is each policy's mean slowdown minus
// the first (random baseline) row's.
func (c *Comparison) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Placement policy comparison — scenario %s (%d machines, dtm %s)\n",
		c.Spec.Name, c.Spec.Fleet.Machines, c.Spec.Policy.Label())
	r0 := c.Results[0]
	fmt.Fprintf(&b, "%d jobs over %v per machine, round %v, violation >= %.1fC",
		r0.Placement.JobsArrived, r0.Duration, r0.Round, c.Spec.ViolationThreshold())
	if c.Spec.Scheduler.Migration.Enabled {
		b.WriteString(", migration on")
	}
	b.WriteString("\n\n")
	b.WriteString(" policy            viol   viol_s   mach   tm1   peak_max   temp_sd   migr   done   slowdown    p95   qos_delta\n")
	base := c.Results[0].Placement.SlowdownMean
	for _, r := range c.Results {
		a, p := r.Fleet, r.Placement
		fmt.Fprintf(&b, " %-16s %5d  %7.1f  %5d  %4d  %7.3fC  %7.3fC  %5d  %5d  %9.3f  %5.3f  %+9.3f\n",
			r.Policy, a.TotalViolations, a.ViolationS, a.MachinesViol, a.TM1Trips,
			a.PeakJunctionMax, p.TempStddevC, p.Migrations, p.JobsCompleted,
			p.SlowdownMean, p.SlowdownP95, p.SlowdownMean-base)
	}
	return b.String()
}

// CSV renders the comparison as one plot-ready table via the shared CSV
// emitter (policy labels pass through RFC 4180 quoting like every field).
func (c *Comparison) CSV() (string, error) {
	header := []string{
		"policy", "violations", "violation_s", "machines_violating", "tm1_trips",
		"peak_max_c", "mean_junction_max_c", "temp_stddev_c", "peak_spread_c",
		"overhead_pct", "jobs_arrived", "jobs_dispatched", "jobs_completed",
		"migrations", "slowdown_mean", "slowdown_p95", "wait_mean_s",
		"web_good_mean", "qos_delta",
	}
	base := c.Results[0].Placement.SlowdownMean
	var rows [][]string
	for _, r := range c.Results {
		a, p := r.Fleet, r.Placement
		rows = append(rows, []string{
			r.Policy,
			fmt.Sprintf("%d", a.TotalViolations),
			fmt.Sprintf("%.3f", a.ViolationS),
			fmt.Sprintf("%d", a.MachinesViol),
			fmt.Sprintf("%d", a.TM1Trips),
			fmt.Sprintf("%.4f", a.PeakJunctionMax),
			fmt.Sprintf("%.4f", a.MeanJunctionMax),
			fmt.Sprintf("%.4f", p.TempStddevC),
			fmt.Sprintf("%.4f", p.PeakSpreadC),
			fmt.Sprintf("%.4f", a.OverheadPct),
			fmt.Sprintf("%d", p.JobsArrived),
			fmt.Sprintf("%d", p.JobsDispatched),
			fmt.Sprintf("%d", p.JobsCompleted),
			fmt.Sprintf("%d", p.Migrations),
			fmt.Sprintf("%.6f", p.SlowdownMean),
			fmt.Sprintf("%.6f", p.SlowdownP95),
			fmt.Sprintf("%.6f", p.WaitMeanS),
			fmt.Sprintf("%.6f", a.WebGoodMean),
			fmt.Sprintf("%.6f", p.SlowdownMean-base),
		})
	}
	return export.CSV(header, rows)
}

// ExportComparison writes the comparison CSV into dir.
func ExportComparison(c *Comparison, dir string) ([]string, error) {
	files, err := RenderComparison(c)
	if err != nil {
		return nil, err
	}
	return export.Write(dir, files...)
}

// RenderComparison renders the comparison CSV in memory (see RenderResult).
func RenderComparison(c *Comparison) ([]export.File, error) {
	content, err := c.CSV()
	if err != nil {
		return nil, err
	}
	base := strings.ReplaceAll(c.Spec.Name, "-", "_")
	return []export.File{{
		Name:    fmt.Sprintf("sched_%s_policies.csv", base),
		Content: content,
	}}, nil
}

// RunByName looks the scenario up in the registry and runs it under the
// given placement policy (empty selects the spec's default) under the given
// engine.
func RunByName(name, policy string, scale float64, ec engine.Config) (*Result, error) {
	spec, ok := scenario.Get(name)
	if !ok {
		return nil, fmt.Errorf("fleetsched: unknown scenario %q", name)
	}
	return RunOpts(spec, policy, scale, Options{Engine: ec})
}
