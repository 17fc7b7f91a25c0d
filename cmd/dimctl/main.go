// Command dimctl runs the Dimetrodon reproduction's experiment harnesses,
// the fleet-scale scenario engine, and the thermal-aware fleet scheduler.
//
// Usage:
//
//	dimctl list                             list available experiments
//	dimctl run <id> [...]                   run experiments by ID (or "all")
//	dimctl -scale 0.25 run all              run everything at quarter scale
//	dimctl scenario list                    list fleet scenarios
//	dimctl scenario run <name>...           run fleet scenarios
//	dimctl scenario mega <name> -machines N tiled mega-fleet summary
//	dimctl sched policies                   list placement policies
//	dimctl sched compare -scenario <name>   sweep all placement policies
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	dimetrodon "repro"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args, executes one command and
// returns the process exit code, writing only to the given streams.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dimctl", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scale := fs.Float64("scale", 1.0, "experiment scale: 1.0 = paper-duration runs")
	jobs := fs.Int("jobs", 0, "parallel trial workers; 0 = GOMAXPROCS (output is identical at any setting)")
	integrator := fs.String("integrator", "", "thermal integrator: exact (byte-identical) or leap (quiescence-leaping fast path); default: experiments exact, scenario/sched leap")
	outDir := fs.String("out", "results", "output directory for `export`")
	fs.Usage = func() { usage(fs, stderr) }
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ec := dimetrodon.Engine{Integrator: *integrator, Jobs: *jobs}
	if err := ec.Validate(); err != nil {
		fmt.Fprintf(stderr, "dimctl: %v\n", err)
		return 2
	}
	rest := fs.Args()
	if len(rest) == 0 {
		usage(fs, stderr)
		return 2
	}
	switch rest[0] {
	case "bench":
		return benchCmd(rest[1:], stdout, stderr)
	case "remote":
		return remoteCmd(rest[1:], *scale, *outDir, stdout, stderr)
	case "trace":
		return traceCmd(rest[1:], stdout, stderr)
	case "top":
		return topCmd(rest[1:], stdout, stderr)
	case "snapshot":
		return snapshotCmd(rest[1:], stdout, stderr)
	case "incident":
		return incidentCmd(rest[1:], ec, stdout, stderr)
	case "scenario":
		return scenarioCmd(rest[1:], dimetrodon.Scale(*scale), ec, *outDir, stdout, stderr)
	case "sched":
		return schedCmd(rest[1:], dimetrodon.Scale(*scale), ec, *outDir, stdout, stderr)
	case "list":
		for _, e := range dimetrodon.Experiments {
			fmt.Fprintf(stdout, "%-18s %s\n", e.ID, e.Title)
			fmt.Fprintf(stdout, "%-18s   %s\n", "", e.Summary)
		}
		return 0
	case "run":
		targets := rest[1:]
		if len(targets) == 0 {
			fmt.Fprintln(stderr, "dimctl: run requires experiment IDs or \"all\"")
			return 2
		}
		if len(targets) == 1 && targets[0] == "all" {
			targets = dimetrodon.ExperimentIDs()
		}
		for _, id := range targets {
			e, ok := dimetrodon.LookupExperiment(id)
			if !ok {
				unknownName(stderr, "experiment", id, dimetrodon.ExperimentIDs())
				return 2
			}
			fmt.Fprintf(stdout, "==== %s (%s) ====\n", e.ID, e.Title)
			start := time.Now()
			if _, err := fmt.Fprintln(stdout, e.Run(dimetrodon.Scale(*scale), ec)); err != nil {
				fmt.Fprintf(stderr, "dimctl: %s failed: %v\n", id, err)
				return 1
			}
			fmt.Fprintf(stdout, "---- %s done in %v ----\n\n", e.ID, time.Since(start).Round(time.Millisecond))
		}
		return 0
	case "export":
		targets := rest[1:]
		if len(targets) == 0 {
			fmt.Fprintln(stderr, "dimctl: export requires experiment IDs or \"all\"")
			return 2
		}
		if len(targets) == 1 && targets[0] == "all" {
			targets = dimetrodon.ExperimentIDs()
		}
		for _, id := range targets {
			if _, ok := dimetrodon.LookupExperiment(id); !ok {
				unknownName(stderr, "experiment", id, dimetrodon.ExperimentIDs())
				return 2
			}
			start := time.Now()
			paths, err := dimetrodon.Export(id, dimetrodon.Scale(*scale), *outDir, ec)
			if err != nil {
				fmt.Fprintf(stderr, "dimctl: exporting %s: %v\n", id, err)
				return 1
			}
			printPaths(stdout, id, paths, start)
		}
		return 0
	default:
		usage(fs, stderr)
		return 2
	}
}

// benchCmd implements `dimctl bench [-iters N] [name...]`: run the kernel
// micro-benchmarks from the non-test registry in smoke mode. One iteration
// per micro (the default) is the bit-rot guard tier-1 tests also exercise;
// larger -iters give a quick wall-clock impression without the full
// scripts/bench.sh suite.
func benchCmd(args []string, stdout, stderr io.Writer) int {
	names, rest := splitFlags(args)
	trailing := flag.NewFlagSet("bench", flag.ContinueOnError)
	trailing.SetOutput(stderr)
	iters := trailing.Int("iters", 1, "iterations per micro-benchmark (1 = smoke)")
	if len(rest) > 0 {
		if err := trailing.Parse(rest); err != nil {
			return 2
		}
	}
	if *iters < 1 {
		fmt.Fprintln(stderr, "dimctl: bench -iters must be >= 1")
		return 2
	}
	micros := dimetrodon.MicroBenches()
	valid := make([]string, len(micros))
	byName := make(map[string]dimetrodon.MicroBench, len(micros))
	for i, m := range micros {
		valid[i] = m.Name
		byName[m.Name] = m
	}
	run := micros
	if len(names) > 0 {
		run = run[:0:0]
		for _, name := range names {
			m, ok := byName[name]
			if !ok {
				unknownName(stderr, "micro-benchmark", name, valid)
				return 2
			}
			run = append(run, m)
		}
	}
	for _, m := range run {
		d, err := dimetrodon.RunMicroBench(m, *iters)
		if err != nil {
			fmt.Fprintf(stderr, "dimctl: bench %s failed: %v\n", m.Name, err)
			return 1
		}
		fmt.Fprintf(stdout, "%-20s %4d iter(s) in %-12v %s\n", m.Name, *iters, d.Round(time.Microsecond), m.Doc)
	}
	return 0
}

// unknownName reports an unrecognised experiment/scenario/policy name and
// prints the valid set, so the caller can fix the invocation without a
// second round-trip through a list command.
func unknownName(w io.Writer, kind, name string, valid []string) {
	fmt.Fprintf(w, "dimctl: unknown %s %q; valid %ss:\n", kind, name, kind)
	for _, v := range valid {
		fmt.Fprintf(w, "  %s\n", v)
	}
}

func printPaths(w io.Writer, label string, paths []string, start time.Time) {
	fmt.Fprintf(w, "%-16s -> %d file(s) in %v\n", label, len(paths), time.Since(start).Round(time.Millisecond))
	for _, p := range paths {
		fmt.Fprintf(w, "  %s\n", p)
	}
}

// scenarioCmd implements `dimctl scenario list|run|export|mega`. Scenarios
// with a scheduler block route through the fleetsched cross-machine engine
// (their default placement policy); plain fleets run through the scenario
// engine. `mega` tiles the fleet out to -machines and prints the summary.
// Flags are also accepted after the scenario names.
func scenarioCmd(args []string, scale dimetrodon.Scale, ec dimetrodon.Engine, outDir string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprintln(stderr, "dimctl: scenario requires a subcommand: list, run, export or mega")
		return 2
	}
	names, rest := splitFlags(args[1:])
	trailing := flag.NewFlagSet("scenario", flag.ContinueOnError)
	trailing.SetOutput(stderr)
	trailingScale := trailing.Float64("scale", float64(scale), "experiment scale")
	trailingJobs := trailing.Int("jobs", ec.Jobs, "parallel trial workers")
	trailingOut := trailing.String("out", outDir, "output directory for export")
	trailingInteg := trailing.String("integrator", ec.Integrator, "thermal integrator (exact|leap)")
	trailingMachines := trailing.Int("machines", 1_000_000, "tiled fleet size for `scenario mega`")
	if len(rest) > 0 {
		if err := trailing.Parse(rest); err != nil {
			return 2
		}
		scale = dimetrodon.Scale(*trailingScale)
		outDir = *trailingOut
		ec = dimetrodon.Engine{Integrator: *trailingInteg, Jobs: *trailingJobs}
		if err := ec.Validate(); err != nil {
			fmt.Fprintf(stderr, "dimctl: %v\n", err)
			return 2
		}
	}
	resolve := func() ([]string, int) {
		if len(names) == 0 {
			fmt.Fprintln(stderr, "dimctl: scenario "+args[0]+" requires scenario names or \"all\"")
			return nil, 2
		}
		if len(names) == 1 && names[0] == "all" {
			return dimetrodon.ScenarioNames(), 0
		}
		for _, name := range names {
			if _, ok := dimetrodon.LookupScenario(name); !ok {
				unknownName(stderr, "scenario", name, dimetrodon.ScenarioNames())
				return nil, 2
			}
		}
		return names, 0
	}
	switch args[0] {
	case "list":
		for _, name := range dimetrodon.ScenarioNames() {
			s, _ := dimetrodon.LookupScenario(name)
			tag := ""
			if s.Scheduler != nil {
				tag = " [sched]"
			}
			fmt.Fprintf(stdout, "%-18s %s%s\n", s.Name, s.Title, tag)
			fmt.Fprintf(stdout, "%-18s   %s\n", "", s.Summary)
		}
		return 0
	case "run":
		targets, code := resolve()
		if code != 0 {
			return code
		}
		for _, name := range targets {
			start := time.Now()
			var rendered fmt.Stringer
			var err error
			if s, _ := dimetrodon.LookupScenario(name); s != nil && s.Scheduler != nil {
				rendered, err = dimetrodon.RunSchedScenario(name, "", scale, ec)
			} else {
				rendered, err = dimetrodon.RunScenario(name, scale, ec)
			}
			if err != nil {
				fmt.Fprintf(stderr, "dimctl: scenario %s failed: %v\n", name, err)
				return 1
			}
			fmt.Fprintf(stdout, "==== scenario %s ====\n%s", name, rendered)
			fmt.Fprintf(stdout, "---- %s done in %v ----\n\n", name, time.Since(start).Round(time.Millisecond))
		}
		return 0
	case "export":
		targets, code := resolve()
		if code != 0 {
			return code
		}
		for _, name := range targets {
			start := time.Now()
			paths, err := dimetrodon.ExportScenario(name, scale, outDir, ec)
			if err != nil {
				fmt.Fprintf(stderr, "dimctl: exporting scenario %s: %v\n", name, err)
				return 1
			}
			printPaths(stdout, name, paths, start)
		}
		return 0
	case "mega":
		targets, code := resolve()
		if code != 0 {
			return code
		}
		for _, name := range targets {
			start := time.Now()
			res, err := dimetrodon.RunMegaScenario(name, *trailingMachines, scale, ec)
			if err != nil {
				fmt.Fprintf(stderr, "dimctl: scenario %s failed: %v\n", name, err)
				return 1
			}
			fmt.Fprintf(stdout, "==== scenario %s (mega) ====\n%s", name, res)
			fmt.Fprintf(stdout, "---- %s done in %v ----\n\n", name, time.Since(start).Round(time.Millisecond))
		}
		return 0
	default:
		fmt.Fprintf(stderr, "dimctl: unknown scenario subcommand %q (list, run, export, mega)\n", args[0])
		return 2
	}
}

// schedCmd implements the fleet-scheduler subcommands:
//
//	dimctl sched policies                            list placement policies
//	dimctl sched run <scenario>... [-policy P]       one policy, full output
//	dimctl sched compare <scenario>...               sweep all policies, table
//	dimctl sched export <scenario>...                per-run + comparison CSVs
//
// Scenario names may also be passed via -scenario; only scenarios with a
// scheduler block qualify.
func schedCmd(args []string, scale dimetrodon.Scale, ec dimetrodon.Engine, outDir string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprintln(stderr, "dimctl: sched requires a subcommand: policies, run, compare or export")
		return 2
	}
	names, rest := splitFlags(args[1:])
	trailing := flag.NewFlagSet("sched", flag.ContinueOnError)
	trailing.SetOutput(stderr)
	trailingScale := trailing.Float64("scale", float64(scale), "experiment scale")
	trailingJobs := trailing.Int("jobs", ec.Jobs, "parallel trial workers")
	trailingOut := trailing.String("out", outDir, "output directory for export")
	policy := trailing.String("policy", "", "placement policy for `sched run` (default: the scenario's)")
	scenarioFlag := trailing.String("scenario", "", "scheduled scenario name (alternative to a positional name)")
	trailingInteg := trailing.String("integrator", ec.Integrator, "thermal integrator (exact|leap)")
	if len(rest) > 0 {
		if err := trailing.Parse(rest); err != nil {
			return 2
		}
		scale = dimetrodon.Scale(*trailingScale)
		outDir = *trailingOut
		ec = dimetrodon.Engine{Integrator: *trailingInteg, Jobs: *trailingJobs}
		if err := ec.Validate(); err != nil {
			fmt.Fprintf(stderr, "dimctl: %v\n", err)
			return 2
		}
		if *scenarioFlag != "" {
			names = append(names, *scenarioFlag)
		}
	}
	schedNames := func() []string {
		var out []string
		for _, name := range dimetrodon.ScenarioNames() {
			if s, _ := dimetrodon.LookupScenario(name); s != nil && s.Scheduler != nil {
				out = append(out, name)
			}
		}
		return out
	}
	resolve := func() ([]string, int) {
		valid := schedNames()
		if len(names) == 0 {
			fmt.Fprintln(stderr, "dimctl: sched "+args[0]+" requires a scheduled scenario name (or \"all\"); try -scenario <name>")
			return nil, 2
		}
		if len(names) == 1 && names[0] == "all" {
			return valid, 0
		}
		for _, name := range names {
			s, ok := dimetrodon.LookupScenario(name)
			if !ok || s.Scheduler == nil {
				unknownName(stderr, "scheduled scenario", name, valid)
				return nil, 2
			}
		}
		return names, 0
	}
	switch args[0] {
	case "policies":
		for _, p := range dimetrodon.SchedPolicyNames() {
			fmt.Fprintln(stdout, p)
		}
		return 0
	case "run":
		if *policy != "" && !dimetrodon.ValidSchedPolicy(*policy) {
			unknownName(stderr, "placement policy", *policy, dimetrodon.SchedPolicyNames())
			return 2
		}
		targets, code := resolve()
		if code != 0 {
			return code
		}
		for _, name := range targets {
			start := time.Now()
			res, err := dimetrodon.RunSchedScenario(name, *policy, scale, ec)
			if err != nil {
				fmt.Fprintf(stderr, "dimctl: sched run %s failed: %v\n", name, err)
				return 1
			}
			fmt.Fprintf(stdout, "==== sched %s ====\n%s", name, res)
			fmt.Fprintf(stdout, "---- %s done in %v ----\n\n", name, time.Since(start).Round(time.Millisecond))
		}
		return 0
	case "compare":
		targets, code := resolve()
		if code != 0 {
			return code
		}
		for _, name := range targets {
			start := time.Now()
			c, err := dimetrodon.CompareSchedScenario(name, scale, ec)
			if err != nil {
				fmt.Fprintf(stderr, "dimctl: sched compare %s failed: %v\n", name, err)
				return 1
			}
			fmt.Fprint(stdout, c)
			fmt.Fprintf(stdout, "---- %s compared in %v ----\n\n", name, time.Since(start).Round(time.Millisecond))
		}
		return 0
	case "export":
		targets, code := resolve()
		if code != 0 {
			return code
		}
		for _, name := range targets {
			start := time.Now()
			// One sweep serves both artefacts: the default-policy run's
			// CSVs come from the comparison's own results, not a re-run.
			c, err := dimetrodon.CompareSchedScenario(name, scale, ec)
			if err != nil {
				fmt.Fprintf(stderr, "dimctl: sched export %s: %v\n", name, err)
				return 1
			}
			paths, err := dimetrodon.ExportSchedResult(c.DefaultResult(), outDir)
			if err != nil {
				fmt.Fprintf(stderr, "dimctl: sched export %s: %v\n", name, err)
				return 1
			}
			cmpPaths, err := dimetrodon.ExportSchedComparison(c, outDir)
			if err != nil {
				fmt.Fprintf(stderr, "dimctl: sched export %s: %v\n", name, err)
				return 1
			}
			printPaths(stdout, name, append(paths, cmpPaths...), start)
		}
		return 0
	default:
		fmt.Fprintf(stderr, "dimctl: unknown sched subcommand %q (policies, run, compare, export)\n", args[0])
		return 2
	}
}

// boolTrailingFlags names the trailing flags that take no value token, so
// splitFlags does not consume the argument after a bare "-once".
var boolTrailingFlags = map[string]bool{"once": true}

// splitFlags partitions subcommand arguments into positional names and
// trailing flag tokens (value-taking flags accept either "-jobs=8" or
// "-jobs 8"; boolean flags stand alone or use the "=" form).
func splitFlags(args []string) (names, rest []string) {
	for i := 0; i < len(args); i++ {
		a := args[i]
		// A bare "-" is a positional operand (e.g. `incident export -`),
		// never a flag.
		if strings.HasPrefix(a, "-") && a != "-" {
			rest = append(rest, a)
			bare := strings.TrimLeft(a, "-")
			if !strings.Contains(a, "=") && !boolTrailingFlags[bare] && i+1 < len(args) {
				i++
				rest = append(rest, args[i])
			}
			continue
		}
		names = append(names, a)
	}
	return names, rest
}

func usage(fs *flag.FlagSet, w io.Writer) {
	fmt.Fprintf(w, `dimctl — Dimetrodon (DAC 2011) reproduction harness

usage:
  dimctl list                                         list experiments
  dimctl bench [name...] [-iters N]                   smoke-run kernel micro-benchmarks
  dimctl [-scale S] [-jobs N] run <id>...             run experiments (or "all")
  dimctl [-scale S] [-jobs N] [-out DIR] export <id>  write plot-ready CSVs (or "all")
  dimctl scenario list                                list fleet scenarios
  dimctl [-scale S] [-jobs N] scenario run <name>...  run fleet scenarios (or "all")
  dimctl [-scale S] [-jobs N] [-out DIR] scenario export <name>...
                                                      write scenario CSVs (or "all")
  dimctl scenario mega <name>... [-machines N]        tiled mega-fleet summary (default 1M)
  dimctl sched policies                               list placement policies
  dimctl [-scale S] [-jobs N] sched run <name> [-policy P]
                                                      run a scheduled scenario
  dimctl [-scale S] [-jobs N] sched compare -scenario <name>
                                                      sweep all placement policies
  dimctl [-scale S] [-jobs N] [-out DIR] sched export <name>...
                                                      write sched CSVs + comparison
  dimctl remote [-addr URL] run|submit|stream|export <name>... [-policy P] [-spec FILE]
                                                      run jobs on a dimd daemon
  dimctl remote [-addr URL] jobs|status|cancel|metrics
                                                      inspect a dimd daemon
  dimctl trace <job-id> [-addr URL] [-out FILE]       fetch a job's Chrome trace JSON
  dimctl top [-addr URL] [-once] [-interval D]        live fleet heat map
  dimctl snapshot [-addr URL] [-out FILE]             capture a content-hashed fleet snapshot
  dimctl incident list|show <id> [-addr URL]          inspect flight-recorder dumps
  dimctl incident export <id|-> [-out DIR] [-job ID]  write replayable per-job bundles
  dimctl incident replay <bundle-dir>...              re-run a bundle, byte-verify vs expected/

flags:
`)
	fs.PrintDefaults()
}
