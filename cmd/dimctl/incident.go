// dimctl's incident-response commands. `snapshot` captures a daemon's
// content-hashed full-state document; `incident` lists, inspects, exports and
// replays flight-recorder dumps. `incident export` is the bridge from a live
// outage to an offline reproduction: it turns any snapshot (a stored
// incident's, or one taken on the spot) into per-job bundles — canonical
// spec, WAL-journaled resume token, and the daemon's own rendered artifacts —
// and `incident replay` re-runs a bundle locally and byte-verifies the result
// against what the daemon produced. Determinism is the contract under test:
// a replay that is not byte-identical is a finding, not a formatting nit.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/engine"
	"repro/internal/export"
	"repro/internal/fleetsched"
	"repro/internal/scenario"
	"repro/internal/service"
)

// bundleVersion is the incident-bundle schema version; replay refuses
// versions it does not know.
const bundleVersion = 1

// bundleMeta is bundle.json: everything replay needs to re-run the job and
// name the fleet state it came from.
type bundleMeta struct {
	Version      int     `json:"version"`
	SnapshotHash string  `json:"snapshot_hash"`
	Incident     string  `json:"incident,omitempty"`
	Reason       string  `json:"reason,omitempty"`
	Job          string  `json:"job"`
	Kind         string  `json:"kind"`
	Name         string  `json:"name,omitempty"`
	Policy       string  `json:"policy,omitempty"`
	Scale        float64 `json:"scale"`
	State        string  `json:"state"`
	Integrator   string  `json:"integrator,omitempty"`
	// Resumed counts the checkpoint's completed machines (scenario) or its
	// round barrier (sched), recorded so a human reading the bundle knows how
	// much of the run replays from the token versus recomputes.
	Resumed int `json:"resumed,omitempty"`
	// Expected reports whether the bundle carries the daemon's rendered
	// artifacts under expected/ — the byte-verification target.
	Expected bool `json:"expected"`
}

// snapshotCmd implements `dimctl snapshot [-addr URL] [-out FILE]`: capture
// the daemon's full-state document. Without -out a summary prints; with -out
// the full JSON document writes to FILE.
func snapshotCmd(args []string, stdout, stderr io.Writer) int {
	_, rest := splitFlags(args)
	trailing := flag.NewFlagSet("snapshot", flag.ContinueOnError)
	trailing.SetOutput(stderr)
	addr := trailing.String("addr", remoteAddrDefault(), "dimd base URL (or $DIMD_ADDR)")
	out := trailing.String("out", "", "write the full snapshot JSON to this file")
	if len(rest) > 0 {
		if err := trailing.Parse(rest); err != nil {
			return 2
		}
	}
	c := service.NewRetryClient(*addr, service.RetryPolicy{})
	snap, err := c.Snapshot()
	if err != nil {
		fmt.Fprintf(stderr, "dimctl: snapshot: %v\n", err)
		return 1
	}
	if *out != "" {
		raw, err := json.MarshalIndent(snap, "", "  ")
		if err != nil {
			fmt.Fprintf(stderr, "dimctl: snapshot: %v\n", err)
			return 1
		}
		if err := os.WriteFile(*out, append(raw, '\n'), 0o644); err != nil {
			fmt.Fprintf(stderr, "dimctl: snapshot: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "snapshot %s -> %s (%d job(s))\n", shortHash(snap.Hash), *out, len(snap.Jobs))
		return 0
	}
	printSnapshot(stdout, &snap)
	return 0
}

// printSnapshot renders the operator summary: identity line, daemon shape,
// then one row per job.
func printSnapshot(w io.Writer, snap *service.Snapshot) {
	fmt.Fprintf(w, "snapshot %s  v%d  %s\n", shortHash(snap.Hash), snap.Version, snap.TakenAt.Format("2006-01-02 15:04:05"))
	mode := "single-node"
	if snap.Cluster != nil {
		mode = fmt.Sprintf("coordinator (%d worker(s))", len(snap.Daemon.ClusterWorkers))
	}
	durable := "in-memory"
	if snap.Daemon.Durable {
		durable = "durable"
	}
	fmt.Fprintf(w, "daemon: %s, %s, %d worker(s), queue %d/%d, %d flight record(s)\n",
		mode, durable, snap.Daemon.Workers, snap.QueueDepth, snap.Daemon.QueueCapacity, snap.FlightRecords)
	if snap.Journal != nil {
		fmt.Fprintf(w, "journal: %d append(s), %d bytes, %d fsync(s)\n",
			snap.Journal.Appends, snap.Journal.Bytes, snap.Journal.Fsyncs)
	}
	for _, j := range snap.Jobs {
		extra := ""
		if j.Checkpoint != nil {
			switch {
			case j.Checkpoint.Sched != nil:
				extra = fmt.Sprintf("  ckpt round %d", j.Checkpoint.Sched.Round)
			default:
				extra = fmt.Sprintf("  ckpt %d machine(s)", len(j.Checkpoint.Machines))
			}
		}
		if j.Degraded {
			extra += "  degraded"
		}
		fmt.Fprintf(w, "  %-10s %-13s %-9s %s%s\n", j.ID, j.Kind, j.State, j.Name, extra)
	}
}

// incidentCmd implements `dimctl incident list|show|export|replay`.
func incidentCmd(args []string, ec engine.Config, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprintln(stderr, "dimctl: incident requires a subcommand: list, show, export or replay")
		return 2
	}
	names, rest := splitFlags(args[1:])
	trailing := flag.NewFlagSet("incident", flag.ContinueOnError)
	trailing.SetOutput(stderr)
	addr := trailing.String("addr", remoteAddrDefault(), "dimd base URL (or $DIMD_ADDR)")
	out := trailing.String("out", "incidents", "bundle directory for `incident export`")
	jobFilter := trailing.String("job", "", "export only this job's bundle")
	if len(rest) > 0 {
		if err := trailing.Parse(rest); err != nil {
			return 2
		}
	}
	c := service.NewRetryClient(*addr, service.RetryPolicy{})
	switch args[0] {
	case "list":
		sums, err := c.Incidents()
		if err != nil {
			fmt.Fprintf(stderr, "dimctl: incident list: %v\n", err)
			return 1
		}
		if len(sums) == 0 {
			fmt.Fprintln(stdout, "no incidents recorded")
			return 0
		}
		for _, s := range sums {
			fmt.Fprintf(stdout, "%-12s %s  %-14s %-10s %4d rec  %s\n",
				s.ID, s.At.Format("15:04:05"), s.Reason, s.Job, s.Records, shortHash(s.SnapshotHash))
		}
		return 0
	case "show":
		if len(names) != 1 {
			fmt.Fprintln(stderr, "dimctl: incident show takes exactly one incident ID")
			return 2
		}
		inc, err := c.Incident(names[0])
		if err != nil {
			fmt.Fprintf(stderr, "dimctl: incident show: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s  %s  reason=%s job=%s\n%s\n",
			inc.ID, inc.At.Format("2006-01-02 15:04:05"), inc.Reason, inc.Job, inc.Detail)
		for _, r := range inc.Records {
			fmt.Fprintf(stdout, "  %-9s %-10s %-28s %g\n", r.Kind, r.Job, r.Name, r.Value)
		}
		if inc.Snapshot != nil {
			fmt.Fprintln(stdout)
			printSnapshot(stdout, inc.Snapshot)
		}
		return 0
	case "export":
		if len(names) != 1 {
			fmt.Fprintln(stderr, "dimctl: incident export takes one incident ID (or \"-\" for a live snapshot)")
			return 2
		}
		return exportBundles(c, names[0], *out, *jobFilter, stdout, stderr)
	case "replay":
		if len(names) == 0 {
			fmt.Fprintln(stderr, "dimctl: incident replay requires bundle directories")
			return 2
		}
		for _, dir := range names {
			if code := replayBundle(dir, ec, stdout, stderr); code != 0 {
				return code
			}
		}
		return 0
	default:
		fmt.Fprintf(stderr, "dimctl: unknown incident subcommand %q (list, show, export, replay)\n", args[0])
		return 2
	}
}

// exportBundles turns a snapshot into per-job replay bundles. id "-" takes a
// live snapshot from the daemon; anything else names a stored incident. Each
// replayable job (it has a canonical spec) writes
// <out>/<job-id>/{bundle.json,spec.json,resume.json,expected/...}; the
// expected artifacts are fetched from the daemon for done jobs so replay has
// a byte-verification target.
func exportBundles(c *service.Client, id, out, jobFilter string, stdout, stderr io.Writer) int {
	var (
		snap     *service.Snapshot
		incident *service.Incident
	)
	if id == "-" {
		s, err := c.Snapshot()
		if err != nil {
			fmt.Fprintf(stderr, "dimctl: incident export: %v\n", err)
			return 1
		}
		snap = &s
	} else {
		inc, err := c.Incident(id)
		if err != nil {
			fmt.Fprintf(stderr, "dimctl: incident export: %v\n", err)
			return 1
		}
		if inc.Snapshot == nil {
			fmt.Fprintf(stderr, "dimctl: incident export: %s carries no snapshot\n", id)
			return 1
		}
		incident, snap = &inc, inc.Snapshot
	}
	if snap.Version != service.SnapshotVersion {
		fmt.Fprintf(stderr, "dimctl: incident export: snapshot version %d, this dimctl speaks %d\n",
			snap.Version, service.SnapshotVersion)
		return 1
	}
	exported := 0
	for _, j := range snap.Jobs {
		if jobFilter != "" && j.ID != jobFilter {
			continue
		}
		if len(j.Spec) == 0 {
			if jobFilter != "" {
				fmt.Fprintf(stderr, "dimctl: incident export: job %s (%s) has no canonical spec to bundle\n", j.ID, j.Kind)
				return 1
			}
			continue
		}
		dir := filepath.Join(out, j.ID)
		if err := writeBundle(c, dir, incident, snap, j); err != nil {
			fmt.Fprintf(stderr, "dimctl: incident export: %s: %v\n", j.ID, err)
			return 1
		}
		fmt.Fprintf(stdout, "%-10s %-13s %-9s -> %s\n", j.ID, j.Kind, j.State, dir)
		exported++
	}
	if exported == 0 {
		fmt.Fprintf(stderr, "dimctl: incident export: no replayable jobs in snapshot %s\n", shortHash(snap.Hash))
		return 1
	}
	fmt.Fprintf(stdout, "exported %d bundle(s) from snapshot %s\n", exported, shortHash(snap.Hash))
	return 0
}

// writeBundle writes one job's bundle directory.
func writeBundle(c *service.Client, dir string, incident *service.Incident, snap *service.Snapshot, j service.JobSnapshot) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	meta := bundleMeta{
		Version:      bundleVersion,
		SnapshotHash: snap.Hash,
		Job:          j.ID,
		Kind:         j.Kind,
		Name:         j.Name,
		Policy:       j.Policy,
		Scale:        j.Scale,
		State:        j.State,
		Integrator:   snap.Daemon.Integrator,
	}
	if incident != nil {
		meta.Incident = incident.ID
		meta.Reason = incident.Reason
	}
	if j.Checkpoint != nil {
		if j.Checkpoint.Sched != nil {
			meta.Resumed = j.Checkpoint.Sched.Round
		} else {
			meta.Resumed = len(j.Checkpoint.Machines)
		}
		raw, err := json.MarshalIndent(j.Checkpoint, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, "resume.json"), append(raw, '\n'), 0o644); err != nil {
			return err
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "spec.json"), append(bytes.TrimRight(j.Spec, "\n"), '\n'), 0o644); err != nil {
		return err
	}
	// The verification target: the daemon's own rendered artifacts. Only done
	// jobs have them; a daemon that already evicted the job's output (or an
	// offline analysis of a mirrored incident file) degrades to an unverified
	// bundle rather than failing the export.
	if j.State == "done" && c != nil {
		if err := fetchExpected(c, dir, j.ID); err == nil {
			meta.Expected = true
		}
	}
	raw, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "bundle.json"), append(raw, '\n'), 0o644)
}

// fetchExpected pulls the daemon's rendered report and artifact files into
// <dir>/expected/.
func fetchExpected(c *service.Client, dir, jobID string) error {
	exp := filepath.Join(dir, "expected")
	if err := os.MkdirAll(exp, 0o755); err != nil {
		return err
	}
	rendered, err := c.Output(jobID)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(exp, "output.txt"), []byte(rendered), 0o644); err != nil {
		return err
	}
	names, err := c.Files(jobID)
	if err != nil {
		return err
	}
	for _, name := range names {
		data, err := c.File(jobID, name)
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(exp, filepath.Base(name)), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// replayBundle re-runs one exported bundle locally and byte-verifies the
// result against the expected/ artifacts. The checkpoint resumes exactly as
// daemon recovery would: scenario machines already in the token are not
// re-simulated, sched runs replay-verify through the round barrier. Exit is
// non-zero on any divergence — the determinism contract makes "close" wrong.
// The replay runs under ec with the bundle's integrator.
func replayBundle(dir string, ec engine.Config, stdout, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintf(stderr, "dimctl: incident replay %s: %v\n", dir, err)
		return 1
	}
	raw, err := os.ReadFile(filepath.Join(dir, "bundle.json"))
	if err != nil {
		return fail(err)
	}
	var meta bundleMeta
	if err := json.Unmarshal(raw, &meta); err != nil {
		return fail(fmt.Errorf("decoding bundle.json: %w", err))
	}
	if meta.Version != bundleVersion {
		return fail(fmt.Errorf("bundle version %d, this dimctl speaks %d", meta.Version, bundleVersion))
	}
	// The integrator is part of the determinism contract: a bundle produced
	// under one integrator cannot be byte-verified under another. The bundle's
	// choice wins; an explicit conflicting -integrator is refused, not
	// silently overridden.
	if ec.Integrator != "" && meta.Integrator != "" && ec.Integrator != meta.Integrator {
		return fail(fmt.Errorf("bundle was recorded under integrator %q but -integrator forces %q; replay under the bundle's integrator", meta.Integrator, ec.Integrator))
	}
	if meta.Integrator != "" {
		ec.Integrator = meta.Integrator
		if err := ec.Validate(); err != nil {
			return fail(err)
		}
	}
	specRaw, err := os.ReadFile(filepath.Join(dir, "spec.json"))
	if err != nil {
		return fail(err)
	}
	spec, err := scenario.Decode(specRaw)
	if err != nil {
		return fail(fmt.Errorf("decoding spec.json: %w", err))
	}
	var cp service.JobCheckpoint
	if raw, err := os.ReadFile(filepath.Join(dir, "resume.json")); err == nil {
		if err := json.Unmarshal(raw, &cp); err != nil {
			return fail(fmt.Errorf("decoding resume.json: %w", err))
		}
	}

	var (
		rendered string
		files    []export.File
	)
	switch meta.Kind {
	case service.KindScenario:
		res, err := scenario.RunOpts(spec, meta.Scale, scenario.RunOptions{Completed: cp.Machines, Engine: ec})
		if err != nil {
			return fail(err)
		}
		rendered, files = res.String(), scenario.RenderResult(res)
	case service.KindSched:
		res, err := fleetsched.RunOpts(spec, meta.Policy, meta.Scale, fleetsched.Options{Resume: cp.Sched, Engine: ec})
		if err != nil {
			return fail(err)
		}
		if files, err = fleetsched.RenderResult(res); err != nil {
			return fail(err)
		}
		rendered = res.String()
	case service.KindSchedCompare:
		c, err := fleetsched.CompareOpts(spec, meta.Scale, fleetsched.Options{Engine: ec}, nil)
		if err != nil {
			return fail(err)
		}
		perRun, err := fleetsched.RenderResult(c.DefaultResult())
		if err != nil {
			return fail(err)
		}
		cmpFiles, err := fleetsched.RenderComparison(c)
		if err != nil {
			return fail(err)
		}
		rendered, files = c.String(), append(perRun, cmpFiles...)
	default:
		return fail(fmt.Errorf("kind %q is not replayable from a bundle (experiments re-run by ID: dimctl run %s)", meta.Kind, meta.Name))
	}

	resumeNote := ""
	if meta.Resumed > 0 {
		if meta.Kind == service.KindSched {
			resumeNote = fmt.Sprintf(", resumed from round %d", meta.Resumed)
		} else {
			resumeNote = fmt.Sprintf(", %d machine(s) from checkpoint", meta.Resumed)
		}
	}
	if !meta.Expected {
		fmt.Fprintf(stdout, "%s: replayed %s (%s%s); bundle carries no expected artifacts to verify\n",
			dir, meta.Job, meta.Kind, resumeNote)
		fmt.Fprint(stdout, rendered)
		return 0
	}
	if code := verifyReplay(dir, rendered, files, stderr); code != 0 {
		return code
	}
	fmt.Fprintf(stdout, "%s: replay byte-identical to snapshot %s (%s%s, %d file(s))\n",
		dir, shortHash(meta.SnapshotHash), meta.Kind, resumeNote, len(files))
	return 0
}

// verifyReplay byte-compares the replay's rendered report and files against
// the bundle's expected/ directory, both directions: a produced file missing
// from expected/ (or the reverse) is a divergence like any content mismatch.
func verifyReplay(dir, rendered string, files []export.File, stderr io.Writer) int {
	exp := filepath.Join(dir, "expected")
	divergent := func(name string) int {
		fmt.Fprintf(stderr, "dimctl: incident replay %s: DIVERGED on %s — replay is not byte-identical to the original run\n", dir, name)
		return 1
	}
	want, err := os.ReadFile(filepath.Join(exp, "output.txt"))
	if err != nil {
		fmt.Fprintf(stderr, "dimctl: incident replay %s: %v\n", dir, err)
		return 1
	}
	if !bytes.Equal(want, []byte(rendered)) {
		return divergent("output.txt")
	}
	produced := make(map[string]string, len(files))
	for _, f := range files {
		produced[filepath.Base(f.Name)] = f.Content
	}
	entries, err := os.ReadDir(exp)
	if err != nil {
		fmt.Fprintf(stderr, "dimctl: incident replay %s: %v\n", dir, err)
		return 1
	}
	seen := map[string]bool{}
	for _, e := range entries {
		if e.Name() == "output.txt" {
			continue
		}
		want, err := os.ReadFile(filepath.Join(exp, e.Name()))
		if err != nil {
			fmt.Fprintf(stderr, "dimctl: incident replay %s: %v\n", dir, err)
			return 1
		}
		got, ok := produced[e.Name()]
		if !ok || !bytes.Equal(want, []byte(got)) {
			return divergent(e.Name())
		}
		seen[e.Name()] = true
	}
	var missing []string
	for name := range produced {
		if !seen[name] {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return divergent(strings.Join(missing, ", ") + " (replay produced files the bundle lacks)")
	}
	return 0
}

// shortHash abbreviates a snapshot hash for display.
func shortHash(h string) string {
	if len(h) > 12 {
		return h[:12]
	}
	return h
}
