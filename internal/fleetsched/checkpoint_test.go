package fleetsched

import (
	"encoding/json"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/scenario"
	"repro/internal/units"
)

func mustSpec(t *testing.T, name string) *scenario.Spec {
	t.Helper()
	spec, ok := scenario.Get(name)
	if !ok {
		t.Fatalf("scenario %q not registered", name)
	}
	return spec
}

func resultJSON(t *testing.T, res *Result) string {
	t.Helper()
	raw, err := json.Marshal(struct {
		Rendered string
		Machines []MachineStats
	}{res.String(), res.Machines})
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// Checkpoint capture must not perturb the run: results with checkpointing on
// are byte-identical to results with it off, at every capture cadence.
func TestCheckpointingDoesNotPerturb(t *testing.T) {
	spec := mustSpec(t, "hotspot-herd") // migration enabled: the most stateful path
	base, err := RunOpts(spec, "", 0.02, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := resultJSON(t, base)
	for _, every := range []int{1, 3} {
		var cps []Checkpoint
		res, err := RunOpts(spec, "", 0.02, Options{
			CheckpointEvery: every,
			OnCheckpoint:    func(cp Checkpoint) { cps = append(cps, cp) },
		})
		if err != nil {
			t.Fatal(err)
		}
		if resultJSON(t, res) != want {
			t.Fatalf("CheckpointEvery=%d perturbed the run", every)
		}
		if len(cps) == 0 {
			t.Fatalf("CheckpointEvery=%d captured no checkpoints", every)
		}
		for i, cp := range cps {
			if cp.Round%every != 0 {
				t.Fatalf("checkpoint %d at round %d, cadence %d", i, cp.Round, every)
			}
			if len(cp.Digest) != 64 {
				t.Fatalf("checkpoint %d digest %q is not a sha256 hex", i, cp.Digest)
			}
		}
	}
}

// Resuming from any checkpoint must reproduce the uninterrupted run exactly,
// emit telemetry only for rounds past the checkpoint, and re-derive identical
// later checkpoints.
func TestResumeReproducesRun(t *testing.T) {
	spec := mustSpec(t, "hotspot-herd")
	var cps []Checkpoint
	var rounds []int
	base, err := RunOpts(spec, "", 0.02, Options{
		CheckpointEvery: 2,
		OnCheckpoint:    func(cp Checkpoint) { cps = append(cps, cp) },
		OnRound:         func(rt RoundTelemetry) { rounds = append(rounds, rt.Round) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cps) < 3 {
		t.Fatalf("want ≥3 checkpoints to resume from, got %d", len(cps))
	}
	want := resultJSON(t, base)
	totalRounds := len(rounds)

	for _, pick := range []int{0, len(cps) / 2, len(cps) - 1} {
		cp := cps[pick]
		var resumedRounds []int
		var laterCPs []Checkpoint
		res, err := RunOpts(spec, "", 0.02, Options{
			CheckpointEvery: 2,
			OnCheckpoint:    func(c Checkpoint) { laterCPs = append(laterCPs, c) },
			OnRound:         func(rt RoundTelemetry) { resumedRounds = append(resumedRounds, rt.Round) },
			Resume:          &cp,
		})
		if err != nil {
			t.Fatalf("resume from round %d: %v", cp.Round, err)
		}
		if got := resultJSON(t, res); got != want {
			t.Fatalf("resume from round %d diverged from the uninterrupted run", cp.Round)
		}
		if len(resumedRounds) != totalRounds-cp.Round-1 {
			t.Fatalf("resume from round %d emitted %d rounds, want %d", cp.Round, len(resumedRounds), totalRounds-cp.Round-1)
		}
		if len(resumedRounds) > 0 && resumedRounds[0] != cp.Round+1 {
			t.Fatalf("resume from round %d: first telemetry at round %d", cp.Round, resumedRounds[0])
		}
		// Checkpoints taken after the resume point must match the originals.
		for _, later := range laterCPs {
			if later.Round <= cp.Round {
				t.Fatalf("resume re-captured checkpoint for replayed round %d", later.Round)
			}
			orig := cps[later.Round/2]
			if orig != later {
				t.Fatalf("re-derived checkpoint at round %d differs:\n  orig  %+v\n  again %+v", later.Round, orig, later)
			}
		}
	}
}

// Any mismatch between the checkpoint and the replayed fleet must abort the
// resume with a descriptive error, never continue silently.
func TestResumeDetectsDivergence(t *testing.T) {
	spec := mustSpec(t, "sched-shootout")
	var cps []Checkpoint
	if _, err := RunOpts(spec, "", 0.02, Options{
		CheckpointEvery: 2,
		OnCheckpoint:    func(cp Checkpoint) { cps = append(cps, cp) },
	}); err != nil {
		t.Fatal(err)
	}
	cp := cps[len(cps)/2]

	tampered := cp
	tampered.Digest = "bogus"
	if _, err := RunOpts(spec, "", 0.02, Options{Resume: &tampered}); err == nil {
		t.Fatal("tampered digest resumed without error")
	} else if !strings.Contains(err.Error(), "divergence") {
		t.Fatalf("tampered digest error: %v", err)
	}

	wrongCursor := cp
	wrongCursor.Cursor++
	if _, err := RunOpts(spec, "", 0.02, Options{Resume: &wrongCursor}); err == nil {
		t.Fatal("wrong cursor resumed without error")
	} else if !strings.Contains(err.Error(), "cursor") {
		t.Fatalf("wrong cursor error: %v", err)
	}

	// A different policy replays a genuinely different run; the digest gate
	// must catch it even when the counters happen to line up.
	if _, err := RunOpts(spec, scenario.PlaceRandom, 0.02, Options{Resume: &cp}); err == nil {
		t.Fatal("resume under a different policy did not error")
	}

	beyond := cp
	beyond.Round = 10_000
	if _, err := RunOpts(spec, "", 0.02, Options{Resume: &beyond}); err == nil {
		t.Fatal("out-of-range checkpoint round resumed without error")
	} else if !strings.Contains(err.Error(), "barriers") {
		t.Fatalf("out-of-range round error: %v", err)
	}
}

// digestNodes is a fixed two-node fleet ledger for the fleet-digest tests;
// machine state enters only through the precomputed machine digests.
func digestNodes() []*node {
	mk := func(i int) *node {
		return &node{
			idx: i, measuring: true, peak: 71.5 + float64(i), violationS: 0.25, violations: 2,
			ewma: 64.125, injFrac: 0.3, pendingWorkS: 12.5,
			placed: 4, completed: 3, migratedIn: 1, migratedOut: 1,
			jobs: []*Job{
				{ID: 10 + i, Machine: i, Migrations: 1, DispatchAt: 2 * units.Second, assigned: []float64{1.5, 2.5}},
				{ID: 20 + i, Machine: i, done: true, DoneAt: 3 * units.Second, DispatchAt: units.Second, assigned: []float64{0.5}},
			},
		}
	}
	return []*node{mk(0), mk(1)}
}

// Every field the fleet digest folds must move it: the barrier counters, each
// node's machine digest, violation accounting, placement signals and
// counters, and each job-ledger field.
func TestDigestCoversFleetFields(t *testing.T) {
	type args struct {
		round, cursor, dispatched, migrations int
		now                                   units.Time
		nodes                                 []*node
		machines                              []string
	}
	fixture := func() args {
		return args{round: 6, cursor: 14, dispatched: 12, migrations: 2, now: 3 * units.Second,
			nodes: digestNodes(), machines: []string{"ab", "c"}}
	}
	sum := func(a args) string {
		return fleetDigest(a.round, a.now, a.nodes, a.machines, a.cursor, a.dispatched, a.migrations)
	}
	// Pinned, so a change to the encoding is made on purpose (DESIGN.md §12).
	const pinned = "36e567673150775487b08efd27a73e214f9ef5fc8dc916d075bbbe9b11ec5429"
	want := sum(fixture())
	if want != pinned {
		t.Errorf("fleet digest of the fixed ledger = %s, pinned %s", want, pinned)
	}
	for name, edit := range map[string]func(a *args){
		"round":              func(a *args) { a.round++ },
		"now":                func(a *args) { a.now++ },
		"cursor":             func(a *args) { a.cursor++ },
		"dispatched":         func(a *args) { a.dispatched++ },
		"migrations":         func(a *args) { a.migrations++ },
		"node count":         func(a *args) { a.nodes, a.machines = a.nodes[:1], a.machines[:1] },
		"machine digest":     func(a *args) { a.machines[1] = "d" },
		"digest boundary":    func(a *args) { a.machines = []string{"a", "bc"} },
		"measuring":          func(a *args) { a.nodes[1].measuring = false },
		"over":               func(a *args) { a.nodes[1].over = true },
		"peak":               func(a *args) { a.nodes[1].peak = math.Nextafter(a.nodes[1].peak, 100) },
		"violation seconds":  func(a *args) { a.nodes[1].violationS += 1e-12 },
		"violations":         func(a *args) { a.nodes[1].violations++ },
		"EWMA":               func(a *args) { a.nodes[1].ewma += 1e-12 },
		"injected fraction":  func(a *args) { a.nodes[1].injFrac += 1e-12 },
		"pending work":       func(a *args) { a.nodes[1].pendingWorkS += 1e-12 },
		"placed":             func(a *args) { a.nodes[1].placed++ },
		"completed":          func(a *args) { a.nodes[1].completed++ },
		"migrated in":        func(a *args) { a.nodes[1].migratedIn++ },
		"migrated out":       func(a *args) { a.nodes[1].migratedOut++ },
		"job count":          func(a *args) { a.nodes[1].jobs = a.nodes[1].jobs[:1] },
		"job ID":             func(a *args) { a.nodes[1].jobs[1].ID++ },
		"job machine":        func(a *args) { a.nodes[1].jobs[1].Machine++ },
		"job migrations":     func(a *args) { a.nodes[1].jobs[1].Migrations++ },
		"job done":           func(a *args) { a.nodes[1].jobs[0].done = true },
		"job done at":        func(a *args) { a.nodes[1].jobs[1].DoneAt++ },
		"job dispatch at":    func(a *args) { a.nodes[1].jobs[1].DispatchAt++ },
		"job assigned count": func(a *args) { a.nodes[1].jobs[0].assigned = a.nodes[1].jobs[0].assigned[:1] },
		"job Assigned[i]":    func(a *args) { a.nodes[1].jobs[0].assigned[1] += 1e-12 },
	} {
		a := fixture()
		edit(&a)
		if sum(a) == want {
			t.Errorf("changing %s left the fleet digest unchanged", name)
		}
	}
}

// Checkpoint digests are computed on the run's workers; the sequence a run
// emits must not depend on how many there are.
func TestCheckpointDigestsInvariantAcrossJobs(t *testing.T) {
	spec := mustSpec(t, "hotspot-herd")
	capture := func(jobs int) []Checkpoint {
		var cps []Checkpoint
		if _, err := RunOpts(spec, "", 0.02, Options{
			CheckpointEvery: 1,
			OnCheckpoint:    func(cp Checkpoint) { cps = append(cps, cp) },
			Engine:          engine.Config{Jobs: jobs},
		}); err != nil {
			t.Fatal(err)
		}
		return cps
	}
	serial, parallel := capture(1), capture(8)
	if len(serial) < 3 {
		t.Fatalf("want ≥3 checkpoints, got %d", len(serial))
	}
	if !slices.Equal(serial, parallel) {
		t.Fatalf("checkpoint sequences differ between jobs 1 and 8:\n  jobs=1 %+v\n  jobs=8 %+v", serial, parallel)
	}
}
