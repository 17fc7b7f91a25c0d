package scenario

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/obs"
)

// replicatingSpec is a homogeneous, seed-insensitive fleet: identical fans
// and ambients put every machine in one group, and a workload and policy that
// never draw randomness license the engine's replication branch, which no
// library scenario reaches at the suite's scale.
func replicatingSpec(tb testing.TB, name, policy string) *Spec {
	tb.Helper()
	spec, err := Decode([]byte(`{
		"name": "` + name + `",
		"duration_s": 10,
		"fleet": {"machines": 8, "base_seed": 7},
		"machine": {"cores": 2},
		"policy": ` + policy + `,
		"workload": [{"kind": "burn", "threads": 2}]
	}`))
	if err != nil {
		tb.Fatal(err)
	}
	return spec
}

// equivalenceInput is one fleet the equivalence suite runs.
type equivalenceInput struct {
	name       string
	spec       *Spec
	scale      float64
	replicates bool // the engine must take the replication branch
}

// equivalenceInputs is every unscheduled library scenario at golden scale
// plus the replicating fleets, free-running and under deterministic
// Dimetrodon, at full scale.
func equivalenceInputs(t *testing.T) []equivalenceInput {
	var in []equivalenceInput
	for _, name := range Names() {
		spec, _ := Get(name)
		if spec.Scheduler != nil {
			// Coupled fleets are rejected; pinned by
			// TestBatchedSchedulerRejected.
			continue
		}
		in = append(in, equivalenceInput{name: name, spec: spec, scale: goldenScale})
	}
	for _, r := range []struct{ name, policy string }{
		{"replicate-burn", `{"kind": "none"}`},
		{"replicate-dimetrodon", `{"kind": "dimetrodon", "p": 0.5, "l_ms": 25, "deterministic": true}`},
	} {
		in = append(in, equivalenceInput{name: r.name, spec: replicatingSpec(t, r.name, r.policy), scale: 1, replicates: true})
	}
	return in
}

// stepArg reads one annotation off a traced run's scenario step span.
func stepArg(t *testing.T, tr *obs.Tracer, key string) int {
	t.Helper()
	for _, r := range tr.Records() {
		if r.Name == "step" && r.Cat == "scenario" {
			v, ok := r.Args[key].(int)
			if !ok {
				t.Fatalf("step span args %v carry no %q count", r.Args, key)
			}
			return v
		}
	}
	t.Fatal("traced run recorded no scenario step span")
	return 0
}

// TestBatchedMatchesPerMachine is the engine's equivalence suite: for every
// input fleet, both integrators, and both a serial and an 8-worker pool, Run,
// the union of RunShard ranges and RunMega's tiled aggregate must be
// byte-identical to the independent build-and-measure reference. This is the
// contract that makes grouping, ladder sharing and seed-invariant
// replication optimisations rather than a semantic fork.
func TestBatchedMatchesPerMachine(t *testing.T) {
	for _, in := range equivalenceInputs(t) {
		for _, integ := range []string{"exact", "leap"} {
			spec := in.spec.Clone()
			spec.Machine.Integrator = integ
			want := runReference(t, spec, in.scale)
			n := len(want.Machines)
			for _, jobs := range []int{1, 8} {
				t.Run(fmt.Sprintf("%s/%s/jobs%d", in.name, integ, jobs), func(t *testing.T) {
					ec := engine.Config{Jobs: jobs}
					tr := obs.NewTracer()
					got, err := RunOpts(spec, in.scale, RunOptions{Trace: tr, Engine: ec})
					if err != nil {
						t.Fatal(err)
					}
					if g, w := got.String(), want.String(); g != w {
						t.Errorf("engine output diverged from the reference at %d jobs:\n%s", jobs, firstDiff(w, g))
					}
					if !reflect.DeepEqual(got.Machines, want.Machines) {
						t.Errorf("engine per-machine results diverged from the reference at %d jobs", jobs)
					}
					if got.Fleet != want.Fleet {
						t.Errorf("engine fleet aggregate diverged:\n engine    %+v\n reference %+v", got.Fleet, want.Fleet)
					}
					if rep := stepArg(t, tr, "replicated"); in.replicates && rep == 0 {
						t.Error("homogeneous seed-insensitive fleet never took the replication branch")
					}

					cut := n / 3
					var union []MachineResult
					for _, r := range [][2]int{{0, cut}, {cut, n}} {
						if r[0] == r[1] {
							continue
						}
						part, err := RunShard(spec, in.scale, r[0], r[1], nil, RunOptions{Engine: ec})
						if err != nil {
							t.Fatalf("shard [%d,%d): %v", r[0], r[1], err)
						}
						union = append(union, part...)
					}
					if !reflect.DeepEqual(union, want.Machines) {
						t.Errorf("shard union diverged from the reference at %d jobs", jobs)
					}

					total := 2*n + 1
					mega, err := RunMega(spec, total, in.scale, ec)
					if err != nil {
						t.Fatal(err)
					}
					tiled := aggregateFrom(spec, total, func(i int) *MachineResult { return &want.Machines[i%n] })
					if mega.Fleet != tiled {
						t.Errorf("mega aggregate diverged from the tiled reference:\n mega      %+v\n reference %+v", mega.Fleet, tiled)
					}
				})
			}
		}
	}
}

// TestBatchedSchedulerRejected pins the scheduler-block contract: Run and
// the mega path refuse coupled fleets with the same error, pointing at the
// fleetsched engine.
func TestBatchedSchedulerRejected(t *testing.T) {
	// Mirror of the fleetsched library's sched-shootout, declared inline
	// because that library registers from its own package init, which
	// in-package tests here never import.
	spec := &Spec{
		Name:   "sched-shootout",
		Fleet:  FleetSpec{Machines: 12, BaseSeed: 8100, FanSpread: 0.4, AmbientSpreadC: 9},
		Policy: PolicySpec{Kind: PolicyDimetrodon, P: 0.35, LMS: 25},
		Scheduler: &SchedulerSpec{
			Policy: PlaceCoolestFirst,
			RoundS: 2,
			Jobs: []JobClassSpec{
				{Name: "batch", Rate: 0.55, Threads: 2, WorkS: 14, WorkSpread: 0.5},
			},
		},
		DurationS:  400,
		WarmupFrac: 0.1,
		ViolationC: 47,
	}
	_, errDirect := Run(spec, goldenScale)
	_, errMega := RunMega(spec, 10_000, goldenScale, engine.Config{})
	if errDirect == nil || errMega == nil {
		t.Fatalf("scheduler spec must be rejected on every path: direct=%v mega=%v", errDirect, errMega)
	}
	if !strings.Contains(errDirect.Error(), "fleetsched engine") {
		t.Errorf("rejection %q does not point at the fleetsched engine", errDirect)
	}
	if errMega.Error() != errDirect.Error() {
		t.Errorf("mega rejection %q differs from direct %q", errMega, errDirect)
	}
}

// TestRunMegaTilesExactly pins the tiled mega path against a materialised
// reference: aggregating the tiled accessor must equal aggregating an
// actually materialised tiled slice, and the summary must name both the
// tiled and the simulated fleet sizes.
func TestRunMegaTilesExactly(t *testing.T) {
	spec, ok := Get("multi-tenant")
	if !ok {
		t.Fatal("multi-tenant missing from the library")
	}
	const total = 1000
	mega, err := RunMega(spec, total, goldenScale, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	base := spec.Fleet.Machines
	if mega.Total != total || mega.Base != base {
		t.Fatalf("mega sizes = (%d, %d), want (%d, %d)", mega.Total, mega.Base, total, base)
	}

	br, err := Run(spec, goldenScale)
	if err != nil {
		t.Fatal(err)
	}
	tiled := make([]MachineResult, total)
	for i := range tiled {
		tiled[i] = br.Machines[i%base]
	}
	if want := aggregate(spec, tiled); mega.Fleet != want {
		t.Errorf("tiled-accessor aggregate diverged from materialised tiling:\n mega %+v\n want %+v", mega.Fleet, want)
	}
	if s := mega.String(); !strings.Contains(s, "mega fleet of 1000 machines (16 distinct simulated)") {
		t.Errorf("mega summary missing the tiling line:\n%s", s)
	}
	if _, err := RunMega(spec, base-1, goldenScale, engine.Config{}); err == nil {
		t.Error("RunMega must reject totals below the compiled fleet size")
	}
}

// TestBatchedTelemetryRunsEveryMachine pins the telemetry constraint on a
// fleet that would otherwise replicate: with a tap installed, replication
// stands down and every machine streams its own samples.
func TestBatchedTelemetryRunsEveryMachine(t *testing.T) {
	spec := replicatingSpec(t, "replicate-burn", `{"kind": "none"}`)
	var mu sync.Mutex
	seen := make(map[int]bool)
	tr := obs.NewTracer()
	res, err := RunOpts(spec, 1, RunOptions{
		Trace:          tr,
		TelemetryEvery: 5,
		OnTelemetry: func(s MachineSample) {
			mu.Lock()
			seen[s.Index] = true
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Machines {
		if !seen[i] {
			t.Errorf("machine %d produced no telemetry", i)
		}
	}
	if rep := stepArg(t, tr, "replicated"); rep != 0 {
		t.Errorf("%d machines replicated under a telemetry tap, want 0", rep)
	}
}

// TestOnStateFiresForEveryMachine pins the state observer on a fleet that
// would otherwise replicate: with only OnState installed, every index still
// delivers its own final thermal state exactly once, and the results stay
// identical to an unobserved run.
func TestOnStateFiresForEveryMachine(t *testing.T) {
	spec := replicatingSpec(t, "replicate-burn", `{"kind": "none"}`)
	var mu sync.Mutex
	calls := make(map[int]int)
	res, err := RunOpts(spec, 1, RunOptions{
		OnState: func(i int, _ machine.State) {
			mu.Lock()
			calls[i]++
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Machines {
		if calls[i] != 1 {
			t.Errorf("machine %d observed %d states, want 1", i, calls[i])
		}
	}
	silent, err := Run(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(silent.Machines, res.Machines) {
		t.Error("a state observer changed the per-machine results")
	}
}

// TestTracedRunRecordsMachineSpans pins the engine's trace layers: compile,
// step and aggregate spans, plus per-machine spans for the first machines.
func TestTracedRunRecordsMachineSpans(t *testing.T) {
	tr := obs.NewTracer()
	if _, err := RunOpts(mustGetT(t, "fleet-diurnal"), 0.02, RunOptions{Trace: tr}); err != nil {
		t.Fatal(err)
	}
	names := make(map[string]bool)
	for _, r := range tr.Records() {
		names[r.Name] = true
	}
	for _, want := range []string{"compile", "step", "aggregate", "machine-000"} {
		if !names[want] {
			t.Errorf("traced fleet run has no %q span", want)
		}
	}
}
