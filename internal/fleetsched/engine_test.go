package fleetsched

import (
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/units"
)

const testScale = 0.05

func getSpec(t *testing.T, name string) *scenario.Spec {
	t.Helper()
	spec, ok := scenario.Get(name)
	if !ok {
		t.Fatalf("scenario %q not registered", name)
	}
	return spec
}

func TestGenJobsDeterministicAndOrdered(t *testing.T) {
	spec := getSpec(t, "sched-shootout")
	dur := units.FromSeconds(20)
	a := genJobs(spec, dur, rng.New(spec.Fleet.BaseSeed+dispatchSeedSalt))
	b := genJobs(spec, dur, rng.New(spec.Fleet.BaseSeed+dispatchSeedSalt))
	if len(a) == 0 {
		t.Fatal("no jobs generated")
	}
	if len(a) != len(b) {
		t.Fatalf("job counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].ArriveAt != b[i].ArriveAt || a[i].WorkS != b[i].WorkS {
			t.Fatalf("job %d differs between identical generations", i)
		}
		if i > 0 && a[i].ArriveAt < a[i-1].ArriveAt {
			t.Fatalf("jobs out of arrival order at %d", i)
		}
		if a[i].ID != i {
			t.Fatalf("job %d has ID %d", i, a[i].ID)
		}
		if a[i].ArriveAt >= dur {
			t.Fatalf("job %d arrives at %v, past duration %v", i, a[i].ArriveAt, dur)
		}
	}
}

func TestGenJobsScaleInvariantExpectation(t *testing.T) {
	// The expected job count is Rate x DurationS regardless of scale; with
	// the same dispatcher seed the realised counts at two scales should be
	// close (they are different Poisson draws over rescaled rates).
	spec := getSpec(t, "sched-shootout")
	small := genJobs(spec, units.FromSeconds(spec.DurationS*0.05), rng.New(1))
	full := genJobs(spec, units.FromSeconds(spec.DurationS*0.5), rng.New(1))
	expected := spec.Scheduler.Jobs[0].Rate * spec.DurationS
	for _, n := range []int{len(small), len(full)} {
		if float64(n) < 0.7*expected || float64(n) > 1.3*expected {
			t.Fatalf("job count %d far from scale-invariant expectation %.0f", n, expected)
		}
	}
}

func TestGenJobsWindowEnvelopeConfinesArrivals(t *testing.T) {
	spec := getSpec(t, "hotspot-herd")
	dur := units.FromSeconds(15)
	jobs := genJobs(spec, dur, rng.New(9))
	if len(jobs) == 0 {
		t.Fatal("no herd jobs generated")
	}
	start := units.FromSeconds(dur.Seconds() * 0.3)
	end := units.FromSeconds(dur.Seconds() * 0.6)
	for _, j := range jobs {
		if j.ArriveAt < start || j.ArriveAt >= end {
			t.Fatalf("herd job arrives at %v outside window [%v,%v)", j.ArriveAt, start, end)
		}
	}
}

func TestRunJobAccountingConsistent(t *testing.T) {
	res, err := RunByName("sched-shootout", "", testScale, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	p := res.Placement
	if p.JobsArrived == 0 || p.JobsDispatched == 0 || p.JobsCompleted == 0 {
		t.Fatalf("empty run: %+v", p)
	}
	if p.JobsDispatched > p.JobsArrived || p.JobsCompleted > p.JobsDispatched {
		t.Fatalf("inconsistent job funnel: %+v", p)
	}
	var placed, completed int
	for _, m := range res.Machines {
		placed += m.JobsPlaced
		completed += m.JobsCompleted
	}
	// Without migration, per-machine placement sums match the fleet funnel.
	if placed != p.JobsDispatched || completed != p.JobsCompleted {
		t.Fatalf("machine sums (placed %d, done %d) != fleet (%d, %d)",
			placed, completed, p.JobsDispatched, p.JobsCompleted)
	}
	for _, j := range res.Jobs {
		if j.Machine >= 0 && j.DispatchAt < j.ArriveAt {
			t.Fatalf("job %d dispatched before arrival", j.ID)
		}
		if j.done {
			if j.DoneAt <= j.ArriveAt {
				t.Fatalf("job %d done at %v, arrived %v", j.ID, j.DoneAt, j.ArriveAt)
			}
			if s := j.Slowdown(); s < 1 {
				t.Fatalf("job %d slowdown %v < 1 (faster than ideal)", j.ID, s)
			}
		}
	}
	if p.SlowdownMean < 1 || p.SlowdownP95 < p.SlowdownMean*0.5 {
		t.Fatalf("implausible slowdowns: %+v", p)
	}
}

func TestRunMigrationConservesJobs(t *testing.T) {
	res, err := RunByName("hotspot-herd", "", testScale, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Placement.Migrations == 0 {
		t.Fatal("hotspot-herd produced no migrations; the migration loop never fired")
	}
	var in, out int
	for _, m := range res.Machines {
		in += m.MigratedIn
		out += m.MigratedOut
	}
	if in != out || in != res.Placement.Migrations {
		t.Fatalf("migration ledger broken: in %d, out %d, fleet %d", in, out, res.Placement.Migrations)
	}
	// Migrated jobs must still complete with their work conserved: every
	// dispatched job either completes or is still resident, never lost.
	migrated, migratedDone := 0, 0
	for _, j := range res.Jobs {
		if j.Migrations > 0 {
			migrated++
			if j.done {
				migratedDone++
			}
		}
	}
	if migrated == 0 {
		t.Fatal("no job records a migration despite fleet migrations")
	}
	if migratedDone == 0 {
		t.Fatal("no migrated job ever completed")
	}
}

func TestRunPolicyOverrideChangesPlacement(t *testing.T) {
	spec := getSpec(t, "sched-shootout")
	random, err := Run(spec, scenario.PlaceRandom, testScale)
	if err != nil {
		t.Fatal(err)
	}
	coolest, err := Run(spec, scenario.PlaceCoolestFirst, testScale)
	if err != nil {
		t.Fatal(err)
	}
	if random.String() == coolest.String() {
		t.Fatal("random and coolest-first produced identical runs; policy not applied")
	}
	if random.Policy != scenario.PlaceRandom || coolest.Policy != scenario.PlaceCoolestFirst {
		t.Fatalf("policies recorded as %q/%q", random.Policy, coolest.Policy)
	}
}

func TestThermalAwarePoliciesReduceViolations(t *testing.T) {
	// The acceptance property: on sched-shootout, coolest-first and
	// headroom each beat random and round-robin on thermal violations.
	c, err := CompareByName("sched-shootout", testScale, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	viol := map[string]int{}
	for _, r := range c.Results {
		viol[r.Policy] = r.Fleet.TotalViolations
	}
	for _, aware := range []string{scenario.PlaceCoolestFirst, scenario.PlaceHeadroom} {
		for _, naive := range []string{scenario.PlaceRandom, scenario.PlaceRoundRobin} {
			if viol[aware] >= viol[naive] {
				t.Errorf("%s (%d violations) does not beat %s (%d)",
					aware, viol[aware], naive, viol[naive])
			}
		}
	}
	if viol[scenario.PlaceRandom] == 0 {
		t.Error("random placement shows no violations; scenario lost its thermal contrast")
	}
}

func TestRunWebserverScenarioReportsQoS(t *testing.T) {
	res, err := RunByName("colo-spill", "", testScale, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fleet.WebMachines != res.Spec.Fleet.Machines {
		t.Fatalf("web machines = %d, want %d", res.Fleet.WebMachines, res.Spec.Fleet.Machines)
	}
	if res.Fleet.WebGoodMean <= 0 || res.Fleet.WebThroughput <= 0 {
		t.Fatalf("web QoS empty: %+v", res.Fleet)
	}
}

func TestRunRejectsUnscheduledScenario(t *testing.T) {
	_, err := RunByName("fleet-diurnal", "", testScale, engine.Config{})
	if err == nil || !strings.Contains(err.Error(), "no scheduler block") {
		t.Fatalf("err = %v, want scheduler-block guidance", err)
	}
}

func TestRunUnknownPolicyError(t *testing.T) {
	_, err := RunByName("sched-shootout", "warmest-first", testScale, engine.Config{})
	if err == nil || !strings.Contains(err.Error(), "valid:") {
		t.Fatalf("err = %v, want valid-name listing", err)
	}
}

func TestComparisonCSVShape(t *testing.T) {
	c, err := CompareByName("sched-shootout", 0.02, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	csv, err := c.CSV()
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(csv, "\n"), "\n")
	if len(lines) != 1+len(Names()) {
		t.Fatalf("CSV has %d lines, want header + %d policies", len(lines), len(Names()))
	}
	if !strings.HasPrefix(lines[0], "policy,violations,") {
		t.Fatalf("CSV header = %q", lines[0])
	}
	for i, name := range Names() {
		if !strings.HasPrefix(lines[i+1], name+",") {
			t.Fatalf("CSV row %d = %q, want policy %q first", i+1, lines[i+1], name)
		}
	}
}
