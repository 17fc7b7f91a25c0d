package scenario

import (
	"os"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/units"
)

func readFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestStarterLibraryRegistered(t *testing.T) {
	want := []string{"flash-crowd", "fleet-diurnal", "multi-tenant", "thermal-trojan", "throttle-storm"}
	got := Names()
	if len(got) < len(want) {
		t.Fatalf("registry has %v, want at least %v", got, want)
	}
	for _, name := range want {
		s, ok := Get(name)
		if !ok {
			t.Errorf("starter scenario %q not registered", name)
			continue
		}
		if err := s.Validate(); err != nil {
			t.Errorf("starter scenario %q invalid: %v", name, err)
		}
	}
	// Names must come back sorted for stable CLI listings.
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Errorf("Names() not sorted: %v", got)
		}
	}
}

func TestRegisterRejectsDuplicatesAndInvalid(t *testing.T) {
	valid := &Spec{
		Name:      "fleet-diurnal", // collides with the library
		Fleet:     FleetSpec{Machines: 1},
		Workload:  []ComponentSpec{{Kind: KindBurn}},
		DurationS: 10,
	}
	if err := Register(valid); err == nil {
		t.Error("duplicate registration accepted")
	}
	if err := Register(&Spec{Name: "bad"}); err == nil {
		t.Error("invalid spec registered")
	}
}

func TestValidateRejections(t *testing.T) {
	base := func() *Spec {
		return &Spec{
			Name:      "ok",
			Fleet:     FleetSpec{Machines: 2},
			Workload:  []ComponentSpec{{Kind: KindBurn}},
			DurationS: 10,
		}
	}
	cases := []struct {
		label string
		mut   func(*Spec)
	}{
		{"empty name", func(s *Spec) { s.Name = "" }},
		{"uppercase name", func(s *Spec) { s.Name = "Bad" }},
		{"zero machines", func(s *Spec) { s.Fleet.Machines = 0 }},
		{"huge fleet", func(s *Spec) { s.Fleet.Machines = MaxMachines + 1 }},
		{"negative duration", func(s *Spec) { s.DurationS = -1 }},
		{"no workload", func(s *Spec) { s.Workload = nil }},
		{"unknown kind", func(s *Spec) { s.Workload[0].Kind = "mystery" }},
		{"unknown benchmark", func(s *Spec) { s.Workload[0] = ComponentSpec{Kind: KindSpec, Benchmark: "mcf"} }},
		{"trojan duty", func(s *Spec) { s.Workload[0] = ComponentSpec{Kind: KindTrojan, PeriodMS: 60, Duty: 1.5} }},
		{"window backwards", func(s *Spec) {
			s.Workload[0].Arrival = ArrivalSpec{Pattern: ArrivalWindow, StartFrac: 0.8, EndFrac: 0.2}
		}},
		{"diurnal on periodic", func(s *Spec) {
			s.Workload[0] = ComponentSpec{Kind: KindPeriodic, BurstS: 1, PauseS: 1,
				Arrival: ArrivalSpec{Pattern: ArrivalDiurnal}}
		}},
		{"two webservers", func(s *Spec) {
			s.Workload = []ComponentSpec{{Kind: KindWebserver}, {Kind: KindWebserver}}
		}},
		{"policy p out of range", func(s *Spec) { s.Policy = PolicySpec{Kind: PolicyDimetrodon, P: 1.2, LMS: 10} }},
		{"unknown policy", func(s *Spec) { s.Policy = PolicySpec{Kind: "magic"} }},
	}
	for _, tc := range cases {
		s := base()
		tc.mut(s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.label)
		}
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("base spec invalid: %v", err)
	}
}

func TestMachineSeedIsPureAndSpread(t *testing.T) {
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		s := MachineSeed(42, i)
		if s != MachineSeed(42, i) {
			t.Fatal("MachineSeed not deterministic")
		}
		if seen[s] {
			t.Fatalf("seed collision at machine %d", i)
		}
		seen[s] = true
	}
	if MachineSeed(1, 0) == MachineSeed(2, 0) {
		t.Error("base seed does not reach the derivation")
	}
}

func TestCompileResolvesFanSpread(t *testing.T) {
	spec := &Spec{
		Name:      "spread",
		Fleet:     FleetSpec{Machines: 8, BaseSeed: 5, FanSpread: 0.5},
		Machine:   MachineSpec{FanFactor: 2},
		Workload:  []ComponentSpec{{Kind: KindBurn}},
		DurationS: 10,
	}
	trials := spec.Compile(1)
	distinct := map[float64]bool{}
	for _, tr := range trials {
		if tr.FanFactor < 2 || tr.FanFactor > 3 {
			t.Errorf("machine %d fan factor %v outside [2,3]", tr.Index, tr.FanFactor)
		}
		distinct[tr.FanFactor] = true
	}
	if len(distinct) < 4 {
		t.Errorf("fan spread produced only %d distinct factors", len(distinct))
	}
}

func TestRunSmallFleetEndToEnd(t *testing.T) {
	spec := &Spec{
		Name:  "mini",
		Fleet: FleetSpec{Machines: 3, BaseSeed: 11},
		Workload: []ComponentSpec{
			{Kind: KindBurn, Threads: 2},
		},
		Policy:     PolicySpec{Kind: PolicyDimetrodon, P: 0.5, LMS: 10},
		DurationS:  40,
		WarmupFrac: 0.25,
	}
	res, err := Run(spec, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Machines) != 3 {
		t.Fatalf("ran %d machines", len(res.Machines))
	}
	for _, m := range res.Machines {
		if m.MeanJunction <= m.IdleTemp {
			t.Errorf("machine %d mean %v not above idle %v under load", m.Index, m.MeanJunction, m.IdleTemp)
		}
		if m.PeakJunction < m.MeanJunction {
			t.Errorf("machine %d peak %v below mean %v", m.Index, m.PeakJunction, m.MeanJunction)
		}
		if m.Injections == 0 || m.InjectedIdleS <= 0 {
			t.Errorf("machine %d saw no injection under p=0.5", m.Index)
		}
		// p=0.5 L=10ms against the 100 ms timeslice stretches each
		// quantum by ≈ p/(1−p)·L: overhead lands near 10/110, with wide
		// per-seed variance on an underloaded machine.
		if f := m.OverheadFraction(); f < 0.02 || f > 0.3 {
			t.Errorf("machine %d overhead %v implausible for p=0.5 L=10ms", m.Index, f)
		}
	}
	if res.Fleet.TotalWorkRate <= 0 || res.Fleet.TotalPower <= 0 {
		t.Error("fleet totals empty")
	}
	if res.Fleet.MeanJunctionP50 > res.Fleet.MeanJunctionMax {
		t.Error("percentiles out of order")
	}
	out := res.String()
	for _, want := range []string{"Scenario mini", "fleet of 3 machines", "machine"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered output missing %q", want)
		}
	}
}

func TestFlashCrowdCarriesWebStats(t *testing.T) {
	res, err := RunByName("flash-crowd", 0.02, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fleet.WebMachines != len(res.Machines) {
		t.Fatalf("web stats on %d of %d machines", res.Fleet.WebMachines, len(res.Machines))
	}
	for _, m := range res.Machines {
		if m.Web == nil || m.Web.Completed == 0 {
			t.Fatalf("machine %d served no requests", m.Index)
		}
	}
	if !strings.Contains(res.String(), "web QoS") {
		t.Error("rendered output missing web QoS line")
	}
}

func TestWindowArrivalConfinesWork(t *testing.T) {
	// One machine, one thread, active only in the middle fifth: work done
	// must be ≈ windowFrac × duration, not the full run.
	spec := &Spec{
		Name:  "windowed",
		Fleet: FleetSpec{Machines: 1, BaseSeed: 3},
		Workload: []ComponentSpec{
			{Kind: KindBurn, Threads: 1,
				Arrival: ArrivalSpec{Pattern: ArrivalWindow, StartFrac: 0.4, EndFrac: 0.6}},
		},
		DurationS: 100,
	}
	res, err := Run(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	total := res.Machines[0].WorkRate * res.Duration.Seconds()
	if total < 15 || total > 25 {
		t.Errorf("windowed thread did %v ref-s over %v, want ≈20", total, res.Duration)
	}
}

func TestRunUnknownScenario(t *testing.T) {
	if _, err := RunByName("no-such-fleet", 1, engine.Config{}); err == nil {
		t.Error("unknown scenario ran")
	}
}

func TestScaleFloorsDuration(t *testing.T) {
	if got := scaleSeconds(0.0001, 300); got != 2*units.Second {
		t.Errorf("floor = %v, want 2s", got)
	}
	if got := scaleSeconds(1, 300); got != 300*units.Second {
		t.Errorf("full scale = %v", got)
	}
}
