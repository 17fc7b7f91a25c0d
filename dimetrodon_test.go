package dimetrodon

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
)

func TestQuickstartPath(t *testing.T) {
	// The README's quickstart: build a testbed, inject, measure.
	tb := NewTestbed(TestbedConfig{Seed: 1})
	if err := tb.InstallGlobalPolicy(Policy{P: 0.5, L: 50 * Millisecond}); err != nil {
		t.Fatal(err)
	}
	tb.SpawnBurn("burn", 4)
	tb.Run(20 * Second)
	if tb.Now() != 20*Second {
		t.Errorf("Now = %v", tb.Now())
	}
	work := tb.WorkDone()
	// p=0.5, L=50ms, q=100ms ⇒ throughput fraction 1/(1+0.5) = 2/3.
	want := 4.0 * 20 * 2 / 3
	if math.Abs(work-want)/want > 0.1 {
		t.Errorf("work %v, model predicts ≈%v", work, want)
	}
	if tb.MeanJunctionTemp() <= tb.IdleTemp() {
		t.Error("burning testbed not hotter than idle")
	}
	if tb.MeanPower() < 20 || tb.MeanPower() > 90 {
		t.Errorf("mean power %v implausible", tb.MeanPower())
	}
}

func TestUnconstrainedHotterThanInjected(t *testing.T) {
	run := func(p float64) Celsius {
		tb := NewTestbed(TestbedConfig{Seed: 2})
		if p > 0 {
			if err := tb.InstallGlobalPolicy(Policy{P: p, L: 100 * Millisecond}); err != nil {
				t.Fatal(err)
			}
		}
		tb.SpawnBurn("burn", 4)
		tb.Run(60 * Second)
		return tb.MeanJunctionTemp()
	}
	unconstrained := run(0)
	injected := run(0.75)
	if injected >= unconstrained {
		t.Errorf("p=0.75 (%v) not cooler than unconstrained (%v)", injected, unconstrained)
	}
}

func TestProcessPolicy(t *testing.T) {
	tb := NewTestbed(TestbedConfig{Seed: 3})
	if err := tb.InstallProcessPolicy(1, Policy{P: 0.75, L: 100 * Millisecond}); err != nil {
		t.Fatal(err)
	}
	if err := tb.SpawnSpec("calculix", 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := tb.SpawnSpec("astar", 2, 2); err != nil {
		t.Fatal(err)
	}
	tb.Run(30 * Second)
	// Process 1 is slowed; process 2 runs at full speed.
	w1 := tb.M.ProcessWorkDone(1)
	w2 := tb.M.ProcessWorkDone(2)
	if w2 < 55 { // 2 threads × 30 s, minus noise
		t.Errorf("unmanaged process slowed: %v", w2)
	}
	if w1 > 0.6*w2 {
		t.Errorf("managed process not slowed: %v vs %v", w1, w2)
	}
}

func TestSpawnSpecUnknown(t *testing.T) {
	tb := NewTestbed(TestbedConfig{})
	if err := tb.SpawnSpec("nonexistent", 1, 1); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestInvalidPolicyRejected(t *testing.T) {
	tb := NewTestbed(TestbedConfig{})
	if err := tb.InstallGlobalPolicy(Policy{P: 1.5, L: Millisecond}); err == nil {
		t.Error("invalid policy accepted")
	}
	if err := tb.InstallProcessPolicy(1, Policy{P: -1, L: Millisecond}); err == nil {
		t.Error("invalid process policy accepted")
	}
}

func TestExperimentRegistry(t *testing.T) {
	ids := ExperimentIDs()
	if !sort.StringsAreSorted(ids) {
		t.Error("ExperimentIDs not sorted")
	}
	// One harness per paper artefact plus four ablations and the two
	// future-work extensions (§2.1 online adjustment, §3.2 SMT).
	want := []string{
		"abl-cstate", "abl-deterministic", "abl-hotspot", "abl-kernel", "abl-leakage",
		"ext-adaptive", "ext-emergency", "ext-smt", "ext-ule",
		"fig1", "fig2", "fig3", "fig4", "fig5", "fig6",
		"table1", "val-energy", "val-throughput",
	}
	if len(ids) != len(want) {
		t.Fatalf("ids = %v", ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Errorf("ids[%d] = %q, want %q", i, ids[i], want[i])
		}
	}
	for i, e := range Experiments {
		if e.ID != ids[i] || e.Title == "" || e.Summary == "" || e.Run == nil {
			t.Errorf("experiment %q incomplete", e.ID)
		}
	}
}

func TestExportCoversRegistry(t *testing.T) {
	// Every registered experiment must have a CSV export path.
	dir := t.TempDir()
	for _, id := range ExperimentIDs() {
		// Tiny scale: we only check the path exists, shapes are
		// covered elsewhere. Skip the slowest harnesses here.
		switch id {
		case "table1", "fig4", "fig5", "val-throughput":
			continue
		}
		paths, err := Export(id, 0.02, dir, Engine{})
		if err != nil {
			t.Errorf("Export(%s): %v", id, err)
			continue
		}
		if len(paths) == 0 {
			t.Errorf("Export(%s) wrote no files", id)
		}
	}
}

func TestExperimentRunsToWriter(t *testing.T) {
	e, _ := LookupExperiment("fig1")
	var b strings.Builder
	if _, err := fmt.Fprintln(&b, e.Run(0.25, Engine{})); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "Figure 1") {
		t.Errorf("fig1 output = %q...", b.String()[:60])
	}
}

func TestDeterministicPolicyVariant(t *testing.T) {
	tb := NewTestbed(TestbedConfig{Seed: 4})
	if err := tb.InstallGlobalPolicy(Policy{P: 0.5, L: 50 * Millisecond, Deterministic: true}); err != nil {
		t.Fatal(err)
	}
	tb.SpawnBurn("burn", 1)
	tb.Run(10 * Second)
	rate := tb.Ctl.InjectionRate()
	if math.Abs(rate-0.5) > 0.02 {
		t.Errorf("deterministic injection rate = %v", rate)
	}
}
