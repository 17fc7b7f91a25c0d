package experiments

import (
	"math"
	"strings"
	"testing"

	"repro/internal/engine"
)

func TestAdaptiveControlShape(t *testing.T) {
	// The PI loop needs a few package time constants per phase to settle,
	// so this runs at a larger scale than the other integration tests.
	res := RunAdaptiveControl(0.5, engine.Config{})
	if len(res.Phases) != 3 {
		t.Fatalf("phases = %d", len(res.Phases))
	}
	heavy, light, heavy2 := res.Phases[0], res.Phases[1], res.Phases[2]
	// The controller works hard in heavy phases and backs off in the
	// light phase.
	if heavy.MeanP < 0.2 {
		t.Errorf("heavy-phase p = %v", heavy.MeanP)
	}
	if light.MeanP > heavy.MeanP/2 {
		t.Errorf("light-phase p = %v did not back off from %v", light.MeanP, heavy.MeanP)
	}
	if heavy2.MeanP < 0.2 {
		t.Errorf("controller failed to re-engage: p = %v", heavy2.MeanP)
	}
	// Held near target in the heavy phases (DTS-quantised observable).
	for _, ph := range []AdaptivePhase{heavy, heavy2} {
		if math.Abs(ph.TargetErr) > 3 {
			t.Errorf("%s: target error %vC", ph.Name, ph.TargetErr)
		}
	}
	if !strings.Contains(res.String(), "adaptive setpoint") {
		t.Error("String output incomplete")
	}
}

func TestEmergencyScenarioShape(t *testing.T) {
	// The degraded heatsink needs ~2 minutes of virtual time to reach the
	// trip point, so this test runs at a larger scale.
	res := RunEmergencyScenario(0.6, engine.Config{})
	if len(res.Arms) != 2 {
		t.Fatalf("arms = %d", len(res.Arms))
	}
	reactive, preventive := res.Arms[0], res.Arms[1]
	// Under the degraded fan, the reactive backstop must actually fire...
	if reactive.Trips == 0 {
		t.Error("TM1 never tripped under cooling failure")
	}
	if reactive.Throttled == 0 {
		t.Error("no throttled time recorded")
	}
	// ...while preventive control keeps it dormant.
	if preventive.Trips != 0 {
		t.Errorf("preventive arm tripped TM1 %d times", preventive.Trips)
	}
	// The preventive arm runs cooler on average.
	if preventive.MeanJunction >= reactive.MeanJunction {
		t.Errorf("preventive mean %v not below reactive %v",
			preventive.MeanJunction, reactive.MeanJunction)
	}
	// Neither arm exceeds the trip point by more than the monitor's
	// reaction granularity.
	for _, a := range res.Arms {
		if float64(a.PeakJunction) > float64(res.Trip)+3 {
			t.Errorf("%s: peak %v far above trip %v", a.Name, a.PeakJunction, res.Trip)
		}
	}
}

func TestULEComparisonShape(t *testing.T) {
	res := RunULEComparison(itScale, engine.Config{})
	if len(res.Points) == 0 {
		t.Fatal("no points")
	}
	// Footnote 2: the mechanism generalises — trade-offs agree between
	// scheduler organisations within probabilistic noise.
	for _, p := range res.Points {
		if math.Abs(p.BSD.TempRed-p.ULE.TempRed) > 0.05 {
			t.Errorf("%s: r differs across schedulers: %v vs %v",
				p.Label, p.BSD.TempRed, p.ULE.TempRed)
		}
		if math.Abs(p.BSD.PerfRed-p.ULE.PerfRed) > 0.05 {
			t.Errorf("%s: T differs across schedulers: %v vs %v",
				p.Label, p.BSD.PerfRed, p.ULE.PerfRed)
		}
	}
}

func TestSMTCoSchedulingShape(t *testing.T) {
	res := RunSMTCoScheduling(itScale, engine.Config{})
	if len(res.Points) == 0 {
		t.Fatal("no points")
	}
	// SMT yield: 8 contexts at the configured per-context rate.
	if res.BaselineRate < 4.5 || res.BaselineRate > 5.5 {
		t.Errorf("SMT baseline rate = %v, want ≈4.96", res.BaselineRate)
	}
	for _, p := range res.Points {
		if p.ForcedIdles == 0 {
			t.Errorf("%s: no gang idles", p.Label)
		}
		// Co-scheduling achieves more cooling than naive injection at
		// the same policy setting.
		if p.CoSch.TempRed <= p.Naive.TempRed {
			t.Errorf("%s: co-scheduled r=%v not above naive r=%v",
				p.Label, p.CoSch.TempRed, p.Naive.TempRed)
		}
		// And naive injection is not worthwhile (≈1:1 or below): the
		// §3.2 problem this extension exists to show.
		if p.Naive.Efficiency > 1.2 {
			t.Errorf("%s: naive SMT efficiency %v unexpectedly good",
				p.Label, p.Naive.Efficiency)
		}
	}
	// At least the short-quantum settings should be clearly worthwhile
	// once co-scheduled.
	if res.Points[0].CoSch.Efficiency < 1.3 {
		t.Errorf("co-scheduled short-quantum efficiency %v too low",
			res.Points[0].CoSch.Efficiency)
	}
}
