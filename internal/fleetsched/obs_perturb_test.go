package fleetsched

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/scenario"
)

// TestObservabilityNonPerturbing mirrors the scenario package's contract test
// over the cross-machine scheduler engine: a traced, telemetry-streaming run
// renders byte-identically to a silent one, for every scheduled library
// scenario. The scheduler engine is the hardest case — round-barrier
// spans interleave with the dispatch loop — so this is where a state-touching
// instrument would surface first.
func TestObservabilityNonPerturbing(t *testing.T) {
	const scale = 0.05
	covered := 0
	for _, name := range scenario.Names() {
		spec, _ := scenario.Get(name)
		if spec.Scheduler == nil {
			continue
		}
		covered++

		silent, err := RunOpts(spec, "", scale, Options{})
		if err != nil {
			t.Fatalf("%s: silent run: %v", name, err)
		}

		tr := obs.NewTracer()
		rounds := 0
		observed, err := RunOpts(spec, "", scale, Options{
			Trace:   tr,
			OnRound: func(RoundTelemetry) { rounds++ },
		})
		if err != nil {
			t.Fatalf("%s: observed run: %v", name, err)
		}

		if silent.String() != observed.String() {
			t.Errorf("%s: rendered output diverges with observability on", name)
		}
		a, err := RenderResult(silent)
		if err != nil {
			t.Fatal(err)
		}
		b, err := RenderResult(observed)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("%s: artefact count diverges: %d vs %d", name, len(a), len(b))
		}
		for i := range a {
			if a[i].Name != b[i].Name || a[i].Content != b[i].Content {
				t.Errorf("%s: artefact %s diverges with observability on", name, a[i].Name)
			}
		}
		if tr.Len() == 0 {
			t.Errorf("%s: traced run recorded no spans", name)
		}
		if rounds == 0 {
			t.Errorf("%s: round telemetry never fired", name)
		}
	}
	if covered == 0 {
		t.Fatal("no scheduled library scenarios found; the registry wiring broke")
	}
}
