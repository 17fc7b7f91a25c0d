package scenario

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/obs"
)

// TestObservabilityNonPerturbing pins the load-bearing contract of the obs
// layer: tracing and telemetry streaming read only the wall clock and
// already-computed metric-loop observables, never simulation state.
// Every library scenario must therefore produce byte-identical rendered
// output and CSV artefacts with full observability enabled and disabled —
// across both integrators and both fleet engines.
func TestObservabilityNonPerturbing(t *testing.T) {
	const scale = 0.02
	for _, name := range Names() {
		spec, _ := Get(name)
		if spec.Scheduler != nil {
			continue // scheduled scenarios: see the fleetsched mirror of this test
		}
		for _, integ := range []string{machine.IntegratorExact, machine.IntegratorLeap} {
			label := fmt.Sprintf("%s/%s", name, integ)

			ec := engine.Config{Integrator: integ}
			silent, err := RunOpts(spec, scale, RunOptions{Engine: ec})
			if err != nil {
				t.Fatalf("%s: silent run: %v", label, err)
			}

			tr := obs.NewTracer()
			rec := obs.NewFlightRecorder(256)
			tr.SetSink(func(name, cat string, durNS int64) {
				rec.Record("span", "", name, float64(durNS))
			})
			var samples, states atomic.Int64
			observed, err := RunOpts(spec, scale, RunOptions{
				Engine:         ec,
				Trace:          tr,
				TelemetryEvery: 1,
				OnTelemetry:    func(MachineSample) { samples.Add(1) },
				OnMachine:      func(MachineResult) {},
				OnState: func(i int, st machine.State) {
					states.Add(1)
					rec.Record("state", "", "machine", st.Now.Seconds())
				},
			})
			if err != nil {
				t.Fatalf("%s: observed run: %v", label, err)
			}

			if silent.String() != observed.String() {
				t.Errorf("%s: rendered output diverges with observability on", label)
			}
			if a, b := flattenFiles(silent), flattenFiles(observed); a != b {
				t.Errorf("%s: CSV artefacts diverge with observability on", label)
			}
			if tr.Len() == 0 {
				t.Errorf("%s: traced run recorded no spans", label)
			}
			if samples.Load() == 0 {
				t.Errorf("%s: telemetry hook never fired", label)
			}
			if states.Load() == 0 {
				t.Errorf("%s: machine-state observer never fired", label)
			}
			if rec.Total() == 0 {
				t.Errorf("%s: flight recorder captured nothing", label)
			}
		}
	}
}

func flattenFiles(r *Result) string {
	var out string
	for _, f := range RenderResult(r) {
		out += f.Name + "\n" + f.Content
	}
	return out
}
