// Package obs is the stack's observability layer: a metrics registry
// (counters, gauges, fixed-bucket histograms) with Prometheus text
// exposition, and span-based tracing exportable as Chrome trace-event JSON.
// A daemon job's own spans are its one timing record: the trace shows them,
// and the daemon folds them into per-layer counters when the job ends.
//
// The package-wide contract, load-bearing for the whole repository, is
// NON-PERTURBATION: nothing in this package ever touches simulation state.
// Every instrument reads only the wall clock and values the instrumented
// code already computed on its silent path — never a thermal flush, an
// energy read, or any other measurement the unobserved run would not
// perform. Enabling all of it therefore leaves every golden and scenario
// export byte-identical to the disabled path; the non-perturbation test in
// internal/scenario pins exactly that.
//
// Disabled-cost matters as much: a nil *Tracer no-ops every span call, and
// no instrument sits inside the thermal step kernel itself (spans wrap the
// metric-tick loop around it), so the hot step loop's benchmarks are
// unaffected.
package obs

// EnableProfiling does nothing. It is kept only because the benchmark
// driver's profiled window (dimbench/workloads.go) calls it; the function
// and that call are to be deleted together.
func EnableProfiling(bool) {}
