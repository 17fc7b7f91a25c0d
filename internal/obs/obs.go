// Package obs is the stack's observability layer: a metrics registry
// (counters, gauges, fixed-bucket histograms) with Prometheus text
// exposition, span-based tracing exportable as Chrome trace-event JSON, and
// a phase profiler of cheap monotonic-clock accumulators for the simulation
// hot path.
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
// Disabled-cost matters as much: the profiler's fast path is one atomic
// load, a nil *Tracer no-ops every span call, and no instrument sits inside
// the thermal step kernel itself (instrumentation wraps the metric-tick
// loop around it), so the hot step loop's benchmarks are unaffected.
package obs
