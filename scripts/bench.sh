#!/usr/bin/env bash
# bench.sh — run the repository's benchmark suite and record ns/op and
# allocs/op per benchmark into BENCH_results.json, so the performance
# trajectory is tracked across PRs.
#
# Usage:
#   scripts/bench.sh                 # harness + kernel benchmarks
#   BENCH_PATTERN='Figure3' scripts/bench.sh
#   HARNESS_BENCHTIME=3x scripts/bench.sh
#
# Environment:
#   BENCH_PATTERN      override the benchmark regex entirely
#   HARNESS_BENCHTIME  -benchtime for the full-harness benchmarks (default 1x:
#                      each iteration is a complete scaled experiment run)
#   MICRO_BENCHTIME    -benchtime for the kernel micro-benchmarks (default 1s)
#   OUT                output path (default BENCH_results.json)
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${OUT:-BENCH_results.json}"
HARNESS_BENCHTIME="${HARNESS_BENCHTIME:-1x}"
MICRO_BENCHTIME="${MICRO_BENCHTIME:-1s}"

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

if [[ -n "${BENCH_PATTERN:-}" ]]; then
    go test -run '^$' -bench "$BENCH_PATTERN" -benchmem -benchtime "$HARNESS_BENCHTIME" ./... | tee "$raw"
else
    # Full-harness benchmarks: one iteration reproduces a whole (scaled)
    # paper artefact, so a fixed iteration count keeps wall-clock sane.
    go test -run '^$' -bench 'Figure|Table|Validation|Ablation|Extension|SimulatorSteadySecond' \
        -benchmem -benchtime "$HARNESS_BENCHTIME" . | tee "$raw"
    # Fleet scenario engine: one iteration runs a whole scaled fleet, under
    # both the leap (default) and exact integrators, and the leap run once
    # more with a span tracer (BenchmarkFleetScenarioTraced).
    go test -run '^$' -bench 'FleetScenario' \
        -benchmem -benchtime "$HARNESS_BENCHTIME" ./internal/scenario/ | tee -a "$raw"
    # Mega fleet: the engine tiling fleet-diurnal to 100k machines against
    # the independent per-machine reference; reports ns per fleet member
    # summarised.
    go test -run '^$' -bench 'MegaFleet' \
        -benchmem -benchtime "$HARNESS_BENCHTIME" ./internal/scenario/ | tee -a "$raw"
    # Fleet scheduler: one iteration is a whole scheduled run under both
    # integrators (and the six-policy comparison sweep).
    go test -run '^$' -bench 'FleetSched' \
        -benchmem -benchtime "$HARNESS_BENCHTIME" ./internal/fleetsched/ | tee -a "$raw"
    # Kernel micro-benchmarks: cheap enough for time-based sampling.
    go test -run '^$' -bench 'ThermalStep|ThermalLeap|SolveSteadyState|Runner' \
        -benchmem -benchtime "$MICRO_BENCHTIME" ./internal/thermal/ ./internal/runner/ | tee -a "$raw"
    # Service daemon: the submit hot paths (cache hit vs full cold run) and
    # a streamed scheduled round-trip, over loopback HTTP.
    go test -run '^$' -bench 'ServiceSubmit|ServiceStream' \
        -benchmem -benchtime "$MICRO_BENCHTIME" ./internal/service/ | tee -a "$raw"
fi

awk '
    /^Benchmark/ {
        name = $1
        sub(/-[0-9]+$/, "", name)   # strip the GOMAXPROCS suffix
        found = 0
        for (i = 3; i <= NF; i++) {
            if ($i == "ns/op") { ns[name] = $(i - 1); found = 1 }
            if ($i == "allocs/op") { allocs[name] = $(i - 1) }
            if ($i == "ns/machine") { nsmach[name] = $(i - 1) }
        }
        if (!found) next
        if (!(name in allocs)) allocs[name] = "null"
        if (!(name in seen)) { order[++n] = name; seen[name] = 1 }
    }
    END {
        printf "{\n"
        for (i = 1; i <= n; i++) {
            key = order[i]
            extra = ""
            if (key in nsmach) extra = extra sprintf(", \"ns_machine\": %s", nsmach[key])
            printf "  \"%s\": {\"ns_op\": %s, \"allocs_op\": %s%s}%s\n", \
                key, ns[key], allocs[key], extra, (i < n ? "," : "")
        }
        printf "}\n"
    }
' "$raw" > "$OUT"

echo "wrote $OUT ($(grep -c 'ns_op' "$OUT") benchmarks)"
