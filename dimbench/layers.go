package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	microbench "repro/internal/bench"
	"repro/internal/scenario"
	"repro/internal/units"
)

// probeIndex numbers the small spec that probes the engine a workload does
// not use, apart from set-up and measured specs.
const probeIndex = warmIndex + 1<<22

// layerInputs is what a traced pass measured.
type layerInputs struct {
	s       *samples    // the measured window on the durable daemon
	prof    *samples    // a window on a fresh daemon with the phase profiler on
	mem     *samples    // the same hits, and cold work, on an in-memory daemon
	engines []engineRun // direct library runs of the traced window's specs
	sched   bool        // the workload's engine is fleetsched, not scenario
}

// layers records the per-layer metrics. Each is timed in this package
// around calls into a layer's public functions, or read from the daemon's
// /metrics counters; README.md names the end-to-end metric each one should
// move.
func (b *bench) layers(in layerInputs) error {
	s := in.s
	if len(s.jobs) == 0 || len(s.hit) == 0 || len(in.prof.cold) == 0 || len(in.mem.jobs) == 0 || len(in.mem.hit) == 0 {
		return errors.New("traced pass: a window completed no cold job or no cache hit")
	}
	// The engine the workload never reaches is probed with a small spec, so
	// every layer is measured on every workload.
	probe, spec, scale := runSched, schedFleet(b.seed, probeIndex, 12), 1.0
	if in.sched {
		probe, spec, scale = runScenario, fleetSpec(b.seed, probeIndex, 64), 0.05
	}
	other, err := probe(spec, scale)
	if err != nil {
		return fmt.Errorf("engine probe: %w", err)
	}
	scen, sched := in.engines, []engineRun{other}
	if in.sched {
		scen, sched = sched, scen
	}
	resolve, err := resolveMS(s.jobs)
	if err != nil {
		return err
	}

	colds := float64(len(s.jobs))
	submits := colds + float64(len(s.hit))
	delta := func(series string) float64 { return s.met1[series] - s.met0[series] }
	var queue, run, memRun, deliver, events []float64
	for _, j := range s.jobs {
		v := j.view
		queue = append(queue, ms(v.StartedAt.Sub(v.SubmittedAt)))
		run = append(run, v.FinishedAt.Sub(*v.StartedAt).Seconds())
		deliver = append(deliver, ms(j.fetched.Sub(*v.FinishedAt)))
		events = append(events, float64(v.Events))
	}
	for _, j := range in.mem.jobs {
		memRun = append(memRun, j.view.FinishedAt.Sub(*j.view.StartedAt).Seconds())
	}
	var rounds, checkpoints []float64
	for _, e := range sched {
		rounds = append(rounds, e.rounds...)
		checkpoints = append(checkpoints, e.checkpoints...)
	}
	rpc99, rpcBeyond := tail(s.hitRPC, 99)
	queue95, queueBeyond := tail(queue, 95)
	hit99, _ := tail(s.hit, 99)
	mem99, memBeyond := tail(in.mem.hit, 99)
	round99, roundBeyond := tail(rounds, 99)
	hits, misses := delta("dimd_cache_hits_total"), delta("dimd_cache_misses_total")
	stepNS, leapNS := thermalProbe()
	wallS := func(e engineRun) float64 { return e.wall.Seconds() }
	renderMS := func(e engineRun) float64 { return ms(e.render) }

	b.set("service.submit_rpc_ms.p50", "ms", median(s.hitRPC))
	b.set("service.submit_rpc_ms.p99", "ms", rpc99)
	b.set("service.queue_wait_ms.p50", "ms", median(queue))
	b.set("service.queue_wait_ms.p95", "ms", queue95)
	b.set("service.run_s.p50", "s", median(run))
	b.set("service.run_overhead_s.p50", "s", median(run)-median(field(in.engines, wallS)))
	b.set("service.run_s_memory.p50", "s", median(memRun))
	b.set("service.deliver_ms.p50", "ms", median(deliver))
	b.set("service.cache_hit_ratio", "ratio", hits/(hits+misses))
	b.set("service.events_per_job", "count", median(events))
	b.set("service.checkpoints_per_job", "count", delta("dimd_checkpoints_written_total")/colds)
	b.set("service.replayed_records", "count", s.met1["dimd_wal_replayed_total"])
	b.set("service.write_bytes_per_job", "B", float64(s.io1-s.io0)/colds)
	b.set("service.hit_p99_ms_memory", "ms", mem99)
	b.set("wal.records_per_job", "count", delta("dimd_wal_records_total")/submits)
	b.set("wal.fsyncs_per_job", "count", delta("dimd_wal_fsync_seconds_count")/submits)
	b.set("wal.fsync_ms.p50", "ms", 1000*histQuantile(s.met0, s.met1, "dimd_wal_fsync_seconds", 0.5))
	b.set("wal.hit_tail_share", "ratio", 1-mem99/hit99)
	b.set("scenario.resolve_ms", "ms", resolve)
	b.set("scenario.compile_ms", "ms", median(field(scen, func(e engineRun) float64 { return ms(e.compile) })))
	b.set("scenario.step_s", "s", median(field(scen, wallS)))
	b.set("scenario.aggregate_ms", "ms", median(field(scen, func(e engineRun) float64 { return ms(e.aggregate) })))
	b.set("scenario.render_ms", "ms", median(field(scen, renderMS)))
	b.set("scenario.machines_per_s", "1/s", median(field(scen, func(e engineRun) float64 {
		return float64(e.machines) / e.wall.Seconds()
	})))
	b.set("scenario.step_cpu_util", "ratio", median(field(scen, func(e engineRun) float64 {
		return e.cpu.Seconds() / (e.wall.Seconds() * float64(runtime.GOMAXPROCS(0)))
	})))
	b.set("fleetsched.run_s", "s", median(field(sched, wallS)))
	b.set("fleetsched.round_ms.p50", "ms", median(rounds))
	b.set("fleetsched.round_ms.p99", "ms", round99)
	b.set("fleetsched.checkpoint_bytes", "B", median(checkpoints))
	b.set("fleetsched.render_ms", "ms", median(field(sched, renderMS)))
	b.set("thermal.step_ns", "ns", stepNS)
	b.set("thermal.leap_step_ns", "ns", leapNS)
	b.set("obs.trace_overhead_frac", "ratio", median(in.prof.cold)/median(s.cold)-1)
	b.set("gen.late_ms.max", "ms", maxOf(s.late))
	b.set("trace.unattributed_frac", "ratio", unattributed(s.jobs))
	b.logf("samples: %d cold jobs; %d hits, %d beyond the Submit p99; %d queue waits, %d beyond p95; "+
		"%d in-memory hits, %d beyond p99; %d round gaps, %d beyond p99; %d engine runs",
		len(s.jobs), len(s.hitRPC), rpcBeyond, len(queue), queueBeyond,
		len(in.mem.hit), memBeyond, len(rounds), roundBeyond, len(in.engines))
	return nil
}

// field maps each engine run to one number.
func field(runs []engineRun, f func(engineRun) float64) []float64 {
	out := make([]float64, len(runs))
	for i, e := range runs {
		out[i] = f(e)
	}
	return out
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

// resolveMS is the median time of the daemon's resolve step on the window's
// cold specs: decode and validate, normalize, content-hash.
func resolveMS(jobs []coldJob) (float64, error) {
	var times []float64
	for _, j := range jobs {
		raw, err := json.Marshal(j.spec)
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		spec, err := scenario.Decode(raw)
		if err == nil {
			_, err = spec.Hash()
		}
		times = append(times, ms(time.Since(t0)))
		if err != nil {
			return 0, fmt.Errorf("resolving %s: %w", j.spec.Name, err)
		}
	}
	return median(times), nil
}

// thermalProbe times the thermal kernel on the shared micro-benchmark
// network: ns per exact step, and ns per step inside leaped windows. Each is
// the median of five timed batches.
func thermalProbe() (stepNS, leapNS float64) {
	const reps, steps, windows, leapK = 5, 200_000, 4_000, 50
	dt := 2 * units.Millisecond
	var st, lt []float64
	for r := 0; r < reps; r++ {
		n, power, _, _ := microbench.KernelNetwork()
		n.Step(dt, power)
		t0 := time.Now()
		for i := 0; i < steps; i++ {
			n.Step(dt, power)
		}
		st = append(st, float64(time.Since(t0).Nanoseconds())/steps)

		ln, _, pkg, junctions := microbench.KernelNetwork()
		src := &microbench.LeapSource{Pkg: pkg, Junctions: junctions}
		sums := make([]float64, ln.NumNodes())
		t0 = time.Now()
		for i := 0; i < windows; i++ {
			ln.LeapSteps(leapK, dt, src, sums)
		}
		lt = append(lt, float64(time.Since(t0).Nanoseconds())/(windows*leapK))
	}
	return median(st), median(lt)
}

// histQuantile estimates the q-quantile of the observations a Prometheus
// histogram gained between two scrapes, interpolating within the owning
// bucket as the daemon's own Histogram.Quantile does. 0 when it gained none.
func histQuantile(before, after map[string]float64, name string, q float64) float64 {
	prefix := name + `_bucket{le="`
	type bucket struct{ le, cum float64 }
	var bs []bucket
	for series, v := range after {
		bound, ok := strings.CutPrefix(series, prefix)
		if !ok {
			continue
		}
		le, err := strconv.ParseFloat(strings.TrimSuffix(bound, `"}`), 64)
		if err == nil {
			bs = append(bs, bucket{le, v - before[series]})
		}
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	if len(bs) == 0 || bs[len(bs)-1].cum == 0 {
		return 0
	}
	rank := q * bs[len(bs)-1].cum
	lo, prev := 0.0, 0.0
	for _, bk := range bs {
		if bk.cum >= rank {
			if math.IsInf(bk.le, 1) {
				return lo
			}
			if bk.cum == prev {
				return bk.le
			}
			return lo + (bk.le-lo)*(rank-prev)/(bk.cum-prev)
		}
		lo, prev = bk.le, bk.cum
	}
	return lo
}

// unattributed is the share of cold-job latency outside every interval the
// benchmark times at a layer boundary: generator lateness, the Submit round
// trip, queue wait and run (the daemon's own stamps), and the report and
// file fetch. What is left is the hand-off from the daemon stamping a job
// finished to the client's Wait returning.
func unattributed(jobs []coldJob) float64 {
	var total, covered time.Duration
	for _, j := range jobs {
		v := j.view
		iv := [][2]time.Time{
			{j.due, j.t0}, {j.t0, j.submitted},
			{v.SubmittedAt, *v.StartedAt}, {*v.StartedAt, *v.FinishedAt},
			{j.waited, j.fetched},
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0].Before(iv[b][0]) })
		var end time.Time
		for _, x := range iv {
			lo, hi := x[0], x[1]
			if lo.Before(end) {
				lo = end
			}
			if hi.After(lo) {
				covered += hi.Sub(lo)
				end = hi
			}
		}
		total += j.fetched.Sub(j.due)
	}
	return 1 - float64(covered)/float64(total)
}
