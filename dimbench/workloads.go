package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"time"

	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/service"
)

// setupReps is how many times a run repeats its workload's set-up; setup_s
// is their median, so one slow open does not decide it.
const setupReps = 9

// engineRuns bounds the direct library runs a traced pass makes.
const engineRuns = 3

// hitsPerCold is how many cache hits follow each cold job on the closed
// loops: serve-mix's hit share of submissions, 80 %, is four hits per cold
// job. It is a sampling choice, so the hit metrics exist on every workload.
const hitsPerCold = serveHitShare / (1 - serveHitShare)

// workloads maps each workload to its run. README.md gives the reason for
// each one's shape.
var workloads = map[string]func(*bench) error{
	"fleet-cold": closedLoop{
		kind: service.KindScenario, scale: 0.05,
		spec:   fleetColdSpec,
		warmup: func(seed uint64, rep int) *scenario.Spec { return fleetSpec(seed, warmIndex+rep, 64) },
		engine: runScenario,
	}.run,
	"serve-mix": runServeMix,
	"sched-rounds": closedLoop{
		kind: service.KindSched, scale: 1,
		spec:   schedSpec,
		warmup: func(seed uint64, rep int) *scenario.Spec { return schedFleet(seed, warmIndex+rep, 12) },
		engine: runSched,
	}.run,
}

// samples is one measured window's observations.
type samples struct {
	cold   []float64     // cold-job latency, ms
	hit    []float64     // cache-hit latency, ms
	hitRPC []float64     // cache-hit Submit round trip, ms
	late   []float64     // how late each request was sent, ms
	jobs   []coldJob     // cold jobs, in completion order
	sim    float64       // machine-seconds the cold jobs simulated
	wall   time.Duration // host time sim is divided by
	growth int64         // data dir growth charged to the cold jobs

	met0, met1 map[string]float64 // the daemon's /metrics at either end
	io0, io1   int64              // process storage writes at either end
}

func (s *samples) addCold(j coldJob) {
	s.cold = append(s.cold, ms(j.fetched.Sub(j.due)))
	s.sim += j.view.SimSeconds
	s.jobs = append(s.jobs, j)
}

func (s *samples) addHit(latency, rpc time.Duration) {
	s.hit = append(s.hit, ms(latency))
	s.hitRPC = append(s.hitRPC, ms(rpc))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// setup runs a workload's set-up setupReps times and keeps the last daemon.
func (b *bench) setup(open func(rep int) (*daemon, error)) (*daemon, []float64, error) {
	var d *daemon
	var times []float64
	for rep := 0; rep < setupReps; rep++ {
		if d != nil {
			if err := d.close(); err != nil {
				return nil, nil, fmt.Errorf("set-up: %w", err)
			}
		}
		t0 := time.Now()
		var err error
		if d, err = open(rep); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return d, times, nil
}

// profiled runs one more window on a fresh daemon with the phase profiler
// on, as dimd -profile-phases runs, for obs.trace_overhead_frac. The fresh
// daemon starts where the unprofiled window's did, so the journal and cache
// that window left behind do not read as profiling cost.
func profiled(open func() (*daemon, error), window func(*daemon) (*samples, error)) (*samples, error) {
	d, err := open()
	if err != nil {
		return nil, err
	}
	obs.EnableProfiling(true)
	s, err := window(d)
	obs.EnableProfiling(false)
	if cerr := d.close(); err == nil {
		err = cerr
	}
	return s, err
}

// endToEnd records the end-to-end metrics of one measured window.
func (b *bench) endToEnd(setups []float64, s *samples, rssMB float64) error {
	if len(s.cold) == 0 || len(s.hit) == 0 {
		return errors.New("the window completed no cold job or no cache hit")
	}
	cold95, coldBeyond := tail(s.cold, 95)
	// fleet-cold's few dozen hits per run leave ten or more samples beyond
	// the p75 only. The hit p99 also rides on a few fsync stalls per run and
	// moves with the host's disk, too much to bound a change by; it is
	// printed, not gated.
	hit75, hit75Beyond := tail(s.hit, 75)
	hit99, hit99Beyond := tail(s.hit, 99)
	b.set("setup_s", "s", median(setups))
	b.set("cold_p50_ms", "ms", median(s.cold))
	b.set("cold_p95_ms", "ms", cold95)
	b.set("hit_p50_ms", "ms", median(s.hit))
	b.set("hit_p75_ms", "ms", hit75)
	b.set("sim_machine_s_per_s", "machine-s/s", s.sim/s.wall.Seconds())
	b.set("rss_peak_mb", "MB", rssMB)
	b.set("disk_bytes_per_job", "B", float64(s.growth)/float64(len(s.cold)))
	b.logf("samples: %d set-ups; %d cold jobs, %d beyond p95; %d hits, %d beyond p75; hit p99 %.4g ms, %d beyond",
		len(setups), len(s.cold), coldBeyond, len(s.hit), hit75Beyond, hit99, hit99Beyond)
	return nil
}

// reference runs the library engine directly on the window's first cold
// spec, outside the timed window, and checks the daemon returned the same
// bytes. A traced pass runs a few more specs for the engine's layer times.
func (b *bench) reference(s *samples, scale float64, engine func(*scenario.Spec, float64) (engineRun, error)) ([]engineRun, error) {
	n := 1
	if b.traced {
		n = engineRuns
	}
	var runs []engineRun
	for i, j := range s.jobs[:min(n, len(s.jobs))] {
		e, err := engine(j.spec, scale)
		if err != nil {
			return nil, fmt.Errorf("library run of %s: %w", j.spec.Name, err)
		}
		if i == 0 {
			b.check(sameBytes(j.art, e.art))
		}
		runs = append(runs, e)
	}
	return runs, nil
}

// closedLoop is a workload with one client: it submits a fresh spec, waits
// for the job and fetches its report and files, resubmits the same spec
// hitsPerCold times as cache hits, and only then sends the next spec.
type closedLoop struct {
	kind   string
	scale  float64
	spec   func(seed uint64, i int) *scenario.Spec
	warmup func(seed uint64, rep int) *scenario.Spec
	engine func(*scenario.Spec, float64) (engineRun, error)
}

// open is a closed loop's set-up: a daemon on a fresh data dir runs one
// small warm-up job and shuts down, and a daemon is reopened over the same
// dir, so boot replay reads the warm-up's journal.
func (cl closedLoop) open(b *bench, rep int) (*daemon, error) {
	dir := b.dataDir()
	d, err := openDaemon(dir)
	if err != nil {
		return nil, err
	}
	if _, err := d.cold(request(cl.kind, cl.warmup(b.seed, rep), cl.scale)); err != nil {
		_ = d.close()
		return nil, fmt.Errorf("warm-up job: %w", err)
	}
	if err := d.close(); err != nil {
		return nil, err
	}
	return openDaemon(dir)
}

func (cl closedLoop) run(b *bench) error {
	d, setups, err := b.setup(func(rep int) (*daemon, error) { return cl.open(b, rep) })
	if err != nil {
		return err
	}
	next := 0
	s, err := cl.window(b, d, &next)
	rss := peakRSSMB()
	if cerr := d.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if len(s.jobs) == 0 {
		return errors.New("the window completed no cold job")
	}
	engines, err := b.reference(s, cl.scale, cl.engine)
	if err != nil {
		return err
	}
	if !b.traced {
		return b.endToEnd(setups, s, rss)
	}
	prof, err := profiled(func() (*daemon, error) { return cl.open(b, setupReps) },
		func(d *daemon) (*samples, error) { return cl.window(b, d, &next) })
	if err != nil {
		return err
	}
	mem, err := cl.inMemory(b, &next, len(s.hit))
	if err != nil {
		return err
	}
	return b.layers(layerInputs{s: s, prof: prof, mem: mem, engines: engines, sched: cl.kind == service.KindSched})
}

// window runs the closed loop until the window closes; the job in flight
// then finishes.
func (cl closedLoop) window(b *bench, d *daemon, next *int) (*samples, error) {
	s, err := d.begin()
	if err != nil {
		return nil, err
	}
	for deadline := time.Now().Add(b.window); time.Now().Before(deadline); {
		// The data dir is sized around the cold job alone, so the records
		// its hits journal stay out of disk_bytes_per_job.
		size0 := dirSize(d.dir)
		// A job is due when the previous one and its hits completed;
		// lateness is the client's own time between the two.
		due := time.Now()
		spec := cl.spec(b.seed, *next)
		*next++
		req := request(cl.kind, spec, cl.scale)
		j, err := d.cold(req)
		if !b.check(err) {
			continue
		}
		s.growth += dirSize(d.dir) - size0
		j.spec = spec
		s.late = append(s.late, ms(j.t0.Sub(due)))
		s.addCold(j)
		s.wall += j.fetched.Sub(j.t0)
		for h := 0; h < hitsPerCold; h++ {
			t0 := time.Now()
			rpc, err := d.hit(req, j.art.output)
			if b.check(err) {
				s.addHit(time.Since(t0), rpc)
			}
		}
	}
	return s, d.end(s)
}

// inMemory repeats one cold job and n hits on an in-memory daemon, so the
// traced pass can set durable costs against the same work without them.
func (cl closedLoop) inMemory(b *bench, next *int, n int) (*samples, error) {
	d, err := openDaemon("")
	if err != nil {
		return nil, err
	}
	defer d.close()
	req := request(cl.kind, cl.spec(b.seed, *next), cl.scale)
	*next++
	j, err := d.cold(req)
	if err != nil {
		return nil, fmt.Errorf("in-memory cold job: %w", err)
	}
	s := &samples{}
	s.addCold(j)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		rpc, err := d.hit(req, j.art.output)
		if b.check(err) {
			s.addHit(time.Since(t0), rpc)
		}
	}
	return s, nil
}

// serve-mix: an open loop at serveRate submissions per second over
// serveLanes lanes. serveHitShare of them resubmit one of serveHot primed
// specs; the rest submit a fresh one. BENCHMARK.json does not gate it (its
// fsync-bound cold latencies drift with the host's disk); it is kept for the
// hit-tail attribution in README.md and for work on the submit tail.
const (
	serveRate     = 200
	serveLanes    = 2
	serveHot      = 16
	serveHitShare = 0.8
)

func runServeMix(b *bench) error {
	hot := make([]service.Request, serveHot)
	for i := range hot {
		hot[i] = request(service.KindScenario, serveSpec(b.seed, i), 1)
	}
	var hotOut []string
	open := func(int) (*daemon, error) {
		dir := b.dataDir()
		d, outs, err := primeHot(dir, hot)
		if err != nil {
			return nil, err
		}
		// Restart over the same data dir, so the measured hits are served
		// from the cache boot replay recovered.
		if err := d.close(); err != nil {
			return nil, err
		}
		if d, err = openDaemon(dir); err != nil {
			return nil, err
		}
		hotOut = outs
		return d, nil
	}
	d, setups, err := b.setup(open)
	if err != nil {
		return err
	}
	next := serveHot
	s, err := serveWindow(b, d, hot, hotOut, &next)
	rss := peakRSSMB()
	if cerr := d.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if len(s.jobs) == 0 {
		return errors.New("the window completed no cold job")
	}
	engines, err := b.reference(s, 1, runScenario)
	if err != nil {
		return err
	}
	if !b.traced {
		return b.endToEnd(setups, s, rss)
	}
	prof, err := profiled(func() (*daemon, error) { return open(setupReps) },
		func(d *daemon) (*samples, error) { return serveWindow(b, d, hot, hotOut, &next) })
	if err != nil {
		return err
	}
	md, mdOut, err := primeHot("", hot)
	if err != nil {
		return err
	}
	mem, err := serveWindow(b, md, hot, mdOut, &next)
	if cerr := md.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return b.layers(layerInputs{s: s, prof: prof, mem: mem, engines: engines})
}

// primeHot opens a daemon over dir ("" for in-memory) and runs each hot
// spec once, returning the reports every later hit must reproduce.
func primeHot(dir string, hot []service.Request) (*daemon, []string, error) {
	d, err := openDaemon(dir)
	if err != nil {
		return nil, nil, err
	}
	outs := make([]string, len(hot))
	for i, req := range hot {
		j, err := d.cold(req)
		if err != nil {
			_ = d.close()
			return nil, nil, fmt.Errorf("priming hot spec %d: %w", i, err)
		}
		outs[i] = j.art.output
	}
	return d, outs, nil
}

// serveWindow runs one open-loop window of serve-mix traffic.
func serveWindow(b *bench, d *daemon, hot []service.Request, hotOut []string, next *int) (*samples, error) {
	n := int(b.window.Seconds() * serveRate)
	// The mix is drawn before the window opens: which submissions are hits,
	// on which hot spec, and the index of each fresh spec.
	rnd := rand.New(rand.NewPCG(b.seed, uint64(*next)))
	plan := make([]int, n) // a hot-set index, or -1 - a fresh spec's index
	for k := range plan {
		if rnd.Float64() < serveHitShare {
			plan[k] = rnd.IntN(serveHot)
		} else {
			plan[k] = -1 - *next
			*next++
		}
	}
	// Hits and cold jobs overlap here, so the data dir's growth over the
	// window, hits' journal records included, is charged to the cold jobs.
	disk0 := dirSize(d.dir)
	s, err := d.begin()
	if err != nil {
		return nil, err
	}
	colds := make([]coldJob, n)
	rpcs := make([]time.Duration, n)
	ok := make([]bool, n)
	o := openLoop{clk: wallClock{}, start: time.Now().Add(10 * time.Millisecond),
		every: time.Second / serveRate, lanes: serveLanes, n: n}
	shots := o.run(func(k int) {
		var err error
		if h := plan[k]; h >= 0 {
			rpcs[k], err = d.hit(hot[h], hotOut[h])
		} else {
			spec := serveSpec(b.seed, -1-h)
			colds[k], err = d.cold(request(service.KindScenario, spec, 1))
			colds[k].spec = spec
		}
		ok[k] = b.check(err)
	})
	s.wall = time.Since(o.start)
	for _, sh := range shots {
		s.late = append(s.late, ms(sh.late))
		if !ok[sh.k] {
			continue
		}
		if plan[sh.k] >= 0 {
			s.addHit(sh.latency, rpcs[sh.k])
			continue
		}
		j := colds[sh.k]
		j.due = o.due(sh.k)
		s.addCold(j)
	}
	s.growth = dirSize(d.dir) - disk0
	return s, d.end(s)
}
