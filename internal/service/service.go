// Package service is the simulation-as-a-service layer: a long-running
// daemon core that accepts experiment/scenario/sched jobs (the same
// declarative JSON specs internal/scenario decodes), runs them on a bounded
// worker pool layered over the deterministic runner engine, streams
// per-round fleet telemetry to NDJSON/SSE subscribers, and serves results
// from a content-addressed cache keyed by the canonical spec hash — so an
// identical submission returns instantly, byte-identical to the dimctl path.
//
// The serving discipline is explicit about its limits: admission control
// returns 429 + Retry-After when the bounded queue is full (backpressure,
// never unbounded buffering), per-job contexts cancel mid-run at metric
// ticks and round barriers, and shutdown drains running work before
// exiting. cmd/dimd wraps this package in an HTTP server; cmd/dimctl's
// `remote` subcommands are its client.
package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/faultinject"
	"repro/internal/fleetsched"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/thermal"
)

// Sentinel errors the HTTP layer maps to status codes.
var (
	// ErrBusy is returned when the admission queue is full (HTTP 429).
	ErrBusy = errors.New("service: queue full, retry later")
	// ErrDraining is returned once shutdown has begun (HTTP 503).
	ErrDraining = errors.New("service: draining, not accepting jobs")
	// ErrUnknownJob is returned for lookups of untracked job IDs (HTTP 404).
	ErrUnknownJob = errors.New("service: unknown job")
)

// Config sizes the daemon. Zero fields select the documented defaults.
type Config struct {
	// Workers is the number of concurrent job executors; each job further
	// parallelises across Engine.Jobs trial workers. Default: GOMAXPROCS.
	Workers int
	// QueueDepth bounds admitted-but-not-running jobs; a full queue
	// rejects with ErrBusy. Default: 256.
	QueueDepth int
	// CacheBytes budgets the content-addressed result cache. Default: 64 MiB.
	CacheBytes int64
	// MaxEvents bounds each job's telemetry ring. Default: 2048.
	MaxEvents int
	// MaxJobs bounds retained terminal job records (oldest evicted first;
	// live jobs are always retained). Default: 1024.
	MaxJobs int
	// DefaultScale applies when a request leaves Scale zero. Default: 1.0.
	DefaultScale float64
	// TelemetryEvery is the per-machine sampling cadence for unscheduled
	// scenario streams, in metric ticks. Default: 50 (5 s of virtual time).
	TelemetryEvery int
	// Engine is the integrator and trial parallelism every job runs under;
	// the integrator is part of the content key and must match cluster-wide.
	Engine engine.Config

	// DataDir, when set, makes the daemon durable: submissions journal to an
	// append-only WAL before they are acknowledged, completed artifacts
	// persist to content-addressed files, in-flight jobs checkpoint, and a
	// restarted daemon recovers all three — queued and running jobs re-run
	// (resuming from their checkpoints) and produce byte-identical results.
	// Empty keeps the daemon fully in-memory, exactly as before.
	DataDir string
	// CheckpointEvery is the scheduled-run checkpoint cadence in round
	// barriers (durable daemons only). Default: 5. Negative disables
	// checkpointing (recovery then reruns from scratch).
	CheckpointEvery int

	// Cluster, when it names workers, runs this daemon as a coordinator:
	// unscheduled scenario jobs shard across the worker set with lease-based
	// recovery. See ClusterConfig.
	Cluster ClusterConfig

	// FlightRecords sizes the flight-recorder ring (recent spans, stream
	// events and heat frames, dumped with incidents). Default: 4096 records;
	// negative disables the recorder entirely.
	FlightRecords int
	// MaxIncidents bounds retained incident dumps (oldest evicted first).
	// Default: 32.
	MaxIncidents int
	// SLO configures the burn-rate evaluators whose breaches auto-dump
	// incidents. The zero value disables SLO evaluation.
	SLO SLOConfig

	// Logger receives structured job-lifecycle logs. Nil discards them —
	// logging is observability, never load-bearing.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = 64 << 20
	}
	if c.MaxEvents <= 0 {
		c.MaxEvents = 2048
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 1024
	}
	if c.DefaultScale <= 0 {
		c.DefaultScale = 1.0
	}
	if c.TelemetryEvery <= 0 {
		c.TelemetryEvery = 50
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 5
	}
	if c.FlightRecords == 0 {
		c.FlightRecords = obs.DefaultFlightRecords
	}
	if c.MaxIncidents <= 0 {
		c.MaxIncidents = 32
	}
	c.SLO = c.SLO.withDefaults()
	return c
}

// Service is the daemon core. Create with New, serve via Handler, stop with
// Shutdown.
type Service struct {
	cfg   Config
	cache *cache
	// props is the leap propagator store every scenario run of this daemon
	// shares, local shards and served shards included, so each propagator
	// is built once per topology for the daemon's lifetime.
	props *thermal.PropStore
	met   metrics
	heat  heatState
	log   *slog.Logger
	// store is the durable layer; nil for an in-memory daemon. All journal
	// and checkpoint writes funnel through Service.journal / execute's
	// checkpoint hooks, which tolerate a nil store.
	store *store
	// clu is the coordinator tier; nil unless Config.Cluster names workers.
	// cluClients holds one retry-free client per worker URL — the lease
	// machinery, not the HTTP client, owns failure handling.
	clu        *cluster.Coordinator
	cluClients map[string]*Client
	// cluPIDs maps each worker URL to its stable Chrome-trace process ID
	// (config order + 2; pid 1 is the coordinator) so stitched traces render
	// each worker as its own process row.
	cluPIDs map[string]int

	// rec is the flight recorder (nil when disabled; every feed is nil-safe);
	// inc retains incident dumps; slo holds the armed burn-rate rules.
	rec *obs.FlightRecorder
	inc *incidentLog
	slo []*obs.BurnRate

	baseCtx   context.Context
	cancelAll context.CancelFunc

	mu       sync.Mutex
	draining bool
	seq      int
	jobs     map[string]*Job
	order    []string // submission order, for listing and retention
	queue    chan *Job
	wg       sync.WaitGroup
}

// New builds the service and starts its worker pool. It panics if a durable
// config (DataDir set) fails to open its data directory — use Open to handle
// that error; an in-memory config never fails.
func New(cfg Config) *Service {
	s, err := Open(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Open builds the service, recovers durable state when Config.DataDir is
// set (replaying the job journal, warming the result cache from persisted
// artifacts, and re-enqueueing interrupted jobs with their checkpoints), and
// starts the worker pool.
func Open(cfg Config) (*Service, error) {
	if err := cfg.Engine.Validate(); err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Service{
		cfg:       cfg,
		cache:     newCache(cfg.CacheBytes),
		props:     thermal.NewPropStore(),
		baseCtx:   ctx,
		cancelAll: cancel,
		jobs:      map[string]*Job{},
		queue:     make(chan *Job, cfg.QueueDepth),
	}
	s.met.init(s)
	if cfg.FlightRecords > 0 {
		s.rec = obs.NewFlightRecorder(cfg.FlightRecords)
	}
	s.heat.rec = s.rec
	s.inc = newIncidentLog(cfg.MaxIncidents)
	s.initSLO()
	s.log = cfg.Logger
	if s.log == nil {
		s.log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if cfg.DataDir != "" {
		st, rep, err := openStore(cfg.DataDir)
		if err != nil {
			cancel()
			return nil, err
		}
		s.store = st
		s.inc.open(filepath.Join(cfg.DataDir, "incidents"))
		st.log.SetFsyncObserver(s.met.walFsync.Observe)
		s.met.walReplayed.Store(int64(rep.stats.Records))
		if rep.stats.Truncated {
			s.met.walTruncations.Add(1)
		}
		// Recovery runs before any worker exists, so it owns every structure
		// it touches and re-enqueued jobs sit in the queue until workers
		// start below.
		s.recoverFromJournal(rep)
	}
	if len(cfg.Cluster.Workers) > 0 {
		// Before the worker pool: recovered jobs must find the coordinator
		// already serving when a worker picks them up.
		s.openCluster()
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for j := range s.queue {
				s.runJob(j)
			}
		}()
	}
	s.log.Info("service open",
		"workers", cfg.Workers, "queue", cfg.QueueDepth,
		"durable", cfg.DataDir != "", "recovered", s.Recovered())
	return s, nil
}

// spanSink returns the flight-recorder tap for one job's tracer: span
// durations land in the ring as they complete.
func (s *Service) spanSink(jobID string) obs.SpanSink {
	if s.rec == nil {
		return nil
	}
	return func(name, cat string, durNS int64) {
		s.rec.Record("span", jobID, name, float64(durNS)/1e9)
	}
}

// journal durably records one journal entry; a no-op for in-memory daemons.
// Journal failures degrade durability, not availability: the daemon keeps
// serving (the job still runs, the client still gets its result) and the
// failure is counted for operators to alarm on.
func (s *Service) journal(rec journalRecord, sync bool) {
	if s.store == nil {
		return
	}
	if err := s.store.append(rec, sync); err != nil {
		s.met.walErrors.Add(1)
		return
	}
	s.met.walRecords.Add(1)
}

// Recovered reports how many interrupted jobs this process re-enqueued at
// boot (0 for in-memory daemons).
func (s *Service) Recovered() int { return int(s.met.recovered.Load()) }

// Submit validates, admits and tracks one job. Cache hits complete
// immediately (state done, CacheHit true) without occupying a worker; misses
// enqueue, or fail with ErrBusy when the queue is full.
func (s *Service) Submit(req Request) (*Job, error) {
	// The tracer starts before resolution so the submit span covers
	// validation and admission; a rejected submission's tracer is simply
	// discarded with the job that never was.
	tr := obs.NewTracer()
	spSubmit := tr.Start("submit", "lifecycle", 0)
	r, err := s.resolve(req)
	if err != nil {
		return nil, err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, ErrDraining
	}
	if req.Idempotent {
		// Resubmit-by-content-address: a client retrying after a lost
		// response must not fork a second identical simulation, so a LIVE
		// job with the same key answers the retry. Terminal jobs do not
		// attach: done runs are the cache's business (the fall-through
		// below answers instantly, marked CacheHit), and a retry after
		// failed/canceled should genuinely re-run.
		for i := len(s.order) - 1; i >= 0; i-- {
			if prev := s.jobs[s.order[i]]; prev.Key == r.key {
				if st := prev.View().State; st != StateQueued && st != StateRunning {
					continue
				}
				s.met.deduped.Add(1)
				return prev, nil
			}
		}
	}
	lookup := time.Now()
	art, hit := s.cache.get(r.key)
	s.met.cacheLookup.Observe(time.Since(lookup).Seconds())

	s.seq++
	j := &Job{
		ID:     fmt.Sprintf("job-%06d", s.seq),
		Key:    r.key,
		kind:   r.kind,
		name:   jobName(r),
		policy: r.policy,
		scale:  r.scale,
		res:    r,
		stream: newStream(s.cfg.MaxEvents, s.fold),
		trace:  tr,
	}
	j.submitted = time.Now()
	// The flight recorder taps every span completion from here on, and the
	// stream's fold every event; both read values already computed for the
	// trace/stream, so recording perturbs nothing.
	tr.SetSink(s.spanSink(j.ID))
	if hit {
		j.state = StateDone
		j.cacheHit = true
		j.started = j.submitted
		j.finished = j.submitted
		j.artifact = art
		s.emit(j, Event{Type: "state", Job: j.ID, State: StateDone}, Event{Type: "done", Job: j.ID, State: StateDone})
		s.cache.hits.Add(1)
		s.met.submitted.Add(1)
		s.met.completed.Add(1)
		s.journal(s.submitRecord(j, req, true), false)
		s.journal(journalRecord{Op: "done", ID: j.ID, At: j.finished}, true)
		spSubmit.EndArgs(map[string]any{"job": j.ID, "cache_hit": true})
		tr.Instant("done", "lifecycle", 0)
		s.track(j)
		s.log.Info("job submitted", "job", j.ID, "kind", j.kind, "name", j.name, "cache_hit", true)
		return j, nil
	}

	j.state = StateQueued
	// The queue span (and its wait clock) must exist before the channel send
	// publishes the job: a free worker can start runJob the moment the send
	// lands, and it ends this span.
	j.enqueued = time.Now()
	spSubmit.EndArgs(map[string]any{"job": j.ID, "cache_hit": false})
	j.queueSpan = tr.Start("queue", "lifecycle", 0)
	select {
	case s.queue <- j:
	default:
		// Rejected submissions never simulated anything; they count as
		// backpressure, not cache misses.
		s.met.rejected.Add(1)
		return nil, ErrBusy
	}
	s.cache.misses.Add(1)
	s.met.submitted.Add(1)
	// Durable ack: the submission record is fsynced before Submit returns,
	// so an accepted job survives any crash from here on.
	s.journal(s.submitRecord(j, req, false), true)
	s.emit(j, Event{Type: "state", Job: j.ID, State: StateQueued})
	s.track(j)
	s.log.Info("job submitted", "job", j.ID, "kind", j.kind, "name", j.name, "cache_hit", false)
	return j, nil
}

// submitRecord builds a job's journal submission record, carrying enough of
// the original request to re-resolve it at recovery.
func (s *Service) submitRecord(j *Job, req Request, cacheHit bool) journalRecord {
	return journalRecord{
		Op:       "submitted",
		ID:       j.ID,
		At:       j.submitted,
		Key:      j.Key,
		Kind:     j.kind,
		Name:     req.Name,
		JobName:  j.name,
		Policy:   j.policy, // resolved, so recovery re-runs the same work even if spec defaults change
		Scale:    j.scale,  // resolved, for the same reason
		Spec:     req.Spec,
		CacheHit: cacheHit,
	}
}

func jobName(r *resolved) string {
	if r.kind == KindExperiment {
		return r.expID
	}
	return r.spec.Name
}

// track records the job and enforces the terminal-record retention bound.
// Caller holds s.mu.
func (s *Service) track(j *Job) {
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	if len(s.order) <= s.cfg.MaxJobs {
		return
	}
	kept := s.order[:0]
	toDrop := len(s.order) - s.cfg.MaxJobs
	for _, id := range s.order {
		if toDrop > 0 && s.jobs[id].Terminal() {
			delete(s.jobs, id)
			toDrop--
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

// Job returns a tracked job.
func (s *Service) Job(id string) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, ErrUnknownJob
	}
	return j, nil
}

// Jobs lists tracked jobs in submission order.
func (s *Service) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id])
	}
	return out
}

// Cancel cancels a job: queued jobs terminate immediately (the worker skips
// them), running jobs get their context cancelled and stop at the next
// metric tick or round barrier.
func (s *Service) Cancel(id string) error {
	j, err := s.Job(id)
	if err != nil {
		return err
	}
	j.mu.Lock()
	switch j.state {
	case StateQueued:
		j.state = StateCanceled
		j.err = "canceled while queued"
		j.finished = time.Now()
		s.met.canceled.Add(1)
		j.mu.Unlock()
		s.journal(journalRecord{Op: "canceled", ID: j.ID, At: time.Now(), Error: "canceled while queued"}, true)
		s.dropResume(j)
		s.emit(j, Event{Type: "done", Job: j.ID, State: StateCanceled})
		return nil
	case StateRunning:
		j.cancelAsked = true
		cancel := j.cancelFunc
		j.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		return nil
	default:
		j.mu.Unlock()
		return nil // already terminal: cancellation is idempotent
	}
}

// Draining reports whether shutdown has begun.
func (s *Service) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// QueueDepth returns the number of admitted jobs waiting for a worker.
func (s *Service) QueueDepth() int { return len(s.queue) }

// Shutdown stops admission and drains: already-admitted jobs run to
// completion unless ctx expires first, at which point every outstanding job
// context is cancelled and the drain finishes promptly. Always returns once
// all workers have exited.
func (s *Service) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return fmt.Errorf("service: Shutdown called twice")
	}
	s.draining = true
	close(s.queue)
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		s.cancelAll()
		<-done
		err = ctx.Err()
	}
	if s.clu != nil {
		s.clu.Stop()
	}
	if s.store != nil {
		// After the drain: every worker has finished journaling.
		if cerr := s.store.close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// runJob executes one admitted job on a worker. A panic anywhere in the
// engine stack is contained to the job: the worker recovers, fails the job
// with the panic value and a trimmed stack, and goes back to the queue — one
// poisoned spec cannot take the daemon (or its sibling jobs) down.
func (s *Service) runJob(j *Job) {
	j.mu.Lock()
	if j.state != StateQueued { // canceled while queued
		j.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()
	j.state = StateRunning
	j.started = time.Now()
	j.cancelFunc = cancel
	j.mu.Unlock()

	j.queueSpan.End()
	if !j.enqueued.IsZero() {
		s.met.queueWait.Observe(j.started.Sub(j.enqueued).Seconds())
	}
	spRun := j.trace.Start("run", "lifecycle", 0)

	s.met.inFlight.Add(1)
	s.journal(journalRecord{Op: "started", ID: j.ID, At: j.started}, false)
	s.emit(j, Event{Type: "state", Job: j.ID, State: StateRunning})
	s.openResume(j)
	defer func() {
		r := recover()
		s.met.inFlight.Add(-1)
		if r == nil {
			return
		}
		s.met.panics.Add(1)
		j.trace.Instant("panic", "lifecycle", 0)
		s.log.Error("job panicked", "job", j.ID)
		msg := fmt.Sprintf("worker panic: %v\n%s", r, trimStack(debug.Stack()))
		// The flight recorder's ring still holds the run-up to the panic:
		// dump it with a snapshot before anything else overwrites it.
		s.finish(j, &journalRecord{Op: StateFailed, ID: j.ID, Error: msg}, nil, func(fin *journalRecord) {
			s.dumpIncident("panic", j.ID, fmt.Sprintf("%v", r), fin)
		})
	}()

	art, err := s.execute(ctx, j)
	busy := time.Since(j.started).Seconds()
	spRun.EndArgs(map[string]any{"busy_seconds": busy})
	s.met.runSeconds.Observe(busy)
	spFinal := j.trace.Start("finalize", "lifecycle", 0)

	// Journal ops are named after the terminal states they record.
	fin := &journalRecord{Op: StateDone, ID: j.ID}
	switch {
	case err == nil:
		s.met.addSim(art.SimSeconds, busy)
	case ctx.Err() != nil:
		fin.Op, fin.Error = StateCanceled, "canceled"
	default:
		fin.Op, fin.Error = StateFailed, err.Error()
	}
	if fin.Op == StateDone && s.store != nil {
		// Durability ordering: the artifact must be on disk before the
		// journal says "done" — recovery trusts the journal, and a "done"
		// pointing at nothing would serve a hole. (A failed write merely
		// downgrades to in-memory: recovery sees done-without-artifact and
		// recomputes the identical bytes.)
		spArt := j.trace.Start("artifact", "lifecycle", 0)
		werr := s.store.writeArtifact(j.Key, art)
		spArt.End()
		if werr != nil {
			s.met.walErrors.Add(1)
		}
	}
	// SLO evaluation rides job completion: every terminal job re-judges the
	// burn rate over the violation/queue-wait histograms it just fed.
	s.finish(j, fin, art, func(fin *journalRecord) {
		s.checkSLO(fin)
		spFinal.End()
	})
}

// finish publishes a running job's terminal record fin after everything
// job-scoped: the resume log goes, fin is journaled, judge (the SLO check or
// the panic dump) writes any incident it triggers, and the job's span times
// are folded into /metrics — so a client that sees the job finished never
// finds its resume log and always finds its incident, its whole trace and its
// layer times.
// A panic after publication (say in a stream hook) keeps the first outcome.
func (s *Service) finish(j *Job, fin *journalRecord, art *Artifact, judge func(*journalRecord)) {
	s.dropResume(j)
	fin.At = time.Now()
	fin.Degraded = j.degraded // only this worker goroutine writes it
	s.journal(*fin, true)
	judge(fin)
	// The terminal instant lands before the state is published, so a client
	// that sees the job finished fetches a trace that already shows it.
	j.trace.Instant(fin.Op, "lifecycle", 0)

	j.mu.Lock()
	if j.state == StateRunning {
		// judge has closed the finalize span, so the job's own spans are
		// complete; folding under the state check counts them once even if
		// a panic after publication re-enters finish.
		s.met.foldLayers(j.trace)
		j.state, j.err = fin.Op, fin.Error
		j.finished = fin.At
		j.cancelFunc = nil
		switch fin.Op {
		case StateDone:
			j.artifact = art
			s.cache.put(j.Key, art)
			s.met.completed.Add(1)
		case StateCanceled:
			s.met.canceled.Add(1)
		default:
			s.met.failed.Add(1)
		}
	}
	j.mu.Unlock()

	if fin.Op == StateDone {
		s.emit(j, Event{Type: "done", Job: j.ID, State: fin.Op})
		s.log.Info("job done", "job", j.ID, "sim_seconds", art.SimSeconds)
	} else {
		s.emit(j, Event{Type: "error", Job: j.ID, State: fin.Op, Error: fin.Error})
		s.log.Warn("job "+fin.Op, "job", j.ID, "error", fin.Error)
	}
}

// trimStack keeps a panic stack readable in an error field: the goroutine
// header plus the first few frames, which name the faulting engine code.
func trimStack(stack []byte) string {
	lines := strings.Split(string(stack), "\n")
	const keep = 13 // header + 6 frames (2 lines each)
	if len(lines) > keep {
		lines = lines[:keep]
	}
	return strings.TrimRight(strings.Join(lines, "\n"), "\n")
}

// execute dispatches the resolved work item to the matching engine, with the
// engine hooks emitting the job's events through its resume writer w — which,
// on durable daemons, also keeps the resume log that lets a restarted daemon
// resume this job.
func (s *Service) execute(ctx context.Context, j *Job) (*Artifact, error) {
	w := s.startResumeWriter(j)
	defer w.stop()
	if faultinject.Hit(faultinject.WorkerPanic) {
		panic("faultinject: worker.panic")
	}
	r := j.res
	switch r.kind {
	case KindExperiment:
		e, _ := experiments.Lookup(r.expID) // resolve admits only table IDs
		// Paper harnesses have no internal cancellation points; a cancel
		// that raced the start still wins before the run begins.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// One run renders both: the report exactly as `dimctl run` prints
		// it between its banners, and the files `dimctl export` writes.
		res := e.Run(experiments.Scale(r.scale), s.cfg.Engine)
		return &Artifact{Rendered: res.String() + "\n", Files: res.Files()}, nil

	case KindScenario:
		if s.clu != nil {
			return s.executeClusteredScenario(ctx, j, w)
		}
		// Each finished machine is announced once it is durable; a
		// recovered job's come back via Completed, and the rerun skips them.
		opts := scenario.RunOptions{
			Engine:         s.cfg.Engine,
			PropStore:      s.props,
			Context:        ctx,
			TelemetryEvery: s.cfg.TelemetryEvery,
			Trace:          j.trace,
			Completed:      s.resumeMachines(j),
			OnTelemetry:    w.telemetry,
			OnMachine:      w.machine,
			// Per-machine thermal state for the fleet snapshot, via the pure
			// machine.Checkpoint() observer (bounded; see captureState).
			OnState: j.captureState,
		}
		res, err := scenario.RunOpts(r.spec, r.scale, opts)
		if err != nil {
			return nil, err
		}
		return &Artifact{
			Rendered:   res.String(),
			Files:      scenario.RenderResult(res),
			SimSeconds: res.Duration.Seconds() * float64(len(res.Machines)),
		}, nil

	case KindSched:
		fsOpts := fleetsched.Options{
			Engine:  s.cfg.Engine,
			Context: ctx,
			Trace:   j.trace,
			OnRound: w.round,
		}
		if j.resume != nil {
			fsOpts.CheckpointEvery = s.cfg.CheckpointEvery
			fsOpts.OnCheckpoint = func(cp fleetsched.Checkpoint) {
				w.record(JobCheckpoint{Kind: KindSched, Sched: &cp}, nil)
			}
		}
		if cp := j.resumeToken(); cp != nil {
			fsOpts.Resume = cp.Sched
		}
		res, err := fleetsched.RunOpts(r.spec, r.policy, r.scale, fsOpts)
		if err != nil && fsOpts.Resume != nil && ctx.Err() == nil {
			// The checkpoint failed its replay verification (or named a
			// barrier the run never reaches). Determinism means the rerun is
			// authoritative; the checkpoint is the corrupt party. Drop it and
			// run from scratch rather than fail a recoverable job.
			s.met.resumeRejected.Add(1)
			fsOpts.Resume = nil
			res, err = fleetsched.RunOpts(r.spec, r.policy, r.scale, fsOpts)
		} else if err == nil && fsOpts.Resume != nil {
			s.met.resumes.Add(1)
		}
		if err != nil {
			return nil, err
		}
		files, err := fleetsched.RenderResult(res)
		if err != nil {
			return nil, err
		}
		return &Artifact{
			Rendered:   res.String(),
			Files:      files,
			SimSeconds: res.Duration.Seconds() * float64(len(res.Machines)),
		}, nil

	case KindSchedCompare:
		c, err := fleetsched.CompareOpts(r.spec, r.scale, fleetsched.Options{
			Engine:  s.cfg.Engine,
			Context: ctx,
			Trace:   j.trace,
			OnRound: w.round,
		}, func(policy string) {
			s.emit(j, Event{Type: "policy", Job: j.ID, Policy: policy})
		})
		if err != nil {
			return nil, err
		}
		// Mirror `dimctl sched export`: the default-policy run's CSVs
		// alongside the comparison table, from one sweep.
		files, err := fleetsched.RenderResult(c.DefaultResult())
		if err != nil {
			return nil, err
		}
		cmpFiles, err := fleetsched.RenderComparison(c)
		if err != nil {
			return nil, err
		}
		def := c.DefaultResult()
		return &Artifact{
			Rendered:   c.String(),
			Files:      append(files, cmpFiles...),
			SimSeconds: def.Duration.Seconds() * float64(len(def.Machines)) * float64(len(c.Results)),
		}, nil
	}
	return nil, fmt.Errorf("unknown job kind %q", r.kind)
}
