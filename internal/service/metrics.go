package service

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/obs"
)

// metrics is the daemon's operational instrument set, held in an obs.Registry
// and rendered in Prometheus text exposition format by /metrics. Sim-seconds
// are the serving unit of work: one simulated machine advancing one virtual
// second.
//
// Every metric name predating the registry is byte-stable — dashboards and
// the CI smoke greps keep working — and the exposition golden test pins the
// full name/type set.
type metrics struct {
	reg *obs.Registry

	submitted *obs.Counter
	rejected  *obs.Counter // queue-full 429s
	completed *obs.Counter
	failed    *obs.Counter
	canceled  *obs.Counter
	inFlight  atomic.Int64 // rendered as the dimd_jobs_inflight gauge

	// Durability counters (zero and inert for in-memory daemons).
	walReplayed    *obs.Counter // journal records replayed at boot
	walTruncations *obs.Counter // torn journal tails truncated at boot
	walRecords     *obs.Counter // journal records appended by this process
	walErrors      *obs.Counter // journal appends/fsyncs that failed
	recovered      *obs.Counter // interrupted jobs re-enqueued at boot
	deduped        *obs.Counter // idempotent resubmits answered by a live job
	panics         *obs.Counter // worker panics contained to their job
	checkpoints    *obs.Counter // job checkpoints written
	resumes        *obs.Counter // jobs resumed from a checkpoint
	resumeRejected *obs.Counter // checkpoints rejected (divergent) and rerun from scratch

	// Microsecond-granular accumulators (atomic integers; floats would
	// race): virtual machine-seconds simulated, and wall-clock seconds spent
	// executing jobs.
	simMicro  atomic.Int64
	busyMicro atomic.Int64

	// Latency histograms, all in seconds on the shared obs.DefBuckets grid.
	queueWait     *obs.Histogram // submit ack -> worker pickup
	runSeconds    *obs.Histogram // worker pickup -> terminal state
	cacheLookup   *obs.Histogram // content-addressed cache get
	walFsync      *obs.Histogram // journal fsync syscall
	submitLatency *obs.Histogram // POST /v1/jobs handler, wall time
	streamLatency *obs.Histogram // GET .../stream, time to first event flushed

	// Cluster counters (coordinator side unless noted; zero and inert on
	// single-node daemons and plain workers).
	cluDispatched  *obs.Counter   // shard lease grants, first attempts and retries
	cluRetries     *obs.Counter   // shard lease grants past a shard's first
	cluExpirations *obs.Counter   // leases revoked by TTL expiry
	cluLocal       *obs.Counter   // shards degraded to in-process execution
	cluDegraded    *obs.Counter   // jobs completed in degraded mode
	cluServed      *obs.Counter   // shards this daemon executed for a remote coordinator
	cluLeaseAge    *obs.Histogram // age of revoked leases at revocation

	// Incident-observability tier (PR 10): the flight recorder's dump
	// triggers and the snapshot endpoint's own health.
	fleetViolation  *obs.Histogram // per-machine thermal violation seconds (scenario completions)
	snapshots       *obs.Counter   // fleet snapshots served
	snapshotSeconds *obs.Histogram // snapshot capture latency
	incidents       *obs.Counter   // incident dumps recorded (auto + forced)
	sloBreaches     *obs.Counter   // SLO burn-rate breach transitions detected

	// Finished jobs' own span time per "<category>.<name>" layer, in
	// nanoseconds (foldLayers); rendered as dimd_job_layer_seconds_total.
	layerMu sync.Mutex
	layerNS map[string]int64
}

// init builds the registry. Registration order is the legacy render order —
// the exposition document keeps its layout — with the histograms appended
// after. Must run before any worker or recovery path touches a counter.
func (m *metrics) init(s *Service) {
	r := obs.NewRegistry()
	m.reg = r

	// Integer gauges render via strconv, byte-identical to the %v-on-int
	// lines of the hand-rolled exposition this registry replaced.
	intGauge := func(name, help string, fn func() int64) {
		r.Text(name, help, obs.TypeGauge, func() string { return strconv.FormatInt(fn(), 10) })
	}

	intGauge("dimd_queue_depth", "jobs admitted and waiting for a worker",
		func() int64 { return int64(s.QueueDepth()) })
	intGauge("dimd_queue_capacity", "admission bound on waiting jobs",
		func() int64 { return int64(s.cfg.QueueDepth) })
	intGauge("dimd_workers", "concurrent job executors",
		func() int64 { return int64(s.cfg.Workers) })
	intGauge("dimd_jobs_inflight", "jobs currently executing", m.inFlight.Load)

	m.submitted = r.Counter("dimd_jobs_submitted_total", "jobs admitted (including cache hits)")
	m.rejected = r.Counter("dimd_jobs_rejected_total", "submissions refused with 429 (queue full)")
	m.completed = r.Counter("dimd_jobs_completed_total", "jobs finished successfully")
	m.failed = r.Counter("dimd_jobs_failed_total", "jobs finished with an error")
	m.canceled = r.Counter("dimd_jobs_canceled_total", "jobs canceled before completion")
	m.panics = r.Counter("dimd_job_panics_total", "worker panics contained to their job")
	m.recovered = r.Counter("dimd_jobs_recovered_total", "interrupted jobs re-enqueued at boot")
	m.deduped = r.Counter("dimd_jobs_deduped_total", "idempotent resubmits answered by an existing job")
	m.walRecords = r.Counter("dimd_wal_records_total", "journal records appended by this process")
	m.walReplayed = r.Counter("dimd_wal_replayed_total", "journal records replayed at boot")
	m.walTruncations = r.Counter("dimd_wal_truncations_total", "torn journal tails truncated at boot")
	m.walErrors = r.Counter("dimd_wal_errors_total", "journal writes that failed (durability degraded)")
	m.checkpoints = r.Counter("dimd_checkpoints_written_total", "job checkpoints persisted")
	m.resumes = r.Counter("dimd_job_resumes_total", "jobs resumed from a verified checkpoint")
	m.resumeRejected = r.Counter("dimd_resume_rejects_total", "checkpoints rejected as divergent (rerun from scratch)")

	r.CounterFunc("dimd_cache_hits_total", "submissions answered from the result cache",
		s.cache.hits.Load)
	r.CounterFunc("dimd_cache_misses_total", "submissions that had to simulate",
		s.cache.misses.Load)
	intGauge("dimd_cache_entries", "artifacts retained in the result cache",
		func() int64 { entries, _ := s.cache.stats(); return int64(entries) })
	intGauge("dimd_cache_bytes", "bytes retained in the result cache",
		func() int64 { _, bytes := s.cache.stats(); return bytes })
	r.CounterFunc("dimd_propstore_hits_total", "machines that found their leap propagators already in the store",
		func() int64 { return s.props.Stats().Hits })
	r.CounterFunc("dimd_propstore_misses_total", "machines that opened a new topology in the leap propagator store",
		func() int64 { return s.props.Stats().Misses })
	intGauge("dimd_propstore_bytes", "bytes of leap propagators held in the store",
		func() int64 { return s.props.Stats().Bytes })

	r.Text("dimd_sim_seconds_total", "virtual machine-seconds simulated", obs.TypeCounter,
		func() string { return fmt.Sprintf("%.6f", float64(m.simMicro.Load())/1e6) })
	r.Text("dimd_busy_seconds_total", "wall seconds spent executing jobs", obs.TypeCounter,
		func() string { return fmt.Sprintf("%.6f", float64(m.busyMicro.Load())/1e6) })
	r.Text("dimd_sim_seconds_per_second", "simulation throughput (virtual/wall)", obs.TypeGauge,
		func() string {
			sim := float64(m.simMicro.Load()) / 1e6
			busy := float64(m.busyMicro.Load()) / 1e6
			rate := 0.0
			if busy > 0 {
				rate = sim / busy
			}
			return fmt.Sprintf("%.3f", rate)
		})

	m.queueWait = r.Histogram("dimd_job_queue_wait_seconds",
		"seconds jobs waited in the admission queue before a worker picked them up", nil)
	m.runSeconds = r.Histogram("dimd_job_run_seconds",
		"wall seconds jobs spent executing", nil)
	m.cacheLookup = r.Histogram("dimd_cache_lookup_seconds",
		"result-cache lookup latency", nil)
	m.walFsync = r.Histogram("dimd_wal_fsync_seconds",
		"journal fsync latency", nil)
	m.submitLatency = r.Histogram("dimd_submit_latency_seconds",
		"POST /v1/jobs handler latency", nil)
	m.streamLatency = r.Histogram("dimd_stream_latency_seconds",
		"stream time-to-first-event latency", nil)

	// Cluster tier. The gauges read through s.clu so they render 0 on
	// single-node daemons — the metric *names* are identical everywhere,
	// which keeps the golden name list one list.
	intGauge("dimd_cluster_workers", "configured cluster workers (coordinator mode)",
		func() int64 {
			if s.clu == nil {
				return 0
			}
			return int64(s.clu.Monitor().WorkerCount())
		})
	intGauge("dimd_cluster_workers_healthy", "cluster workers currently passing heartbeats",
		func() int64 {
			if s.clu == nil {
				return 0
			}
			return int64(s.clu.Monitor().HealthyCount())
		})
	m.cluDispatched = r.Counter("dimd_cluster_shards_dispatched_total", "shard leases granted to workers")
	m.cluRetries = r.Counter("dimd_cluster_shard_retries_total", "shard leases granted past a shard's first attempt")
	m.cluExpirations = r.Counter("dimd_cluster_lease_expirations_total", "shard leases revoked by TTL expiry")
	m.cluLocal = r.Counter("dimd_cluster_shards_local_total", "shards degraded to in-process execution")
	m.cluDegraded = r.Counter("dimd_cluster_jobs_degraded_total", "jobs completed with at least one locally run shard")
	m.cluServed = r.Counter("dimd_cluster_shards_served_total", "shards executed for a remote coordinator")
	m.cluLeaseAge = r.Histogram("dimd_cluster_lease_age_seconds",
		"age of revoked shard leases at revocation", nil)
	// Incident-observability tier. The violation histogram is the burn-rate
	// evaluator's substrate; snapshot/incident counters alarm on the dump
	// machinery itself.
	m.fleetViolation = r.Histogram("dimd_fleet_violation_seconds",
		"per-machine thermal violation time over the measurement window", nil)
	m.snapshots = r.Counter("dimd_snapshots_total", "fleet snapshots captured")
	m.snapshotSeconds = r.Histogram("dimd_snapshot_seconds",
		"fleet snapshot capture latency", nil)
	m.incidents = r.Counter("dimd_incidents_total", "flight-recorder incident dumps recorded")
	m.sloBreaches = r.Counter("dimd_slo_breaches_total", "SLO burn-rate breach transitions")

	// Per-worker health/progress series, labeled by worker URL — dynamic, so
	// they live outside the pinned name list and render nothing on
	// non-coordinators.
	workerSamples := func(val func(ws cluster.WorkerStatus) float64) func() []obs.LabeledSample {
		return func() []obs.LabeledSample {
			if s.clu == nil {
				return nil
			}
			snap := s.clu.Monitor().Snapshot()
			out := make([]obs.LabeledSample, len(snap))
			for i, ws := range snap {
				out[i] = obs.LabeledSample{Label: ws.URL, Value: val(ws)}
			}
			return out
		}
	}
	r.Labeled("dimd_cluster_worker_healthy", "worker heartbeat health (1 healthy, 0 not)",
		obs.TypeGauge, "worker", workerSamples(func(ws cluster.WorkerStatus) float64 {
			if ws.Healthy {
				return 1
			}
			return 0
		}))
	r.Labeled("dimd_cluster_worker_shards_done", "shards completed per worker",
		obs.TypeCounter, "worker", workerSamples(func(ws cluster.WorkerStatus) float64 {
			return float64(ws.ShardsDone)
		}))
	r.Labeled("dimd_cluster_worker_shard_errors", "failed shard attempts per worker",
		obs.TypeCounter, "worker", workerSamples(func(ws cluster.WorkerStatus) float64 {
			return float64(ws.ShardErrors)
		}))

	// Per-layer job times render after everything else, and only once a job
	// has finished — the boot document stays pinned.
	m.layerNS = map[string]int64{}
	r.Labeled("dimd_job_layer_seconds_total", "wall seconds finished jobs spent per traced layer",
		obs.TypeCounter, "layer", m.layerSamples)
}

// foldLayers adds one finished job's own lifecycle, scenario and sched span
// times to dimd_job_layer_seconds_total, so /metrics and the job's trace name
// the same layers. Per-machine spans, the sampled round-NNNN spans and spans
// imported from cluster workers stay in the trace only.
func (m *metrics) foldLayers(tr *obs.Tracer) {
	m.layerMu.Lock()
	defer m.layerMu.Unlock()
	tr.EachOwn(func(name, cat string, durNS int64) {
		switch cat {
		case "lifecycle", "scenario", "sched":
			if !strings.HasPrefix(name, "round-") {
				m.layerNS[cat+"."+name] += durNS
			}
		}
	})
}

// layerSamples renders the per-layer totals in seconds, sorted by layer.
func (m *metrics) layerSamples() []obs.LabeledSample {
	m.layerMu.Lock()
	defer m.layerMu.Unlock()
	out := make([]obs.LabeledSample, 0, len(m.layerNS))
	for layer, ns := range m.layerNS {
		out = append(out, obs.LabeledSample{Label: layer, Value: float64(ns) / 1e9})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Label < out[b].Label })
	return out
}

func (m *metrics) addSim(simSeconds, busySeconds float64) {
	m.simMicro.Add(int64(simSeconds * 1e6))
	m.busyMicro.Add(int64(busySeconds * 1e6))
}
