// Command dimd is the Dimetrodon simulation daemon: a long-running HTTP
// service that accepts experiment/scenario/sched jobs, runs them on a
// bounded worker pool, streams per-round fleet telemetry (NDJSON/SSE),
// caches results by canonical spec hash, and exports the same byte-identical
// reports and CSVs the dimctl CLI produces.
//
// Usage:
//
//	dimd                              serve on :8080
//	dimd -addr 127.0.0.1:9090         serve elsewhere
//	dimd -workers 4 -queue 256        size the pool and admission queue
//	dimd -cache-mb 128                size the result cache
//	dimd -data-dir /var/lib/dimd      durable: journal + checkpoints + artifacts
//	dimd -role worker                 shard worker for a remote coordinator
//	dimd -role coordinator -cluster-workers http://w1:8080,http://w2:8080
//	                                  fan scenario fleets out across workers
//	dimd -flight-records 8192         size the incident flight-recorder ring
//	dimd -slo-queue-wait 0.5 -slo-violation 2
//	                                  arm SLO burn-rate rules; breaches auto-dump incidents
//
// In coordinator mode, scenario jobs are split into machine-range shards and
// dispatched to the static worker set under TTL leases: a worker that dies,
// stalls, or truncates its result stream mid-shard has its lease revoked and
// the missing machines re-dispatched (or, when no healthy worker remains, run
// locally — the job completes degraded rather than failing). Results merge in
// fixed machine order, so the exported bytes are identical to a single-node
// run regardless of which workers failed along the way. Worker mode is an
// ordinary daemon with a name tag: every dimd serves the shard endpoints.
//
// With -data-dir the daemon is crash-safe: accepted jobs journal to a WAL
// before the submission is acknowledged, in-flight jobs append each finished
// machine or round checkpoint to a per-job resume log, and a restart (clean
// or kill -9) recovers the job table, warms the result cache from persisted
// artifacts, and re-runs interrupted jobs to byte-identical results —
// skipping finished fleet machines and resuming scheduled runs from their
// last verified checkpoint.
//
// SIGINT/SIGTERM drain gracefully: admission stops (429/503), running jobs
// finish (up to -drain-timeout, then their contexts are cancelled) and the
// process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/faultinject"
	"repro/internal/service"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil))
}

// run is the testable entry point: it serves until a termination signal (or
// the optional test-injected stop channel) fires, then drains. ready, when
// non-nil, receives the bound address once the listener is up.
func run(args []string, stdout, stderr io.Writer, ready chan<- string) int {
	fs := flag.NewFlagSet("dimd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8080", "listen address")
	workers := fs.Int("workers", 0, "concurrent job executors; 0 = GOMAXPROCS")
	queue := fs.Int("queue", 256, "admission queue depth (full = 429 + Retry-After)")
	cacheMB := fs.Int("cache-mb", 64, "result cache budget in MiB")
	scale := fs.Float64("scale", 1.0, "default job scale when a request omits one")
	jobs := fs.Int("jobs", 0, "per-job trial parallelism; 0 = GOMAXPROCS")
	integrator := fs.String("integrator", "", "thermal integrator: exact or leap; default: experiments exact, scenario/sched leap")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "graceful drain bound before in-flight jobs are cancelled")
	dataDir := fs.String("data-dir", "", "durable state directory (job journal, checkpoints, artifacts); empty = in-memory")
	checkpointEvery := fs.Int("checkpoint-every", 0, "scheduled-run checkpoint cadence in round barriers; 0 = default (5), negative disables")
	role := fs.String("role", "", "cluster role: coordinator, worker, or empty for single-node")
	clusterWorkers := fs.String("cluster-workers", "", "comma-separated worker base URLs (coordinator role only)")
	leaseTTL := fs.Duration("lease-ttl", 0, "shard lease TTL before a silent worker is presumed dead; 0 = default")
	heartbeatEvery := fs.Duration("heartbeat-every", 0, "worker health-probe cadence; 0 = default")
	flightRecords := fs.Int("flight-records", 0, "flight-recorder ring size; 0 = default (4096), negative disables")
	maxIncidents := fs.Int("max-incidents", 0, "retained incident dumps; 0 = default (32)")
	sloQueueWait := fs.Float64("slo-queue-wait", 0, "queue-wait SLO threshold in seconds; 0 disables the rule")
	sloViolation := fs.Float64("slo-violation", 0, "per-machine thermal-violation SLO threshold in seconds; 0 disables the rule")
	sloBurnBudget := fs.Float64("slo-burn-budget", 0, "tolerated bad fraction per SLO window; 0 = default (0.1)")
	sloMinEvents := fs.Int("slo-min-events", 0, "minimum new observations before an SLO window evaluates; 0 = default (8)")
	logFormat := fs.String("log-format", "text", "structured log format on stderr: text, json or off")
	logLevel := fs.String("log-level", "info", "minimum structured log level: debug, info, warn or error")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if len(fs.Args()) > 0 {
		fmt.Fprintf(stderr, "dimd: unexpected arguments %v\n", fs.Args())
		return 2
	}
	ec := engine.Config{Integrator: *integrator, Jobs: *jobs}
	if err := ec.Validate(); err != nil {
		fmt.Fprintf(stderr, "dimd: %v\n", err)
		return 2
	}
	// The chaos harness arms fault points through the environment; a
	// malformed spec refuses to start rather than run half-armed.
	if err := faultinject.ConfigureFromEnv(); err != nil {
		fmt.Fprintf(stderr, "dimd: %v\n", err)
		return 2
	}
	logger, err := buildLogger(stderr, *logFormat, *logLevel)
	if err != nil {
		fmt.Fprintf(stderr, "dimd: %v\n", err)
		return 2
	}

	var workerURLs []string
	switch *role {
	case "coordinator":
		for _, u := range strings.Split(*clusterWorkers, ",") {
			if u = strings.TrimSpace(u); u != "" {
				workerURLs = append(workerURLs, u)
			}
		}
		if len(workerURLs) == 0 {
			fmt.Fprintln(stderr, "dimd: -role coordinator needs -cluster-workers (comma-separated worker URLs)")
			return 2
		}
	case "", "worker":
		// A worker is an ordinary daemon — the role flag only names it in the
		// startup line. Cluster topology flags belong to the coordinator.
		if *clusterWorkers != "" {
			fmt.Fprintf(stderr, "dimd: -cluster-workers only applies to -role coordinator (role is %q)\n", *role)
			return 2
		}
		if *leaseTTL != 0 || *heartbeatEvery != 0 {
			fmt.Fprintf(stderr, "dimd: -lease-ttl/-heartbeat-every only apply to -role coordinator (role is %q)\n", *role)
			return 2
		}
	default:
		fmt.Fprintf(stderr, "dimd: unknown -role %q (want coordinator, worker, or empty)\n", *role)
		return 2
	}

	if *dataDir != "" {
		cleanupPid, err := writePidFile(*dataDir, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "dimd: %v\n", err)
			return 1
		}
		defer cleanupPid()
	}

	cfg := service.Config{
		Workers:         *workers,
		QueueDepth:      *queue,
		CacheBytes:      int64(*cacheMB) << 20,
		DefaultScale:    *scale,
		DataDir:         *dataDir,
		CheckpointEvery: *checkpointEvery,
		Logger:          logger,
		Engine:          ec,
	}
	cfg.Cluster.Workers = workerURLs
	cfg.Cluster.LeaseTTL = *leaseTTL
	cfg.Cluster.HeartbeatEvery = *heartbeatEvery
	cfg.FlightRecords = *flightRecords
	cfg.MaxIncidents = *maxIncidents
	cfg.SLO.QueueWaitS = *sloQueueWait
	cfg.SLO.ViolationS = *sloViolation
	cfg.SLO.Budget = *sloBurnBudget
	cfg.SLO.MinEvents = *sloMinEvents
	svc, err := service.Open(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "dimd: %v\n", err)
		return 1
	}
	if *dataDir != "" {
		fmt.Fprintf(stdout, "dimd: durable in %s, recovered %d interrupted job(s)\n", *dataDir, svc.Recovered())
	}
	switch *role {
	case "coordinator":
		fmt.Fprintf(stdout, "dimd: coordinator over %d worker(s): %s\n", len(workerURLs), strings.Join(workerURLs, ", "))
	case "worker":
		fmt.Fprintf(stdout, "dimd: worker mode, serving shards\n")
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "dimd: %v\n", err)
		return 1
	}
	srv := &http.Server{Handler: svc.Handler()}
	fmt.Fprintf(stdout, "dimd: serving on %s (workers=%d queue=%d cache=%dMiB)\n",
		ln.Addr(), *workers, *queue, *cacheMB)
	if ready != nil {
		ready <- ln.Addr().String()
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sig)
	select {
	case got := <-sig:
		fmt.Fprintf(stdout, "dimd: %v, draining (timeout %v)\n", got, *drainTimeout)
	case err := <-serveErr:
		fmt.Fprintf(stderr, "dimd: serve: %v\n", err)
		return 1
	}

	// Drain: stop job admission first so /healthz flips to draining while
	// in-flight jobs finish, then close the HTTP listener.
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		fmt.Fprintf(stdout, "dimd: drain timeout, in-flight jobs cancelled\n")
	}
	if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(stderr, "dimd: shutdown: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, "dimd: drained, bye")
	return 0
}

// buildLogger assembles the daemon's structured logger from the -log-format
// and -log-level flags. Logs go to stderr so the human-readable stdout lines
// ("serving on", "drained, bye") stay machine-greppable; "off" keeps the
// logger nil, which the service discards.
func buildLogger(stderr io.Writer, format, level string) (*slog.Logger, error) {
	if format == "off" {
		return nil, nil
	}
	var lvl slog.Level
	switch level {
	case "debug":
		lvl = slog.LevelDebug
	case "info":
		lvl = slog.LevelInfo
	case "warn":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown -log-level %q (want debug, info, warn or error)", level)
	}
	ho := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(stderr, ho)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(stderr, ho)), nil
	}
	return nil, fmt.Errorf("unknown -log-format %q (want text, json or off)", format)
}

// writePidFile claims the data directory via dimd.pid, refusing to start
// while another live dimd owns it and clearing a stale file left by a
// crashed one (the crash-recovery path: the journal, not the pid file, is
// the source of truth). Returns the cleanup to run on graceful exit.
func writePidFile(dataDir string, stderr io.Writer) (func(), error) {
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dataDir, "dimd.pid")
	if raw, err := os.ReadFile(path); err == nil {
		if pid, perr := strconv.Atoi(strings.TrimSpace(string(raw))); perr == nil && pid > 0 {
			// Signal 0 probes liveness without touching the process.
			if syscall.Kill(pid, 0) == nil {
				return nil, fmt.Errorf("data dir %s is owned by running dimd pid %d (remove %s if that is wrong)", dataDir, pid, path)
			}
			fmt.Fprintf(stderr, "dimd: clearing stale pid file (pid %d is gone)\n", pid)
		}
	}
	if err := os.WriteFile(path, []byte(strconv.Itoa(os.Getpid())+"\n"), 0o644); err != nil {
		return nil, err
	}
	return func() { _ = os.Remove(path) }, nil
}
