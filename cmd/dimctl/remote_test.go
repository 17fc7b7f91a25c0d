package main

import (
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
)

// newTestDaemon boots an in-process dimd core behind httptest and returns
// its base URL.
func newTestDaemon(t *testing.T) string {
	t.Helper()
	svc := service.New(service.Config{Workers: 2, DefaultScale: 0.05})
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = svc.Shutdown(ctx)
		srv.Close()
	})
	return srv.URL
}

func TestRemoteRunMatchesLocalScenarioRun(t *testing.T) {
	addr := newTestDaemon(t)

	lcode, localOut, lerr := runCLI(t, "-scale", "0.05", "scenario", "run", "fleet-diurnal")
	if lcode != 0 {
		t.Fatalf("local run failed: %s", lerr)
	}
	rcode, remoteOut, rerr := runCLI(t, "remote", "run", "fleet-diurnal", "-addr", addr, "-scale", "0.05")
	if rcode != 0 {
		t.Fatalf("remote run failed: %s", rerr)
	}
	// The rendered body between the banner and footer lines must be
	// byte-identical; the frames carry wall-clock timings and job IDs.
	if body(t, localOut) != body(t, remoteOut) {
		t.Fatalf("remote body differs from local:\n--- local ---\n%s\n--- remote ---\n%s", localOut, remoteOut)
	}
}

// body strips the ==== banner and ---- footer frames.
func body(t *testing.T, out string) string {
	t.Helper()
	var keep []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "====") || strings.HasPrefix(line, "----") {
			continue
		}
		keep = append(keep, line)
	}
	return strings.Join(keep, "\n")
}

func TestRemoteExportMatchesLocalExport(t *testing.T) {
	addr := newTestDaemon(t)
	localDir := t.TempDir()
	remoteDir := t.TempDir()

	lcode, _, lerr := runCLI(t, "-scale", "0.05", "-out", localDir, "scenario", "export", "sched-shootout")
	if lcode != 0 {
		t.Fatalf("local export failed: %s", lerr)
	}
	rcode, stdout, rerr := runCLI(t, "remote", "export", "sched-shootout", "-addr", addr, "-scale", "0.05", "-out", remoteDir)
	if rcode != 0 {
		t.Fatalf("remote export failed: %s", rerr)
	}
	if !strings.Contains(stdout, "sched_shootout") {
		t.Fatalf("remote export listed no artefacts:\n%s", stdout)
	}
	locals, err := filepath.Glob(filepath.Join(localDir, "*"))
	if err != nil || len(locals) == 0 {
		t.Fatalf("local export produced nothing: %v", err)
	}
	for _, lp := range locals {
		rp := filepath.Join(remoteDir, filepath.Base(lp))
		lb, err := os.ReadFile(lp)
		if err != nil {
			t.Fatalf("read %s: %v", lp, err)
		}
		rb, err := os.ReadFile(rp)
		if err != nil {
			t.Fatalf("remote export missing %s: %v", filepath.Base(lp), err)
		}
		if string(lb) != string(rb) {
			t.Fatalf("remote artefact %s differs from local export", filepath.Base(lp))
		}
	}
}

func TestRemoteStreamAndJobs(t *testing.T) {
	addr := newTestDaemon(t)

	code, stdout, stderr := runCLI(t, "remote", "stream", "sched-shootout", "-addr", addr, "-scale", "0.05")
	if code != 0 {
		t.Fatalf("remote stream failed: %s", stderr)
	}
	if !strings.Contains(stdout, `"type":"round"`) || !strings.Contains(stdout, `"type":"done"`) {
		t.Fatalf("stream output missing round/done events:\n%s", stdout)
	}

	// Flags are accepted before the subcommand too, as the usage documents.
	code, stdout, stderr = runCLI(t, "remote", "-addr", addr, "jobs")
	if code != 0 {
		t.Fatalf("remote jobs failed: %s", stderr)
	}
	if !strings.Contains(stdout, "sched-shootout") || !strings.Contains(stdout, "done") {
		t.Fatalf("jobs listing incomplete:\n%s", stdout)
	}

	code, stdout, stderr = runCLI(t, "remote", "metrics", "-addr", addr)
	if code != 0 {
		t.Fatalf("remote metrics failed: %s", stderr)
	}
	if !strings.Contains(stdout, "dimd_jobs_completed_total 1") {
		t.Fatalf("metrics missing completion count:\n%s", stdout)
	}
}

func TestRemoteErrors(t *testing.T) {
	addr := newTestDaemon(t)
	if code, _, stderr := runCLI(t, "remote", "run", "no-such-thing", "-addr", addr); code == 0 {
		t.Fatal("unknown remote target exited zero")
	} else if !strings.Contains(stderr, "no-such-thing") {
		t.Fatalf("stderr does not name the unknown target: %s", stderr)
	}
	if code, _, _ := runCLI(t, "remote"); code != 2 {
		t.Fatalf("bare remote exited %d, want 2", code)
	}
	if code, _, _ := runCLI(t, "remote", "status"); code != 2 {
		t.Fatalf("remote status without IDs exited %d, want 2", code)
	}
}

// newDegradedCoordinator boots a coordinator whose static worker set was
// never alive: every clustered scenario job degrades to local execution.
func newDegradedCoordinator(t *testing.T) string {
	t.Helper()
	cfg := service.Config{Workers: 2, DefaultScale: 0.05}
	cfg.Cluster.Workers = []string{"http://127.0.0.1:1", "http://127.0.0.1:2"}
	cfg.Cluster.LeaseTTL = 300 * time.Millisecond
	cfg.Cluster.HeartbeatEvery = 50 * time.Millisecond
	svc := service.New(cfg)
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = svc.Shutdown(ctx)
		srv.Close()
	})
	return srv.URL
}

// TestRemoteClusterStatus: `remote cluster` reports single-node daemons as
// disabled and coordinators with their worker fleet detail.
func TestRemoteClusterStatus(t *testing.T) {
	addr := newTestDaemon(t)
	code, stdout, stderr := runCLI(t, "remote", "cluster", "-addr", addr)
	if code != 0 {
		t.Fatalf("remote cluster against single-node daemon failed: %s", stderr)
	}
	if !strings.Contains(stdout, "disabled") {
		t.Fatalf("single-node cluster status not reported disabled:\n%s", stdout)
	}

	coord := newDegradedCoordinator(t)
	code, stdout, stderr = runCLI(t, "remote", "cluster", "-addr", coord)
	if code != 0 {
		t.Fatalf("remote cluster against coordinator failed: %s", stderr)
	}
	if !strings.Contains(stdout, "workers healthy") || !strings.Contains(stdout, "http://127.0.0.1:1") {
		t.Fatalf("coordinator cluster status missing fleet detail:\n%s", stdout)
	}
}

// TestRemoteRunWarnsDegraded pins the satellite bugfix: a clustered job that
// completed degraded produces byte-correct output, so without an explicit
// warning the operator cannot tell capacity silently collapsed. The run must
// succeed AND name the degradation on stderr, pointing at `remote cluster`.
func TestRemoteRunWarnsDegraded(t *testing.T) {
	coord := newDegradedCoordinator(t)

	code, stdout, stderr := runCLI(t, "remote", "run", "fleet-diurnal", "-addr", coord, "-scale", "0.05")
	if code != 0 {
		t.Fatalf("degraded remote run failed (results are correct, it must succeed): %s", stderr)
	}
	if !strings.Contains(stdout, "fleet-diurnal") {
		t.Fatalf("degraded run produced no report:\n%s", stdout)
	}
	if !strings.Contains(stderr, "DEGRADED") || !strings.Contains(stderr, "dimctl remote cluster") {
		t.Fatalf("degraded run did not warn distinctly on stderr: %q", stderr)
	}

	// Same distinct signal on the export path. A different scale forces a
	// fresh degraded run — a cache hit of the earlier artifact would not be
	// degraded (nothing dispatched), and must not warn.
	outDir := t.TempDir()
	code, _, stderr = runCLI(t, "remote", "export", "fleet-diurnal", "-addr", coord, "-scale", "0.04", "-out", outDir)
	if code != 0 {
		t.Fatalf("degraded remote export failed: %s", stderr)
	}
	if !strings.Contains(stderr, "DEGRADED") {
		t.Fatalf("degraded export did not warn on stderr: %q", stderr)
	}
}
