package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/service"
)

// TestMain doubles as the chaos suite's daemon process: when re-execed with
// DIMD_CHAOS_CHILD=1, the test binary IS dimd (running main's run() with the
// flags from DIMD_CHAOS_FLAGS) — so kill -9 hits a real daemon process with
// real fsyncs, not a goroutine.
func TestMain(m *testing.M) {
	if os.Getenv("DIMD_CHAOS_CHILD") == "1" {
		os.Exit(run(strings.Fields(os.Getenv("DIMD_CHAOS_FLAGS")), os.Stdout, os.Stderr, nil))
	}
	os.Exit(m.Run())
}

// chaosSpec is the scheduled scenario the chaos suite murders repeatedly:
// long enough (120 round barriers) that every seeded kill lands mid-run,
// with checkpoint-every=1 so each barrier persists a resume token.
const chaosSpec = `{
	"name": "chaos-sched",
	"duration_s": 240,
	"fleet": {"machines": 2, "base_seed": 5},
	"machine": {"cores": 2},
	"scheduler": {
		"round_s": 2,
		"jobs": [{"name": "small", "rate": 0.5, "work_s": 3}]
	}
}`

// chaosFleetSpec is the unscheduled fleet the scenario leg kills: enough
// machines that a kill after the first few completions lands mid-run, each
// in its own ambient so every machine simulates for real.
const chaosFleetSpec = `{
	"name": "chaos-fleet",
	"duration_s": 600,
	"fleet": {"machines": 96, "base_seed": 17, "ambient_spread_c": 4},
	"machine": {"cores": 2},
	"workload": [{"kind": "burn", "threads": 1}]
}`

// chaosChild is one re-execed daemon process.
type chaosChild struct {
	cmd  *exec.Cmd
	base string // http://host:port
	out  *strings.Builder
	omu  *sync.Mutex
	done chan error
}

// startChild boots a daemon child over dataDir and waits for its listener.
func startChild(t *testing.T, dataDir string) *chaosChild {
	t.Helper()
	return startChildWith(t, "-addr 127.0.0.1:0 -workers 2 -checkpoint-every 1 -data-dir "+dataDir)
}

// startChildWith boots a daemon child with explicit flags (plus any extra
// environment entries, e.g. DIMD_FAULTS fault arming) and waits for its
// listener.
func startChildWith(t *testing.T, flags string, extraEnv ...string) *chaosChild {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		"DIMD_CHAOS_CHILD=1",
		"DIMD_CHAOS_FLAGS="+flags,
	)
	cmd.Env = append(cmd.Env, extraEnv...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatalf("stdout pipe: %v", err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting daemon child: %v", err)
	}
	// Last-resort reaping: if the test bails before its own sigterm/kill9,
	// don't leave a daemon process behind (Kill on a reaped process is a
	// harmless error).
	t.Cleanup(func() { _ = cmd.Process.Kill() })
	c := &chaosChild{cmd: cmd, out: &strings.Builder{}, omu: &sync.Mutex{}, done: make(chan error, 1)}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			c.omu.Lock()
			c.out.WriteString(line + "\n")
			c.omu.Unlock()
			if _, rest, ok := strings.Cut(line, "serving on "); ok {
				if addr, _, ok := strings.Cut(rest, " "); ok {
					select {
					case addrCh <- addr:
					default:
					}
				}
			}
		}
		c.done <- cmd.Wait()
	}()
	select {
	case addr := <-addrCh:
		c.base = "http://" + addr
	case err := <-c.done:
		t.Fatalf("daemon child exited before binding: %v\n%s", err, c.output())
	case <-time.After(30 * time.Second):
		_ = cmd.Process.Kill()
		t.Fatalf("daemon child did not bind in time\n%s", c.output())
	}
	return c
}

func (c *chaosChild) output() string {
	c.omu.Lock()
	defer c.omu.Unlock()
	return c.out.String()
}

// kill9 is the chaos verb: SIGKILL, no drain, no flushes.
func (c *chaosChild) kill9(t *testing.T) {
	t.Helper()
	if err := c.cmd.Process.Kill(); err != nil {
		t.Fatalf("kill -9: %v", err)
	}
	<-c.done
}

// sigterm asks for a graceful drain and asserts exit 0.
func (c *chaosChild) sigterm(t *testing.T) {
	t.Helper()
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("sigterm: %v", err)
	}
	select {
	case err := <-c.done:
		if err != nil {
			t.Fatalf("daemon exited non-zero after SIGTERM: %v\n%s", err, c.output())
		}
	case <-time.After(60 * time.Second):
		_ = c.cmd.Process.Kill()
		t.Fatalf("daemon did not drain after SIGTERM\n%s", c.output())
	}
}

func chaosRetry() service.RetryPolicy {
	return service.RetryPolicy{MaxAttempts: 8, BaseDelay: 10 * time.Millisecond, MaxDelay: 200 * time.Millisecond}
}

// fetchArtifact pulls a done job's rendered output and every file.
func fetchArtifact(t *testing.T, c *service.Client, id string) string {
	t.Helper()
	out, err := c.Output(id)
	if err != nil {
		t.Fatalf("output: %v", err)
	}
	names, err := c.Files(id)
	if err != nil {
		t.Fatalf("files: %v", err)
	}
	var b strings.Builder
	b.WriteString(out)
	for _, name := range names {
		data, err := c.File(id, name)
		if err != nil {
			t.Fatalf("file %s: %v", name, err)
		}
		b.WriteString("\x00" + name + "\x00")
		b.Write(data)
	}
	return b.String()
}

// TestChaosKillRecovery is the crash-safety acceptance test: a real daemon
// process is kill -9ed mid-run at five seeded round barriers; each time a
// restarted daemon over the same data directory must recover the journaled
// job, resume it from its last checkpoint via verified replay, and export
// bytes identical to an uninterrupted reference run.
func TestChaosKillRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite re-execs daemons; skipped in -short")
	}
	req := service.Request{Spec: []byte(chaosSpec)}

	// Uninterrupted reference: one clean daemon lifecycle.
	refDir := t.TempDir()
	ref := startChild(t, refDir)
	refClient := service.NewRetryClient(ref.base, chaosRetry())
	rv, err := refClient.Submit(req)
	if err != nil {
		t.Fatalf("reference submit: %v", err)
	}
	final, err := refClient.Wait(context.Background(), rv.ID)
	if err != nil || final.State != service.StateDone {
		t.Fatalf("reference run: %v (state %s %s)", err, final.State, final.Error)
	}
	want := fetchArtifact(t, refClient, rv.ID)
	ref.sigterm(t)

	// Seeded kill points: the round barrier after which the daemon dies.
	for _, killAfterRound := range []int{1, 3, 6, 11, 19} {
		t.Run(fmt.Sprintf("kill-after-round-%d", killAfterRound), func(t *testing.T) {
			dir := t.TempDir()
			victim := startChild(t, dir)
			c := service.NewRetryClient(victim.base, chaosRetry())
			v, err := c.Submit(req)
			if err != nil {
				t.Fatalf("submit: %v", err)
			}

			// Follow the stream until the job passes the kill barrier, then
			// murder the process. Stream errors after the kill are expected.
			rounds := 0
			ctx, cancel := context.WithCancel(context.Background())
			_ = c.Stream(ctx, v.ID, func(e service.Event) error {
				if e.Type == "round" {
					rounds++
					if rounds >= killAfterRound {
						return fmt.Errorf("kill point reached")
					}
				}
				if e.Type == "done" || e.Type == "error" {
					return fmt.Errorf("job finished before the kill point: %s", e.Type)
				}
				return nil
			})
			cancel()
			if rounds < killAfterRound {
				t.Fatalf("observed only %d rounds before stream ended", rounds)
			}
			victim.kill9(t)

			// Restart over the same data directory: the journaled job must
			// recover, resume, and finish with the reference bytes.
			revived := startChild(t, dir)
			defer revived.sigterm(t)
			if !strings.Contains(revived.output(), "recovered 1 interrupted job(s)") {
				t.Fatalf("restarted daemon did not report recovery:\n%s", revived.output())
			}
			c2 := service.NewRetryClient(revived.base, chaosRetry())
			final, err := c2.Wait(context.Background(), v.ID)
			if err != nil || final.State != service.StateDone {
				t.Fatalf("recovered job: %v (state %s %s)\n%s", err, final.State, final.Error, revived.output())
			}
			if got := fetchArtifact(t, c2, v.ID); got != want {
				t.Fatalf("kill after round %d: resumed run diverged from uninterrupted reference (%d vs %d bytes)",
					killAfterRound, len(got), len(want))
			}
		})
	}
}

// TestChaosKillScenarioResume is the single-node scenario leg: a real daemon
// is kill -9ed after K "machine" events of a fleet job. Each completion is
// durable in the job's resume log before it is announced, so the restarted
// daemon must report at least K machines precomputed, skip them, and export
// bytes identical to an uninterrupted run.
func TestChaosKillScenarioResume(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite re-execs daemons; skipped in -short")
	}
	const killAfter = 10
	req := service.Request{Spec: []byte(chaosFleetSpec)}

	ref := startChild(t, t.TempDir())
	refClient := service.NewRetryClient(ref.base, chaosRetry())
	rv, err := refClient.Submit(req)
	if err != nil {
		t.Fatalf("reference submit: %v", err)
	}
	final, err := refClient.Wait(context.Background(), rv.ID)
	if err != nil || final.State != service.StateDone {
		t.Fatalf("reference run: %v (state %s %s)", err, final.State, final.Error)
	}
	want := fetchArtifact(t, refClient, rv.ID)
	ref.sigterm(t)

	dir := t.TempDir()
	victim := startChild(t, dir)
	c := service.NewRetryClient(victim.base, chaosRetry())
	v, err := c.Submit(req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	machines := 0
	ctx, cancel := context.WithCancel(context.Background())
	_ = c.Stream(ctx, v.ID, func(e service.Event) error {
		if e.Type == "machine" {
			if machines++; machines >= killAfter {
				return fmt.Errorf("kill point reached")
			}
		}
		if e.Type == "done" || e.Type == "error" {
			return fmt.Errorf("job finished before the kill point: %s", e.Type)
		}
		return nil
	})
	cancel()
	if machines < killAfter {
		t.Fatalf("observed only %d machine events before the stream ended", machines)
	}
	victim.kill9(t)

	revived := startChild(t, dir)
	defer revived.sigterm(t)
	if !strings.Contains(revived.output(), "recovered 1 interrupted job(s)") {
		t.Fatalf("restarted daemon did not report recovery:\n%s", revived.output())
	}
	c2 := service.NewRetryClient(revived.base, chaosRetry())
	resumed := ""
	if err := c2.Stream(context.Background(), v.ID, func(e service.Event) error {
		if e.Type == "recovered" {
			resumed = e.Resumed
		}
		return nil
	}); err != nil {
		t.Fatalf("recovered stream: %v", err)
	}
	t.Logf("killed after %d machine events; restart resumed with %q", machines, resumed)
	var precomputed int
	if _, err := fmt.Sscanf(resumed, "%d machines precomputed", &precomputed); err != nil || precomputed < killAfter {
		t.Fatalf("recovered event says %q, want at least %d machines precomputed", resumed, killAfter)
	}
	final, err = c2.Job(v.ID)
	if err != nil || final.State != service.StateDone {
		t.Fatalf("recovered job: %v (state %s %s)\n%s", err, final.State, final.Error, revived.output())
	}
	if got := fetchArtifact(t, c2, v.ID); got != want {
		t.Fatalf("resumed fleet diverged from uninterrupted reference (%d vs %d bytes)", len(got), len(want))
	}
}

// TestChaosWorkerPanicSmoke arms the worker.panic fault point through the
// environment (the DIMD_FAULTS path cmd/dimd wires at boot) and checks the
// daemon contains it: the poisoned job fails with the panic message, the
// panic counter ticks, and the daemon keeps serving.
func TestChaosWorkerPanicSmoke(t *testing.T) {
	dir := t.TempDir()
	child := startChildWith(t, "-addr 127.0.0.1:0 -workers 1 -data-dir "+dir, "DIMD_FAULTS=worker.panic")
	defer child.sigterm(t)

	c := service.NewRetryClient(child.base, chaosRetry())
	v, err := c.Submit(service.Request{Spec: []byte(chaosSpec), Scale: 0.05})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	final, err := c.Wait(context.Background(), v.ID)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if final.State != service.StateFailed || !strings.Contains(final.Error, "worker panic") {
		t.Fatalf("poisoned job: state=%s err=%q, want failed with worker panic", final.State, final.Error)
	}
	// One-shot fault: the daemon must still run the next job to completion.
	v2, err := c.Submit(service.Request{Spec: []byte(chaosSpec), Scale: 0.05})
	if err != nil {
		t.Fatalf("post-panic submit: %v", err)
	}
	if final2, err := c.Wait(context.Background(), v2.ID); err != nil || final2.State != service.StateDone {
		t.Fatalf("daemon did not survive the panic: %v (state %s %s)", err, final2.State, final2.Error)
	}
	metrics, err := c.Metrics()
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	if !strings.Contains(metrics, "dimd_job_panics_total 1") {
		t.Fatalf("metrics missing dimd_job_panics_total 1:\n%s", metrics)
	}
}
