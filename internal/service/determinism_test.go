package service_test

// Daemon-vs-CLI determinism: the acceptance bar for the serving layer is
// that going through dimd changes *where* a result is computed, never its
// bytes. These tests run library scenarios both ways — the CLI path
// (scenario/fleetsched Run + Export, exactly what `dimctl scenario run` and
// `dimctl scenario export` call) and the daemon path (HTTP submit, rendered
// output and file downloads) — and require byte equality.

import (
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	dimetrodon "repro"
	"repro/internal/engine"
	"repro/internal/fleetsched"
	"repro/internal/scenario"
	"repro/internal/service"
)

// goldenScale matches the golden-trace fixtures' scale: big enough to
// exercise every engine seam, small enough for tier-1.
const goldenScale = 0.05

func newDaemon(t *testing.T) *service.Client {
	t.Helper()
	svc := service.New(service.Config{Workers: 2, DefaultScale: goldenScale})
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = svc.Shutdown(ctx)
		srv.Close()
	})
	return service.NewClient(srv.URL)
}

func runRemote(t *testing.T, c *service.Client, req service.Request) service.JobView {
	t.Helper()
	v, err := c.Submit(req)
	if err != nil {
		t.Fatalf("submit %+v: %v", req, err)
	}
	final, err := c.Wait(context.Background(), v.ID)
	if err != nil {
		t.Fatalf("wait %s: %v", v.ID, err)
	}
	if final.State != service.StateDone {
		t.Fatalf("job %s finished %s: %s", final.ID, final.State, final.Error)
	}
	return final
}

// compareFiles downloads every daemon artefact and byte-compares it with the
// file of the same name the CLI export wrote into dir.
func compareFiles(t *testing.T, c *service.Client, job service.JobView, dir string, wantPaths []string) {
	t.Helper()
	if len(job.Files) != len(wantPaths) {
		t.Fatalf("daemon exported %d files %v, CLI exported %d %v",
			len(job.Files), job.Files, len(wantPaths), wantPaths)
	}
	for _, name := range job.Files {
		remote, err := c.File(job.ID, name)
		if err != nil {
			t.Fatalf("download %s: %v", name, err)
		}
		local, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("CLI export missing %s: %v", name, err)
		}
		if string(remote) != string(local) {
			t.Errorf("daemon artefact %s differs from the CLI export (remote %d bytes, local %d)",
				name, len(remote), len(local))
		}
	}
}

func TestDaemonScenarioByteIdenticalToCLI(t *testing.T) {
	const name = "fleet-diurnal"
	c := newDaemon(t)

	res, err := scenario.RunByName(name, goldenScale, engine.Config{})
	if err != nil {
		t.Fatalf("local run: %v", err)
	}
	dir := t.TempDir()
	if _, err := scenario.Export(name, goldenScale, dir, engine.Config{}); err != nil {
		t.Fatalf("local export: %v", err)
	}
	paths, _ := filepath.Glob(filepath.Join(dir, "*"))

	job := runRemote(t, c, service.Request{Name: name, Scale: goldenScale})
	out, err := c.Output(job.ID)
	if err != nil {
		t.Fatalf("output: %v", err)
	}
	if out != res.String() {
		t.Errorf("daemon rendered output differs from `dimctl scenario run` body")
	}
	compareFiles(t, c, job, dir, paths)
}

func TestDaemonSchedByteIdenticalToCLI(t *testing.T) {
	const name = "sched-shootout"
	c := newDaemon(t)

	res, err := fleetsched.RunByName(name, "", goldenScale, engine.Config{})
	if err != nil {
		t.Fatalf("local run: %v", err)
	}
	dir := t.TempDir()
	if _, err := fleetsched.Export(name, goldenScale, dir, engine.Config{}); err != nil {
		t.Fatalf("local export: %v", err)
	}
	paths, _ := filepath.Glob(filepath.Join(dir, "*"))

	job := runRemote(t, c, service.Request{Name: name, Scale: goldenScale})
	out, err := c.Output(job.ID)
	if err != nil {
		t.Fatalf("output: %v", err)
	}
	if out != res.String() {
		t.Errorf("daemon rendered output differs from `dimctl sched run` body")
	}
	compareFiles(t, c, job, dir, paths)

	// The cache answers the repeat submission with the same bytes.
	again := runRemote(t, c, service.Request{Name: name, Scale: goldenScale})
	if !again.CacheHit {
		t.Fatalf("identical sched submission missed the cache")
	}
	out2, _ := c.Output(again.ID)
	if out2 != out {
		t.Errorf("cached output differs from the original")
	}
}

func TestDaemonExperimentByteIdenticalToCLI(t *testing.T) {
	const id = "fig2"
	c := newDaemon(t)

	e, ok := dimetrodon.LookupExperiment(id)
	if !ok {
		t.Fatalf("local run: unknown experiment %q", id)
	}
	localOut := e.Run(goldenScale, dimetrodon.Engine{}).String() + "\n"
	dir := t.TempDir()
	if _, err := dimetrodon.Export(id, dimetrodon.Scale(goldenScale), dir, dimetrodon.Engine{}); err != nil {
		t.Fatalf("local export: %v", err)
	}
	paths, _ := filepath.Glob(filepath.Join(dir, "*"))

	job := runRemote(t, c, service.Request{Name: id, Scale: goldenScale})
	out, err := c.Output(job.ID)
	if err != nil {
		t.Fatalf("output: %v", err)
	}
	if out != localOut {
		t.Errorf("daemon rendered output differs from `dimctl run` body")
	}
	compareFiles(t, c, job, dir, paths)
}
