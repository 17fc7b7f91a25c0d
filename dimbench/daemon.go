package main

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/export"
	"repro/internal/scenario"
	"repro/internal/service"
)

// daemon is an in-process dimd: the service core behind an httptest server,
// reached only through service.Client, the way a remote client reaches it.
type daemon struct {
	dir string // "" for an in-memory daemon
	svc *service.Service
	srv *httptest.Server
	tr  *http.Transport
	c   *service.Client
}

// openDaemon opens a daemon with one job executor per CPU. A non-empty dir
// makes it durable, with the default checkpointing on; reopening a used dir
// replays its journal.
func openDaemon(dir string) (*daemon, error) {
	svc, err := service.Open(service.Config{Workers: runtime.GOMAXPROCS(0), DataDir: dir})
	if err != nil {
		return nil, fmt.Errorf("opening daemon: %w", err)
	}
	srv := httptest.NewServer(svc.Handler())
	// Room for every lane's request and its open stream, so calls reuse
	// connections rather than dial.
	tr := &http.Transport{MaxIdleConnsPerHost: 2 * serveLanes}
	c := service.NewClient(srv.URL)
	c.HTTP = &http.Client{Transport: tr}
	return &daemon{dir: dir, svc: svc, srv: srv, tr: tr, c: c}, nil
}

// close stops the server, then drains and shuts down the daemon.
func (d *daemon) close() error {
	d.tr.CloseIdleConnections()
	d.srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	return d.svc.Shutdown(ctx)
}

// artifact is a job's output as a client reads it: the rendered report and
// the files, in the daemon's order.
type artifact struct {
	output string
	files  []export.File
}

// sameBytes checks got byte for byte against the library's rendering.
func sameBytes(got, want artifact) error {
	if got.output != want.output {
		return errors.New("wrong output: the report differs from the library's")
	}
	if len(got.files) != len(want.files) {
		return fmt.Errorf("wrong output: %d files, the library renders %d", len(got.files), len(want.files))
	}
	for i, f := range want.files {
		if got.files[i] != f {
			return fmt.Errorf("wrong output: file %s differs from the library's", f.Name)
		}
	}
	return nil
}

// coldJob is one cold job's timeline — the client's clock around each call,
// and the daemon's own stamps in the final view — with what it returned.
type coldJob struct {
	due       time.Time // when the request was due; t0 in a closed loop
	t0        time.Time // Submit called
	submitted time.Time // Submit returned
	waited    time.Time // Wait returned: the job is terminal
	fetched   time.Time // report and files fetched
	view      service.JobView
	spec      *scenario.Spec
	art       artifact
}

// cold submits a spec the daemon has not seen, waits for its job, and
// fetches the report and every file.
func (d *daemon) cold(req service.Request) (coldJob, error) {
	j := coldJob{t0: time.Now()}
	j.due = j.t0
	v, err := d.c.Submit(req)
	j.submitted = time.Now()
	if err != nil {
		return j, fmt.Errorf("submit: %w", err)
	}
	if v.CacheHit {
		return j, fmt.Errorf("job %s: a fresh spec was answered from the cache", v.ID)
	}
	if j.view, err = d.c.Wait(context.Background(), v.ID); err != nil {
		return j, fmt.Errorf("job %s: wait: %w", v.ID, err)
	}
	j.waited = time.Now()
	if j.view.State != service.StateDone || j.view.StartedAt == nil || j.view.FinishedAt == nil {
		return j, fmt.Errorf("job %s finished %s: %s", v.ID, j.view.State, j.view.Error)
	}
	if j.art.output, err = d.c.Output(v.ID); err != nil {
		return j, fmt.Errorf("job %s: output: %w", v.ID, err)
	}
	for _, name := range j.view.Files {
		data, err := d.c.File(v.ID, name)
		if err != nil {
			return j, fmt.Errorf("job %s: file %s: %w", v.ID, name, err)
		}
		j.art.files = append(j.art.files, export.File{Name: name, Content: string(data)})
	}
	j.fetched = time.Now()
	return j, nil
}

// hit resubmits a spec whose job has completed and fetches its report. The
// daemon must answer from its cache, with the cold run's bytes. It returns
// the Submit round trip.
func (d *daemon) hit(req service.Request, want string) (time.Duration, error) {
	t0 := time.Now()
	v, err := d.c.Submit(req)
	rpc := time.Since(t0)
	if err != nil {
		return rpc, fmt.Errorf("submit: %w", err)
	}
	if !v.CacheHit || v.State != service.StateDone {
		return rpc, fmt.Errorf("job %s: a resubmission was not answered from the cache (%s)", v.ID, v.State)
	}
	out, err := d.c.Output(v.ID)
	if err != nil {
		return rpc, fmt.Errorf("job %s: output: %w", v.ID, err)
	}
	if out != want {
		return rpc, fmt.Errorf("job %s: wrong output: a cache hit differs from its cold run", v.ID)
	}
	return rpc, nil
}

// begin opens a measured window. end reads the daemon's counters and the
// process's storage writes again, so the window's share of each is a
// difference.
func (d *daemon) begin() (*samples, error) {
	s := &samples{}
	var err error
	s.met0, err = d.scrape()
	// /proc/self/io can be unreadable in a sandbox; the write metric then reads 0.
	s.io0, _ = procValue("/proc/self/io", "write_bytes")
	return s, err
}

func (d *daemon) end(s *samples) error {
	var err error
	s.met1, err = d.scrape()
	s.io1, _ = procValue("/proc/self/io", "write_bytes")
	return err
}

// scrape reads the daemon's /metrics exposition into series → value.
func (d *daemon) scrape() (map[string]float64, error) {
	text, err := d.c.Metrics()
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	m := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		i := strings.LastIndexByte(line, ' ')
		if line == "" || line[0] == '#' || i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			m[line[:i]] = v
		}
	}
	return m, nil
}

// dirSize sums the sizes of the regular files under dir; 0 for "".
func dirSize(dir string) int64 {
	if dir == "" {
		return 0
	}
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil {
			return nil // a checkpoint renamed away mid-walk is simply skipped
		}
		if e.Type().IsRegular() {
			if info, err := e.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// procValue reads the first number of a "key: value" line in a /proc file.
func procValue(path, key string) (int64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		k, v, ok := strings.Cut(line, ":")
		if f := strings.Fields(v); ok && k == key && len(f) > 0 {
			return strconv.ParseInt(f[0], 10, 64)
		}
	}
	return 0, fmt.Errorf("%s has no %s line", path, key)
}

// peakRSSMB is the process's peak resident set so far, in MiB. NaN, which
// fails the run, when the kernel does not report it.
func peakRSSMB() float64 {
	kb, err := procValue("/proc/self/status", "VmHWM")
	if err != nil {
		return math.NaN()
	}
	return float64(kb) / 1024
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
