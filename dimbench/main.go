// Command dimbench is the repository's benchmark. It drives an in-process
// dimd — service.Open behind an httptest server, reached only through
// service.Client — with one of three seeded workloads, checks every output
// it gets back, and prints each metric by name with its unit. The last line
// of output is one JSON object with the keys correct, attempted, failed and
// metrics: the end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1. README.md describes the workloads and every metric.
//
// Run it from the repository root through run.sh, which builds it first:
//
//	bash dimbench/run.sh --workload fleet-cold --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// scratchRoot holds every run's data dirs, under the directory the benchmark
// runs from; run.sh keeps its build there too.
const scratchRoot = ".bench_build"

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("dimbench", flag.ContinueOnError)
	flags.SetOutput(stderr)
	names := workloadNames()
	name := flags.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := flags.Uint64("seed", 1, "workload seed; the same seed generates the same inputs")
	seconds := flags.Int("seconds", 10, "length of the measured window, in seconds")
	trace := flags.Int("trace", 0, "0 prints end-to-end metrics; 1 runs the traced pass and prints per-layer metrics")
	if err := flags.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || *trace < 0 || *trace > 1 || *seed >= maxSeed {
		fmt.Fprintf(stderr, "dimbench: want --workload %s, --seconds >= 1, --trace 0|1 and --seed below %d\n",
			strings.Join(names, "|"), uint64(maxSeed))
		return 2
	}
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		fmt.Fprintln(stderr, "dimbench:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(scratchRoot, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "dimbench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	b := &bench{
		seed: *seed, window: time.Duration(*seconds) * time.Second, traced: *trace == 1,
		tmp: tmp, out: stdout, metrics: map[string]metric{},
	}
	if err := w(b); err != nil {
		fmt.Fprintf(stderr, "dimbench: %s: %v\n", *name, err)
		return 1
	}
	if env, err := json.Marshal(stampEnv(tmp)); err == nil {
		b.logf("env %s", env)
	}
	keys := make([]string, 0, len(b.metrics))
	for k := range b.metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b.logf("%-30s %14.6g %s", k, b.metrics[k].Value, b.metrics[k].Unit)
	}
	line, err := json.Marshal(result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: b.metrics})
	if err != nil {
		fmt.Fprintf(stderr, "dimbench: %s: %v\n", *name, err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// bench is one run: its settings, its tally of attempted and failed
// operations, and the metrics it prints.
type bench struct {
	seed   uint64
	window time.Duration
	traced bool
	tmp    string
	out    io.Writer
	dirs   int

	mu        sync.Mutex // guards the tally and out: serve-mix lanes check concurrently
	attempted int
	failed    int
	metrics   map[string]metric
}

// metric is one printed figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (b *bench) logf(format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	fmt.Fprintf(b.out, "# "+format+"\n", args...)
}

// check counts one attempted operation, and a failure when err is non-nil:
// a refused or failed submission, or bytes that differ from what they must
// be. A run with any failure prints correct=false.
func (b *bench) check(err error) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted++
	if err != nil {
		b.failed++
		if b.failed <= 5 {
			fmt.Fprintf(b.out, "# error: %v\n", err)
		}
	}
	return err == nil
}

func (b *bench) set(name, unit string, v float64) { b.metrics[name] = metric{Value: v, Unit: unit} }

// dataDir names a fresh data dir for one daemon.
func (b *bench) dataDir() string {
	b.dirs++
	return filepath.Join(b.tmp, fmt.Sprintf("data-%d", b.dirs))
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
