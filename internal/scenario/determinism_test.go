package scenario

import (
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/machine"
)

// TestFleetDeterministicAcrossJobs extends the runner's central contract to
// fleet scenarios: the rendered fleet output and the exported CSV bytes are
// identical at any parallelism level, because every machine derives its
// entire stochastic state from its identity-derived seed. This mirrors the
// Figure 3 regression test in internal/experiments, over the sharded-fleet
// path instead of a trial sweep.
func TestFleetDeterministicAcrossJobs(t *testing.T) {
	render := func(jobs int) (string, string) {
		res, err := RunByName("fleet-diurnal", 0.02, engine.Config{Jobs: jobs})
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		paths, err := ExportResult(res, dir)
		if err != nil {
			t.Fatal(err)
		}
		var csv string
		for _, p := range paths {
			csv += p[len(dir):] + "\n" + readFile(t, p)
		}
		return res.String(), csv
	}

	serialOut, serialCSV := render(1)
	parallelOut, parallelCSV := render(8)
	if serialOut != parallelOut {
		t.Fatalf("fleet output differs between -jobs 1 and -jobs 8:\n--- jobs=1 ---\n%s\n--- jobs=8 ---\n%s", serialOut, parallelOut)
	}
	if serialCSV != parallelCSV {
		t.Fatal("exported fleet CSVs differ between -jobs 1 and -jobs 8")
	}
}

// TestAdaptiveFleetDeterministicAcrossJobs covers the most stateful machine
// path — adaptive closed-loop control plus the TM1 monitor — across jobs.
func TestAdaptiveFleetDeterministicAcrossJobs(t *testing.T) {
	serial, err := RunByName("thermal-trojan", 0.02, engine.Config{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunByName("thermal-trojan", 0.02, engine.Config{Jobs: 6})
	if err != nil {
		t.Fatal(err)
	}
	if serial.String() != parallel.String() {
		t.Fatalf("thermal-trojan output differs between -jobs 1 and -jobs 6:\n--- jobs=1 ---\n%s\n--- jobs=6 ---\n%s", serial, parallel)
	}
}

// TestEnginesRunConcurrently pins what a caller-owned engine value buys: runs
// under the exact and the leap integrator share one process without
// interfering. Each concurrent run must render exactly the bytes the same
// run renders alone.
func TestEnginesRunConcurrently(t *testing.T) {
	spec := mustGetT(t, "fleet-diurnal")
	engines := []engine.Config{
		{Integrator: machine.IntegratorExact, Jobs: 2},
		{Integrator: machine.IntegratorLeap, Jobs: 3},
	}
	render := func(ec engine.Config) (string, error) {
		res, err := RunOpts(spec, 0.02, RunOptions{Engine: ec})
		if err != nil {
			return "", err
		}
		return res.String() + flattenFiles(res), nil
	}
	want := make([]string, len(engines))
	for i, ec := range engines {
		out, err := render(ec)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = out
	}
	if want[0] == want[1] {
		t.Fatal("exact and leap rendered identical bytes; the test cannot tell the engines apart")
	}

	got := make([]string, 2*len(engines))
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = render(engines[i%len(engines)])
		}(i)
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if ec := engines[i%len(engines)]; got[i] != want[i%len(engines)] {
			t.Errorf("concurrent %s run diverged from its sequential run", ec.Integrator)
		}
	}
}
