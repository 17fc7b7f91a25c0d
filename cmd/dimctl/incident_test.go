package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// exportBundleDirs runs `incident export -` against the daemon and returns
// the bundle directories it wrote.
func exportBundleDirs(t *testing.T, addr, out string) []string {
	t.Helper()
	code, stdout, stderr := runCLI(t, "incident", "export", "-", "-addr", addr, "-out", out)
	if code != 0 {
		t.Fatalf("incident export failed: %s", stderr)
	}
	if !strings.Contains(stdout, "exported") {
		t.Fatalf("export reported nothing:\n%s", stdout)
	}
	dirs, err := filepath.Glob(filepath.Join(out, "job-*"))
	if err != nil || len(dirs) == 0 {
		t.Fatalf("no bundle directories under %s: %v", out, err)
	}
	return dirs
}

func TestSnapshotCommandSummaryAndFile(t *testing.T) {
	addr := newTestDaemon(t)
	if code, _, stderr := runCLI(t, "remote", "run", "fleet-diurnal", "-addr", addr, "-scale", "0.05"); code != 0 {
		t.Fatalf("remote run failed: %s", stderr)
	}

	code, stdout, stderr := runCLI(t, "snapshot", "-addr", addr)
	if code != 0 {
		t.Fatalf("snapshot failed: %s", stderr)
	}
	for _, want := range []string{"snapshot ", "daemon:", "fleet-diurnal", "scenario", "done"} {
		if !strings.Contains(stdout, want) {
			t.Fatalf("snapshot summary missing %q:\n%s", want, stdout)
		}
	}

	out := filepath.Join(t.TempDir(), "snap.json")
	if code, _, stderr := runCLI(t, "snapshot", "-addr", addr, "-out", out); code != 0 {
		t.Fatalf("snapshot -out failed: %s", stderr)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("snapshot file: %v", err)
	}
	if !strings.Contains(string(raw), `"hash"`) || !strings.Contains(string(raw), `"jobs"`) {
		t.Fatalf("snapshot file lacks hash/jobs fields:\n%.400s", raw)
	}
}

func TestIncidentExportReplayByteIdentical(t *testing.T) {
	addr := newTestDaemon(t)
	if code, _, stderr := runCLI(t, "remote", "run", "fleet-diurnal", "-addr", addr, "-scale", "0.05"); code != 0 {
		t.Fatalf("remote run failed: %s", stderr)
	}

	dirs := exportBundleDirs(t, addr, t.TempDir())
	dir := dirs[0]
	for _, f := range []string{"bundle.json", "spec.json", filepath.Join("expected", "output.txt")} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Fatalf("bundle missing %s: %v", f, err)
		}
	}

	code, stdout, stderr := runCLI(t, "incident", "replay", dir)
	if code != 0 {
		t.Fatalf("replay failed: %s", stderr)
	}
	if !strings.Contains(stdout, "byte-identical") {
		t.Fatalf("replay did not verify:\n%s", stdout)
	}
}

func TestIncidentReplaySchedJob(t *testing.T) {
	addr := newTestDaemon(t)
	if code, _, stderr := runCLI(t, "remote", "run", "sched-shootout", "-addr", addr, "-scale", "0.05"); code != 0 {
		t.Fatalf("remote run failed: %s", stderr)
	}

	dirs := exportBundleDirs(t, addr, t.TempDir())
	code, stdout, stderr := runCLI(t, "incident", "replay", dirs[0])
	if code != 0 {
		t.Fatalf("sched replay failed: %s", stderr)
	}
	if !strings.Contains(stdout, "byte-identical") {
		t.Fatalf("sched replay did not verify:\n%s", stdout)
	}
}

func TestIncidentReplayDetectsTampering(t *testing.T) {
	addr := newTestDaemon(t)
	if code, _, stderr := runCLI(t, "remote", "run", "fleet-diurnal", "-addr", addr, "-scale", "0.05"); code != 0 {
		t.Fatalf("remote run failed: %s", stderr)
	}

	dirs := exportBundleDirs(t, addr, t.TempDir())
	dir := dirs[0]
	expPath := filepath.Join(dir, "expected", "output.txt")
	raw, err := os.ReadFile(expPath)
	if err != nil {
		t.Fatalf("read expected output: %v", err)
	}
	if err := os.WriteFile(expPath, append(raw, " tampered"...), 0o644); err != nil {
		t.Fatalf("tamper expected output: %v", err)
	}

	code, _, stderr := runCLI(t, "incident", "replay", dir)
	if code == 0 {
		t.Fatal("replay of a tampered bundle exited zero")
	}
	if !strings.Contains(stderr, "DIVERGED") {
		t.Fatalf("stderr = %q, want a DIVERGED report", stderr)
	}
}

func TestIncidentListEmptyAndUnknownShow(t *testing.T) {
	addr := newTestDaemon(t)
	code, stdout, stderr := runCLI(t, "incident", "list", "-addr", addr)
	if code != 0 {
		t.Fatalf("incident list failed: %s", stderr)
	}
	if !strings.Contains(stdout, "no incidents") {
		t.Fatalf("fresh daemon listed incidents:\n%s", stdout)
	}
	if code, _, _ := runCLI(t, "incident", "show", "inc-999999", "-addr", addr); code == 0 {
		t.Fatal("show of an unknown incident exited zero")
	}
}

// TestIncidentReplayRefusesConflictingIntegrator pins the replay's integrator
// rule: the bundle's integrator wins, and an explicit -integrator naming a
// different one is refused before anything runs.
func TestIncidentReplayRefusesConflictingIntegrator(t *testing.T) {
	dir := t.TempDir()
	meta := fmt.Sprintf(`{"version": %d, "job": "job-000001", "kind": "scenario", "scale": 0.05, "state": "done", "integrator": "leap"}`, bundleVersion)
	if err := os.WriteFile(filepath.Join(dir, "bundle.json"), []byte(meta), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := runCLI(t, "-integrator", "exact", "incident", "replay", dir)
	if code == 0 || !strings.Contains(stderr, `recorded under integrator "leap" but -integrator forces "exact"`) {
		t.Fatalf("exit %d, stderr %q: want a refusal naming both integrators", code, stderr)
	}
}
