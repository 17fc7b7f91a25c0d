package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/engine"
)

func TestExportWritesParseableCSVs(t *testing.T) {
	dir := t.TempDir()
	// A fast representative subset; the remaining IDs share the same
	// writer helpers.
	for _, id := range []string{"fig1", "fig3", "val-energy", "ext-smt"} {
		paths, err := Export(id, 0.05, dir, engine.Config{})
		if err != nil {
			t.Fatalf("Export(%s): %v", id, err)
		}
		if len(paths) == 0 {
			t.Fatalf("Export(%s) wrote nothing", id)
		}
		for _, p := range paths {
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatalf("reading %s: %v", p, err)
			}
			lines := strings.Split(strings.TrimSpace(string(data)), "\n")
			if len(lines) < 2 {
				t.Errorf("%s: only %d line(s)", p, len(lines))
				continue
			}
			cols := strings.Count(lines[0], ",")
			for i, ln := range lines[1:] {
				if strings.Count(ln, ",") != cols {
					t.Errorf("%s line %d: column count mismatch", p, i+2)
					break
				}
			}
		}
	}
}

func TestExportUnknownID(t *testing.T) {
	if _, err := Export("nope", 0.1, t.TempDir(), engine.Config{}); err == nil {
		t.Error("unknown ID accepted")
	}
}

func TestExportCreatesDirectory(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "out")
	paths, err := Export("val-energy", 0.05, dir, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 || !strings.HasPrefix(paths[0], dir) {
		t.Errorf("paths = %v", paths)
	}
}
