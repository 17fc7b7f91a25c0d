package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/engine"
)

// Golden-trace regression fixtures: the rendered output of every figure and
// table harness at a small fixed scale is committed under testdata/ and
// diffed on every test run. The simulator is deterministic end to end, so
// any byte of drift is a behaviour change — either a bug or an intentional
// model change, in which case regenerate with:
//
//	UPDATE_GOLDEN=1 go test ./internal/experiments -run TestGoldenTraces
//
// and review the fixture diff like any other code change.

// goldenScale matches the CI determinism run: small enough to stay fast,
// large enough that every sweep arm contributes rows.
const goldenScale = Scale(0.05)

var goldenRuns = map[string]func() string{
	"fig1":   func() string { return RunFigure1(goldenScale, engine.Config{}).String() },
	"fig2":   func() string { return RunFigure2(goldenScale, engine.Config{}).String() },
	"fig3":   func() string { return RunFigure3(goldenScale, engine.Config{}).String() },
	"fig4":   func() string { return RunFigure4(goldenScale, engine.Config{}).String() },
	"fig5":   func() string { return RunFigure5(goldenScale, engine.Config{}).String() },
	"fig6":   func() string { return RunFigure6(goldenScale, engine.Config{}).String() },
	"table1": func() string { return RunTable1(goldenScale, engine.Config{}).String() },
}

// checkGolden diffs got against dir/<name>.golden, rewriting the fixture
// instead when UPDATE_GOLDEN is set. (The scenario package carries its own
// copy of this small helper rather than a cross-package test dependency.)
func checkGolden(t *testing.T, dir, name, got string) {
	t.Helper()
	path := filepath.Join(dir, name+".golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixture %s — regenerate with UPDATE_GOLDEN=1 go test ./... -run Golden", path)
	}
	if got != string(want) {
		t.Errorf("output drifted from %s:\n%s\n(if intentional: UPDATE_GOLDEN=1 go test ./... -run Golden)", path, firstDiff(string(want), got))
	}
}

// firstDiff renders the first differing line for a readable failure.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return fmt.Sprintf("line %d:\n-%s\n+%s", i+1, w, g)
		}
	}
	return "(lengths differ)"
}

func TestGoldenTraces(t *testing.T) {
	ids := make([]string, 0, len(goldenRuns))
	for id := range goldenRuns {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		run := goldenRuns[id]
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			checkGolden(t, "testdata", id, run())
		})
	}
}
