package machine

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/sched"
	"repro/internal/units"
	"repro/internal/workload"
)

// buildBusy returns a machine with a couple of live threads so the
// checkpoint exercises the scheduler ledger, not just the thermal state.
func buildBusy(t *testing.T, seed uint64) *Machine {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.Meter.Disabled = true
	m := New(cfg)
	m.Admit(workload.FiniteBurn(5), sched.SpawnConfig{Name: "burn-a", ProcessID: 1})
	m.Admit(workload.FiniteBurn(3), sched.SpawnConfig{Name: "burn-b", ProcessID: 2})
	return m
}

// Replaying the same trial to the same barrier must produce a bit-identical
// state — the invariant crash recovery rests on.
func TestCheckpointReplayIdentity(t *testing.T) {
	for _, integ := range []string{IntegratorExact, IntegratorLeap} {
		a := buildBusy(t, 42)
		b := buildBusy(t, 42)
		a.cfg.Integrator = integ
		b.cfg.Integrator = integ
		for i := 0; i < 5; i++ {
			a.RunFor(200 * units.Millisecond)
			b.RunFor(200 * units.Millisecond)
			sa, sb := a.Checkpoint(), b.Checkpoint()
			if sa.Digest() != sb.Digest() {
				t.Fatalf("%s: barrier %d: digests diverge:\n%s", integ, i, diffState(sa, sb))
			}
			if err := b.Restore(sa); err != nil {
				t.Fatalf("%s: barrier %d: Restore on identical replay: %v", integ, i, err)
			}
		}
	}
}

// A checkpoint taken mid-run, carried across a JSON round trip (what the
// daemon's on-disk format does), must still digest identically.
func TestCheckpointJSONRoundTrip(t *testing.T) {
	m := buildBusy(t, 7)
	m.RunFor(750 * units.Millisecond)
	st := m.Checkpoint()
	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var back State
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if st.Digest() != back.Digest() {
		t.Fatal("digest changed across JSON round trip")
	}
	if err := m.Restore(back); err != nil {
		t.Fatalf("Restore after round trip: %v", err)
	}
}

// Any divergence — different seed, different progress — must fail Restore
// with a descriptive error, never pass silently.
func TestRestoreDetectsDivergence(t *testing.T) {
	a := buildBusy(t, 1)
	b := buildBusy(t, 2) // different seed: RNG words differ
	a.RunFor(300 * units.Millisecond)
	b.RunFor(300 * units.Millisecond)
	if err := b.Restore(a.Checkpoint()); err == nil {
		t.Fatal("Restore accepted a different-seed machine")
	}

	c := buildBusy(t, 1)
	c.RunFor(400 * units.Millisecond) // same seed, ran further
	err := c.Restore(a.Checkpoint())
	if err == nil {
		t.Fatal("Restore accepted a machine at a different barrier")
	}
	if !strings.Contains(err.Error(), "now") {
		t.Fatalf("divergence error should name the field: %v", err)
	}
}

// The checkpoint must observe scheduler progress: two states straddling
// thread work must differ.
func TestCheckpointSeesProgress(t *testing.T) {
	m := buildBusy(t, 9)
	m.RunFor(100 * units.Millisecond)
	s1 := m.Checkpoint()
	m.RunFor(100 * units.Millisecond)
	s2 := m.Checkpoint()
	if s1.Digest() == s2.Digest() {
		t.Fatal("states at different times digest equally")
	}
	if len(s1.Threads) != 2 {
		t.Fatalf("thread ledger has %d entries, want 2", len(s1.Threads))
	}
	if s2.Threads[0].WorkDone <= s1.Threads[0].WorkDone {
		t.Fatal("thread work did not advance between checkpoints")
	}
	// Checkpointing must not perturb the run: a third machine advanced
	// without intermediate checkpoints lands on the same state.
	n := buildBusy(t, 9)
	n.RunFor(200 * units.Millisecond)
	if n.Checkpoint().Digest() != s2.Digest() {
		t.Fatal("intermediate checkpoints perturbed the simulation")
	}
}

// CheckpointInto refills one State in place, here alternately from two
// machines of different widths while one of them admits a thread per
// barrier, so the thread ledger (and the per-core ledgers) both grow and
// shrink between refills. Each refilled state must digest as a fresh
// Checkpoint does and equal it field for field.
func TestCheckpointIntoMatchesFresh(t *testing.T) {
	narrow := buildBusy(t, 3)
	cfg := DefaultConfig()
	cfg.Seed = 4
	cfg.Meter.Disabled = true
	cfg.SMTContexts = 2
	wide := New(cfg)

	var st State
	var ledger []int
	check := func(m *Machine, barrier int) {
		m.CheckpointInto(&st)
		fresh := m.Checkpoint()
		if st.Digest() != fresh.Digest() {
			t.Fatalf("barrier %d: refilled digest differs from a fresh one:\n%s", barrier, diffState(fresh, st))
		}
		if !reflect.DeepEqual(st, fresh) {
			t.Fatalf("barrier %d: refilled state differs from a fresh one:\n%s", barrier, diffState(fresh, st))
		}
		ledger = append(ledger, len(st.Threads))
	}
	for i := 0; i < 4; i++ {
		wide.Admit(workload.FiniteBurn(1), sched.SpawnConfig{Name: fmt.Sprintf("burn-%d", i), ProcessID: 10 + i})
		wide.RunFor(100 * units.Millisecond)
		narrow.RunFor(100 * units.Millisecond)
		check(wide, i)
		check(narrow, i)
	}
	grew, shrank := false, false
	for i := 1; i < len(ledger); i++ {
		grew = grew || ledger[i] > ledger[i-1]
		shrank = shrank || ledger[i] < ledger[i-1]
	}
	if !grew || !shrank {
		t.Fatalf("thread ledger lengths %v did not both grow and shrink", ledger)
	}
}

// digestFixture is a fixed State with every slice non-empty, so each field
// and each slice element is reachable by TestDigestCoversEveryField.
func digestFixture() State {
	return State{
		Now:            1500 * units.Millisecond,
		ChipEpoch:      7,
		EventsFired:    12345,
		NodeTempsC:     []float64{61.5, 62.25, 48.125, 35, 25.2},
		TempIntegralCs: []float64{90.5, 91.75},
		EnergyJ:        117.5,
		EnergySpan:     1500 * units.Millisecond,
		RNG:            [4]uint64{0x9e3779b97f4a7c15, 2, 3, 1 << 63},
		CoreBusy:       []units.Time{900 * units.Millisecond, 450 * units.Millisecond},
		CoreInjected:   []units.Time{100 * units.Millisecond, 0},
		Injections:     3,
		Steals:         1,
		QueueLen:       2,
		Threads: []ThreadState{
			{ID: 1, Name: "burn-a", ProcessID: 1, State: "running", WorkDone: 0.75, Remaining: 4.25, CPUTime: 750 * units.Millisecond},
			{ID: 2, Name: "burn-b", ProcessID: 2, State: "runnable", WorkDone: 0.5, Remaining: 2.5, CPUTime: 500 * units.Millisecond},
		},
	}
}

// visitLeaves calls fn on every scalar of v in declaration order, and on
// every slice before its elements (so its length is a leaf too).
func visitLeaves(v reflect.Value, path string, fn func(path string, v reflect.Value)) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			visitLeaves(v.Field(i), path+"."+v.Type().Field(i).Name, fn)
		}
	case reflect.Slice, reflect.Array:
		if v.Kind() == reflect.Slice {
			fn(path+".len", v)
		}
		for i := 0; i < v.Len(); i++ {
			visitLeaves(v.Index(i), fmt.Sprintf("%s[%d]", path, i), fn)
		}
	default:
		fn(path, v)
	}
}

// The binary preimage no longer gets field coverage from reflection, so this
// test supplies it: changing any one field of State — a scalar by one unit or
// one ulp, a string by one byte, one RNG word, one element of any slice, any
// slice's length, any ThreadState field — must change the digest. A field
// added to State without being encoded fails here.
func TestDigestCoversEveryField(t *testing.T) {
	base := digestFixture()
	want := base.Digest()
	var paths []string
	visitLeaves(reflect.ValueOf(&base).Elem(), "State", func(p string, _ reflect.Value) { paths = append(paths, p) })

	fields := map[string]bool{}
	for k, p := range paths {
		st := digestFixture()
		i := 0
		visitLeaves(reflect.ValueOf(&st).Elem(), "State", func(_ string, v reflect.Value) {
			if i == k {
				switch v.Kind() {
				case reflect.Slice:
					v.Set(v.Slice(0, v.Len()-1))
				case reflect.Int, reflect.Int64:
					v.SetInt(v.Int() + 1)
				case reflect.Uint64:
					v.SetUint(v.Uint() ^ 1)
				case reflect.Float64:
					v.SetFloat(math.Nextafter(v.Float(), math.Inf(1)))
				case reflect.String:
					v.SetString(v.String() + "x")
				default:
					t.Fatalf("%s: no perturbation for kind %s", p, v.Kind())
				}
			}
			i++
		})
		if st.Digest() == want {
			t.Errorf("perturbing %s left the digest unchanged", p)
		}
		field, _, _ := strings.Cut(strings.TrimPrefix(p, "State."), ".")
		field, _, _ = strings.Cut(field, "[")
		fields[field] = true
	}
	if n := reflect.TypeOf(State{}).NumField(); len(fields) != n {
		t.Fatalf("perturbed %d of State's %d fields", len(fields), n)
	}
	for _, p := range []string{"State.Threads[1].CPUTime", "State.RNG[3]", "State.NodeTempsC[4]", "State.CoreInjected.len"} {
		if !slices.Contains(paths, p) {
			t.Fatalf("leaf %s was not perturbed", p)
		}
	}
}

// The digest of a fixed State is pinned, so any change to the encoding —
// field order, widths, a field added or dropped — is made on purpose: it
// makes every persisted checkpoint fail verification once (DESIGN.md §12).
func TestDigestPinned(t *testing.T) {
	const want = "1ee31a9c981b43f3699ab05c197691f8fc8c9d0fd940d607ed38e99807b77980"
	if got := digestFixture().Digest(); got != want {
		t.Fatalf("digest of the fixed State = %s, pinned %s", got, want)
	}
}
