package machine

import (
	"math"
	"testing"

	"repro/internal/units"
)

// TestIdleFingerprintExactness pins the two properties the idle cache needs:
// value-identical configs built from fresh Model allocations share a key
// (otherwise the cache never hits), and thermally distinct configs never
// share one — including values that collide under the unit newtypes' lossy
// few-digit String() rendering (25.2 vs 25.16 both print "25.2").
func TestIdleFingerprintExactness(t *testing.T) {
	a := DefaultConfig()
	b := DefaultConfig()
	if idleFingerprint(&a, 1) != idleFingerprint(&b, 1) {
		t.Fatal("fresh value-identical configs must share a fingerprint")
	}
	if idleFingerprint(&a, 1) == idleFingerprint(&a, 0) {
		t.Fatal("leakage coupling must be part of the key")
	}

	close := DefaultConfig()
	close.Ambient = 25.16 // renders identically to 25.2 via Celsius.String
	if idleFingerprint(&a, 1) == idleFingerprint(&close, 1) {
		t.Fatal("Ambient 25.2 and 25.16 must not collide")
	}
	if got, want := New(close).IdleJunctionTemp(), New(a).IdleJunctionTemp(); got == want {
		t.Fatalf("distinct ambients returned the same cached idle temp %v", got)
	}

	model := DefaultConfig()
	model.Model.LeakNominal = 8.04 // renders identically to 8.0 via Watts.String
	if idleFingerprint(&a, 1) == idleFingerprint(&model, 1) {
		t.Fatal("LeakNominal 8.0 and 8.04 must not collide")
	}
}

// TestIdleCacheBounded fits more distinct ambients than the memo holds: the
// memo never exceeds its cap, and every machine's idle temperature stays
// bit-identical to an uncached solve across the clears.
func TestIdleCacheBounded(t *testing.T) {
	for i := 0; i < maxIdleSolutions+200; i++ {
		cfg := DefaultConfig()
		cfg.Ambient = units.Celsius(20 + float64(i)*1e-3)
		m := New(cfg)
		got := m.IdleJunctionTemp()
		idleCache.Lock()
		n := len(idleCache.m)
		idleCache.Unlock()
		if n > maxIdleSolutions {
			t.Fatalf("after %d ambients the memo holds %d solutions, cap %d", i+1, n, maxIdleSolutions)
		}
		want := solveIdle(&cfg, m.Chip.LeakageTempCoupling).mean
		if math.Float64bits(float64(got)) != math.Float64bits(float64(want)) {
			t.Fatalf("ambient %v: cached idle temp %v, uncached solve %v", cfg.Ambient, got, want)
		}
	}
}
