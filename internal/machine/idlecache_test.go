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

	// Configs differing in exactly one input of the solve get different keys.
	for name, edit := range map[string]func(c *Config){
		"model name":         func(c *Config) { c.Model.Name += " " },
		"cores":              func(c *Config) { c.Model.NumCores++ },
		"TCC duty steps":     func(c *Config) { c.Model.TCCDutySteps++ },
		"C1E latency":        func(c *Config) { c.Model.C1ELatency++ },
		"P-state count":      func(c *Config) { c.Model.PStates = c.Model.PStates[:len(c.Model.PStates)-1] },
		"P-state frequency":  func(c *Config) { c.Model.PStates[2].Freq++ },
		"P-state voltage":    func(c *Config) { c.Model.PStates[5].Voltage += 1e-9 },
		"core dynamic max":   func(c *Config) { c.Model.CoreDynamicMax += 1e-9 },
		"leak reference":     func(c *Config) { c.Model.LeakRefTemp += 1e-9 },
		"leak slope":         func(c *Config) { c.Model.LeakSlope += 1e-9 },
		"C1E leak factor":    func(c *Config) { c.Model.C1ELeakFactor += 1e-9 },
		"C1E residual":       func(c *Config) { c.Model.C1EResidual += 1e-9 },
		"uncore active":      func(c *Config) { c.Model.UncoreActive += 1e-9 },
		"uncore all-idle":    func(c *Config) { c.Model.UncoreAllIdle += 1e-9 },
		"TCC residual":       func(c *Config) { c.Model.TCCResidualDyn += 1e-9 },
		"leak cap":           func(c *Config) { c.Model.LeakCapFactor += 1e-9 },
		"R junction-package": func(c *Config) { c.RJunctionPackage += 1e-9 },
		"R package-sink":     func(c *Config) { c.RPackageSink += 1e-9 },
		"R sink-ambient":     func(c *Config) { c.RSinkAmbient += 1e-9 },
		"C junction":         func(c *Config) { c.CJunction += 1e-9 },
		"C package":          func(c *Config) { c.CPackage += 1e-9 },
		"C sink":             func(c *Config) { c.CSink += 1e-9 },
		"fan factor":         func(c *Config) { c.FanFactor += 1e-9 },
		"hotspot fraction":   func(c *Config) { c.HotspotFraction = 0.1 },
		"R hotspot":          func(c *Config) { c.RHotspotJunction = 0.1 },
		"C hotspot":          func(c *Config) { c.CHotspot = 0.1 },
		"sense hotspot":      func(c *Config) { c.SenseHotspot = true },
	} {
		c := DefaultConfig()
		edit(&c)
		if idleFingerprint(&a, 1) == idleFingerprint(&c, 1) {
			t.Errorf("configs differing only in %s share a fingerprint", name)
		}
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
