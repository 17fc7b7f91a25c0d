package machine

import (
	"sync"

	"repro/internal/cpu"
	"repro/internal/digest"
	"repro/internal/units"
)

// idleSolution is one solved all-idle equilibrium: the full node temperature
// vector of the configuration's thermal path plus the across-core mean of its
// sensed junction temperatures (the paper's "idle temperature" baseline).
type idleSolution struct {
	temps []units.Celsius
	mean  units.Celsius
}

// idleCache memoises all-idle steady-state solves across Machine instances.
// Experiment sweeps build hundreds of machines from value-identical configs;
// without the cache every one of them re-runs the same damped fixed-point
// iteration twice (once at construction, once for the idle baseline). The
// solve is a deterministic function of the fingerprinted inputs, so cache
// hits are bit-identical to fresh solves. Trials run concurrently under the
// runner, hence the lock; duplicate computes on a racing miss store the same
// value.
//
// The memo holds at most maxIdleSolutions entries and is cleared when full:
// a fleet with a continuous ambient spread gives every machine its own
// fingerprint, and a long-running daemon runs fleet after fleet. Clearing a
// pure memo only costs re-solves, never different output.
var idleCache struct {
	sync.Mutex
	m map[[32]byte]*idleSolution // fingerprint -> solution
}

// maxIdleSolutions bounds idleCache: one 1024-machine fleet's worth of
// distinct configurations (about 1 MB), against a few dozen in a sweep.
const maxIdleSolutions = 1024

// idleFingerprint captures every input consumed by the all-idle solve: the
// processor model (leakage and idle-power constants), the RC path and ambient,
// the hotspot variant, the sensor placement, and the leakage-temperature
// coupling. Fields that cannot reach the solve (seed, scheduler, meter,
// integration step) are deliberately excluded. The key is the sha256 of the
// inputs' exact binary encoding (float64 bit patterns, length-prefixed name
// and P-state ladder), so thermally distinct configs never share a key even
// where the unit newtypes' few-digit String() methods would print them alike.
func idleFingerprint(cfg *Config, coupling float64) [32]byte {
	m := cfg.Model
	e := digest.New(len(m.Name) + 16*len(m.PStates) + 224)
	e.String(m.Name)
	e.Int(int64(m.NumCores))
	e.Int(int64(m.TCCDutySteps))
	e.Int(int64(m.C1ELatency))
	e.Int(int64(len(m.PStates)))
	for _, ps := range m.PStates {
		e.Float64(float64(ps.Freq))
		e.Float64(ps.Voltage)
	}
	for _, v := range [...]float64{
		float64(m.CoreDynamicMax), float64(m.LeakNominal), float64(m.LeakRefTemp),
		float64(m.LeakSlope), m.C1ELeakFactor, float64(m.C1EResidual),
		float64(m.UncoreActive), float64(m.UncoreAllIdle), m.TCCResidualDyn, m.LeakCapFactor,
		float64(cfg.Ambient),
		cfg.RJunctionPackage, cfg.RPackageSink, cfg.RSinkAmbient,
		cfg.CJunction, cfg.CPackage, cfg.CSink,
		cfg.FanFactor,
		cfg.HotspotFraction, cfg.RHotspotJunction, cfg.CHotspot,
		coupling,
	} {
		e.Float64(v)
	}
	e.Bool(cfg.SenseHotspot)
	return e.Sum()
}

// idleSolve returns the all-idle equilibrium for cfg at the given leakage
// coupling, solving and caching it on first use. A miss solves on path and
// chip when they are given — a freshly built pair for cfg, every node at
// ambient and every core idle in C1E at this coupling, which the caller is
// about to start from — and on a scratch pair otherwise.
func idleSolve(cfg *Config, coupling float64, path *ThermalPath, chip *cpu.Chip) *idleSolution {
	key := idleFingerprint(cfg, coupling)
	idleCache.Lock()
	sol, ok := idleCache.m[key]
	idleCache.Unlock()
	if ok {
		return sol
	}
	if path != nil {
		sol = solveIdleOn(path, chip)
	} else {
		sol = solveIdle(cfg, coupling)
	}
	idleCache.Lock()
	if idleCache.m == nil || len(idleCache.m) >= maxIdleSolutions {
		idleCache.m = make(map[[32]byte]*idleSolution)
	}
	idleCache.m[key] = sol
	idleCache.Unlock()
	return sol
}

// solveIdle runs the uncached all-idle solve on a scratch path and chip.
func solveIdle(cfg *Config, coupling float64) *idleSolution {
	chip := cpu.NewChip(cfg.Model)
	chip.LeakageTempCoupling = coupling
	return solveIdleOn(NewThermalPath(*cfg), chip)
}

// solveIdleOn runs the all-idle solve on path, in place.
func solveIdleOn(path *ThermalPath, chip *cpu.Chip) *idleSolution {
	path.SolveSteadyState(chip)
	sol := &idleSolution{temps: path.Net.Temps(nil)}
	var sum float64
	junctions := path.Junctions(nil)
	for _, t := range junctions {
		sum += float64(t)
	}
	sol.mean = units.Celsius(sum / float64(len(junctions)))
	return sol
}
