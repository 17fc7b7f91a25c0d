// Package thermal models the processor's thermal path as a lumped RC
// network: per-core junction nodes couple through a shared package/spreader
// node and a heatsink node to the ambient boundary, whose convective
// resistance is set by the (fixed, full-speed) case fans.
//
// The network reproduces the two properties the paper's results rest on:
//
//   - multiple, widely separated time constants — junctions respond in
//     milliseconds ("each core was able to cool exponentially quickly within
//     a short time window") while the heatsink takes tens of seconds ("core
//     temperatures stabilized after approximately 300 seconds");
//   - heat inputs may depend on the node temperature itself, which is how the
//     exponential temperature dependence of leakage power enters and produces
//     the nonlinear trade-off curves of Figures 3 and 4.
//
// Step is the simulator's innermost kernel: every simulated second crosses it
// hundreds of times. Its hot path therefore runs on a flattened CSR-style
// adjacency (contiguous conductance/neighbour arrays instead of per-node
// slices) and caches the per-node decay factors exp(−dt/τ), which depend only
// on the step size and the (fixed) topology. The machine layer integrates
// with a constant ThermalStep almost everywhere, so the cache hits on
// virtually every step and the per-step math.Exp calls disappear.
package thermal

import (
	"fmt"
	"math"

	"repro/internal/units"
)

// NodeID identifies a node within a Network.
type NodeID int

// node is one lumped thermal mass (or the fixed-temperature ambient).
type node struct {
	name     string
	capJ     float64 // thermal capacitance in J/K; <= 0 marks a boundary node
	boundary bool

	// Adjacency: conductances in W/K to neighbouring nodes. Kept as the
	// construction-order source of truth; Step and SolveSteadyState run on
	// the flattened copy built by flatten().
	nbrs  []NodeID
	conds []float64
	gSum  float64 // cached Σ conductance
}

// decaySlot caches the per-node decay factors exp(−dt/τ) for one step size.
// Step sizes are keyed by their exact bit pattern: a few-digit String()
// rounding must never let two distinct sizes share a slot.
type decaySlot struct {
	bits  uint64 // math.Float64bits of the step size in seconds; 0 marks empty
	used  uint64 // recency stamp for LRU eviction
	decay []float64
}

// decaySlots is the decay-cache capacity. The machine layer steps with one
// dominant ThermalStep, but event-aligned remainders, hotspot-capped steps
// and interleaved machines of different configurations produce a handful of
// recurring sizes; eight slots cover every observed working set while a
// linear scan stays cheaper than one math.Exp.
const decaySlots = 8

// Network is a set of thermal nodes connected by thermal resistances.
// Construct with NewNetwork, AddNode/AddBoundary and Connect; the topology is
// then fixed while temperatures evolve via Step/Advance.
type Network struct {
	nodes []node
	temp  []float64 // current temperature by NodeID, °C

	// scratch buffers reused across steps to avoid per-step allocation.
	eq  []float64
	pow []float64

	// Flattened topology for the integration loops, rebuilt by flatten()
	// after any AddNode/AddBoundary/Connect. rowStart[i]..rowStart[i+1]
	// indexes node i's neighbours in adjIdx/adjG.
	dirty    bool
	rowStart []int32
	adjIdx   []int32
	adjG     []float64

	// Bit-keyed LRU decay cache. The machine layer steps with a constant
	// ThermalStep interrupted by event-aligned remainders; recency
	// eviction pins the dominant size while a small working set of
	// remainder sizes (alternating event cadences, hotspot-capped steps)
	// hits instead of thrashing the way a two-slot cache did.
	slots     [decaySlots]decaySlot
	decayTick uint64

	// Quiescence-leap state: the propagator store the ladders resolve
	// their entries from (nil: private entries), per-step-size ladder
	// slots, and the chunk controller's scratch and memory (see leap.go).
	store     *PropStore
	ladders   [2]propLadder
	leapLevel int
	leapPow   []float64
	leapPow2  []float64
	leapTemp  []float64
	leapDiff  []float64
	leapEvalT []float64 // temperatures at the window's last model evaluation
	leapXY    []float64 // packed [T; p] operand for the fused applies
	compA     propLevel // ping-pong scratch for composed-propagator builds
	compB     propLevel
	leapRows  []NodeID // rows whose per-step sums LeapSteps accumulates
	allRows   []NodeID

	// Leap instrumentation: cumulative chunks accepted and steps covered
	// by LeapSteps, for tests and benchmarks.
	leapChunks  uint64
	leapSteps   uint64
	leapRejects uint64
}

// NewNetwork returns an empty network.
func NewNetwork() *Network { return &Network{} }

// SetPropStore makes the network take its leap propagators from s, sharing
// them with every other network of the same topology that uses s. nil (the
// default) keeps them private to the network. Shared propagators are
// bit-identical to private ones, so the choice changes cost, never output.
func (n *Network) SetPropStore(s *PropStore) {
	n.store = s
	for l := range n.ladders {
		n.ladders[l] = propLadder{}
	}
}

// AddNode adds a thermal mass with the given capacitance (J/K) starting at
// the given temperature, and returns its ID. Capacitance must be positive.
func (n *Network) AddNode(name string, capacitance float64, start units.Celsius) NodeID {
	if capacitance <= 0 {
		panic(fmt.Sprintf("thermal: node %q needs positive capacitance, got %v", name, capacitance))
	}
	n.nodes = append(n.nodes, node{name: name, capJ: capacitance})
	n.temp = append(n.temp, float64(start))
	n.dirty = true
	return NodeID(len(n.nodes) - 1)
}

// AddBoundary adds a fixed-temperature node (e.g. ambient air held at the
// thermostat setpoint). Its temperature never changes during integration.
func (n *Network) AddBoundary(name string, temp units.Celsius) NodeID {
	n.nodes = append(n.nodes, node{name: name, boundary: true})
	n.temp = append(n.temp, float64(temp))
	n.dirty = true
	return NodeID(len(n.nodes) - 1)
}

// Connect joins nodes a and b with thermal resistance r (K/W, positive).
// Connecting the same pair twice adds a parallel path.
func (n *Network) Connect(a, b NodeID, r float64) {
	if r <= 0 {
		panic(fmt.Sprintf("thermal: non-positive resistance %v between %d and %d", r, a, b))
	}
	if a == b {
		panic("thermal: self connection")
	}
	g := 1 / r
	n.nodes[a].nbrs = append(n.nodes[a].nbrs, b)
	n.nodes[a].conds = append(n.nodes[a].conds, g)
	n.nodes[a].gSum += g
	n.nodes[b].nbrs = append(n.nodes[b].nbrs, a)
	n.nodes[b].conds = append(n.nodes[b].conds, g)
	n.nodes[b].gSum += g
	n.dirty = true
}

// NumNodes returns the number of nodes (including boundaries).
func (n *Network) NumNodes() int { return len(n.nodes) }

// Name returns the node's name.
func (n *Network) Name(id NodeID) string { return n.nodes[id].name }

// Temp returns the node's current temperature.
func (n *Network) Temp(id NodeID) units.Celsius { return units.Celsius(n.temp[id]) }

// SetTemp overrides a node's temperature (used to initialise or to reset a
// boundary setpoint).
func (n *Network) SetTemp(id NodeID, t units.Celsius) { n.temp[id] = float64(t) }

// Temps appends all node temperatures to dst (resized as needed) and returns
// it; index corresponds to NodeID.
func (n *Network) Temps(dst []units.Celsius) []units.Celsius {
	if cap(dst) < len(n.nodes) {
		dst = make([]units.Celsius, len(n.nodes))
	}
	dst = dst[:len(n.nodes)]
	for i := range n.temp {
		dst[i] = units.Celsius(n.temp[i])
	}
	return dst
}

// MinTimeConstant returns the smallest C/ΣG over non-boundary nodes — the
// fastest dynamics in the network, used to pick a safe integration step. It
// returns +Inf when the network has no dynamic nodes.
func (n *Network) MinTimeConstant() float64 {
	tau := math.Inf(1)
	for i := range n.nodes {
		nd := &n.nodes[i]
		if nd.boundary || nd.gSum == 0 {
			continue
		}
		tau = math.Min(tau, nd.capJ/nd.gSum)
	}
	return tau
}

// PowerFunc computes the instantaneous heat input (W) of every node given the
// current node temperatures. temps and out are indexed by NodeID; out is
// pre-zeroed. Implementations must not retain either slice.
type PowerFunc func(temps []float64, out []float64)

// HeatSource is the allocation-free counterpart of PowerFunc: a value
// (typically a pointer to the caller's own state) whose HeatInput method
// fills the per-node heat inputs. Passing a pointer through StepFrom or
// LeapSteps avoids the per-step closure capture a PowerFunc costs, which is
// what keeps the machine layer's steady-state stepping at zero heap
// allocations. The same slice contract as PowerFunc applies.
type HeatSource interface {
	HeatInput(temps []float64, out []float64)
}

// powerFuncSource adapts a PowerFunc to HeatSource for the convenience
// entry points; the adapter allocates, so hot paths implement HeatSource
// directly.
type powerFuncSource struct{ f PowerFunc }

func (s powerFuncSource) HeatInput(temps, out []float64) { s.f(temps, out) }

// flatten rebuilds the CSR adjacency and resizes the scratch buffers after a
// topology change, and invalidates the decay cache (τ depends on ΣG).
func (n *Network) flatten() {
	nn := len(n.nodes)
	n.rowStart = make([]int32, nn+1)
	var edges int
	for i := range n.nodes {
		n.rowStart[i] = int32(edges)
		edges += len(n.nodes[i].nbrs)
	}
	n.rowStart[nn] = int32(edges)
	n.adjIdx = make([]int32, edges)
	n.adjG = make([]float64, edges)
	for i := range n.nodes {
		base := int(n.rowStart[i])
		for k, nb := range n.nodes[i].nbrs {
			n.adjIdx[base+k] = int32(nb)
			n.adjG[base+k] = n.nodes[i].conds[k]
		}
	}
	n.eq = make([]float64, nn)
	n.pow = make([]float64, nn)
	for s := range n.slots {
		n.slots[s] = decaySlot{decay: make([]float64, nn)}
	}
	n.decayTick = 0
	for l := range n.ladders {
		n.ladders[l] = propLadder{}
	}
	n.leapLevel = 0
	n.leapPow = make([]float64, nn)
	n.leapPow2 = make([]float64, nn)
	n.leapTemp = make([]float64, nn)
	n.leapDiff = make([]float64, nn)
	n.leapEvalT = make([]float64, nn)
	n.leapXY = make([]float64, 2*nn)
	n.compA, n.compB = propLevel{}, propLevel{}
	n.allRows = n.allRows[:0]
	n.dirty = false
}

// decayFor returns the per-node decay factors for step size dts, serving them
// from the bit-keyed LRU cache when possible. The factors are computed
// exactly as the pre-cache kernel did — exp(−dts/τ) with τ = C/ΣG — so
// cached and fresh steps are bit-identical, and the cache policy can only
// change cost, never output.
func (n *Network) decayFor(dts float64) []float64 {
	bits := math.Float64bits(dts)
	tick := n.bumpTick()
	victim := 0
	for i := range n.slots {
		s := &n.slots[i]
		if s.bits == bits {
			s.used = tick
			return s.decay
		}
		// Deterministic LRU: recency first, key bits on ties (see
		// ladderFor), so the victim never depends on slot order.
		if v := &n.slots[victim]; s.used < v.used || (s.used == v.used && s.bits < v.bits) {
			victim = i
		}
	}
	s := &n.slots[victim]
	s.bits = bits
	s.used = tick
	n.fillDecay(s.decay, dts)
	return s.decay
}

// fillDecay computes every node's decay factor exp(−dts/τ), τ = C/ΣG, into
// dst; boundary and isolated nodes get 0.
func (n *Network) fillDecay(dst []float64, dts float64) {
	for i := range n.nodes {
		nd := &n.nodes[i]
		if nd.boundary || nd.gSum == 0 {
			dst[i] = 0
			continue
		}
		tau := nd.capJ / nd.gSum
		dst[i] = math.Exp(-dts / tau)
	}
}

// Step advances the network by dt with the given heat inputs, using a
// per-node exact exponential update against a frozen snapshot of neighbour
// temperatures:
//
//	T' = T_eq + (T − T_eq)·exp(−dt/τ),  T_eq = (P + Σ G·T_nbr)/ΣG,  τ = C/ΣG
//
// The update is unconditionally stable and, because neighbouring layers have
// time constants orders of magnitude apart, accurate for steps up to roughly
// the fastest τ in the network.
func (n *Network) Step(dt units.Time, power PowerFunc) {
	if power == nil {
		n.StepFrom(dt, nil)
		return
	}
	n.StepFrom(dt, powerFuncSource{power})
}

// StepFrom is Step with an allocation-free HeatSource instead of a PowerFunc
// closure; the two produce bit-identical temperatures for the same heat
// inputs. src may be nil for an unpowered network.
func (n *Network) StepFrom(dt units.Time, src HeatSource) {
	if dt <= 0 {
		return
	}
	if n.dirty {
		n.flatten()
	}
	nn := len(n.nodes)
	eq := n.eq[:nn]
	pw := n.pow[:nn]
	copy(eq, n.temp) // snapshot for Jacobi-style update
	for i := range pw {
		pw[i] = 0
	}
	if src != nil {
		src.HeatInput(eq, pw)
	}
	dts := dt.Seconds()
	decay := n.decayFor(dts)
	rowStart, adjIdx, adjG := n.rowStart, n.adjIdx, n.adjG
	for i := 0; i < nn; i++ {
		nd := &n.nodes[i]
		if nd.boundary {
			continue
		}
		if nd.gSum == 0 {
			// Isolated mass: pure integration of its heat input.
			n.temp[i] += pw[i] * dts / nd.capJ
			continue
		}
		var flux float64
		for k := rowStart[i]; k < rowStart[i+1]; k++ {
			flux += adjG[k] * eq[adjIdx[k]]
		}
		teq := (pw[i] + flux) / nd.gSum
		n.temp[i] = teq + (eq[i]-teq)*decay[i]
	}
}

// StepPolyFrom is StepFrom with the per-node decay factor exp(−dt/τ)
// replaced by its cubic Taylor polynomial — no exponentials and no decay
// cache traffic. It exists for the leap integrator's event-aligned
// remainder and sub-step spans, whose step sizes are essentially unique
// (event times are nanosecond-grained) and would otherwise miss the decay
// cache on every call. The polynomial's relative error is (dt/τ)⁴/24 —
// sub-millikelvin for any dt at or below the machine layer's ThermalStep —
// so it is tolerance-mode only; exact integration always uses StepFrom.
func (n *Network) StepPolyFrom(dt units.Time, src HeatSource) {
	if dt <= 0 {
		return
	}
	if n.dirty {
		n.flatten()
	}
	nn := len(n.nodes)
	eq := n.eq[:nn]
	pw := n.pow[:nn]
	copy(eq, n.temp)
	for i := range pw {
		pw[i] = 0
	}
	if src != nil {
		src.HeatInput(eq, pw)
	}
	dts := dt.Seconds()
	rowStart, adjIdx, adjG := n.rowStart, n.adjIdx, n.adjG
	for i := 0; i < nn; i++ {
		nd := &n.nodes[i]
		if nd.boundary {
			continue
		}
		if nd.gSum == 0 {
			n.temp[i] += pw[i] * dts / nd.capJ
			continue
		}
		var flux float64
		for k := rowStart[i]; k < rowStart[i+1]; k++ {
			flux += adjG[k] * eq[adjIdx[k]]
		}
		teq := (pw[i] + flux) / nd.gSum
		x := dts * nd.gSum / nd.capJ
		decay := 1 + x*(-1+x*(0.5-x/6))
		n.temp[i] = teq + (eq[i]-teq)*decay
	}
}

// Advance integrates the network across span, splitting it into steps no
// longer than maxStep. A non-positive maxStep selects a default of a quarter
// of the fastest time constant.
func (n *Network) Advance(span, maxStep units.Time, power PowerFunc) {
	if span <= 0 {
		return
	}
	if maxStep <= 0 {
		tau := n.MinTimeConstant()
		if math.IsInf(tau, 1) {
			maxStep = span
		} else {
			maxStep = units.FromSeconds(tau / 4)
			if maxStep <= 0 {
				maxStep = units.Microsecond
			}
		}
	}
	for span > 0 {
		dt := span
		if dt > maxStep {
			dt = maxStep
		}
		n.Step(dt, power)
		span -= dt
	}
}

// SolveSteadyState iterates the network to its fixed point for the given
// (possibly temperature-dependent) heat inputs, using damped fixed-point
// iteration on the node balance equations. It is used to establish the idle
// baseline temperature and to fast-forward long settling phases in tests.
// It returns the number of sweeps performed and whether it converged to tol
// (°C) within maxSweeps.
func (n *Network) SolveSteadyState(power PowerFunc, tol float64, maxSweeps int) (int, bool) {
	if tol <= 0 {
		tol = 1e-6
	}
	if maxSweeps <= 0 {
		maxSweeps = 10000
	}
	if n.dirty {
		n.flatten()
	}
	nn := len(n.nodes)
	pw := n.pow[:nn]
	snap := n.eq[:nn]
	rowStart, adjIdx, adjG := n.rowStart, n.adjIdx, n.adjG
	for sweep := 1; sweep <= maxSweeps; sweep++ {
		copy(snap, n.temp)
		for i := range pw {
			pw[i] = 0
		}
		if power != nil {
			power(snap, pw)
		}
		var worst float64
		// Gauss-Seidel: use freshly updated values within the sweep for
		// faster convergence on the chain topology.
		for i := 0; i < nn; i++ {
			nd := &n.nodes[i]
			if nd.boundary || nd.gSum == 0 {
				continue
			}
			var flux float64
			for k := rowStart[i]; k < rowStart[i+1]; k++ {
				flux += adjG[k] * n.temp[adjIdx[k]]
			}
			teq := (pw[i] + flux) / nd.gSum
			delta := teq - n.temp[i]
			// Damping keeps the temperature-dependent leakage feedback
			// loop from oscillating near its stability margin.
			n.temp[i] += 0.5 * delta
			worst = math.Max(worst, math.Abs(delta))
		}
		if worst < tol {
			return sweep, true
		}
	}
	return maxSweeps, false
}
