// Quiescence-leaping integrator.
//
// Between discrete events the machine layer integrates with a constant step
// size under a frozen chip configuration, so each Step applies the same
// affine map to the temperature vector:
//
//	T' = M·T + E·p
//
// where M is the per-step exact-exponential Jacobi update (decay on the
// diagonal, conductance-weighted neighbour mixing off it, identity rows for
// boundaries), E injects the heat vector p, and p is the chip's node heat
// inputs. Across a window of k identical steps the closed form is
//
//	T_k = M^k·T_0 + (Σ_{i<k} M^i)·E·p
//
// which repeated squaring evaluates in O(log k) dense multiplies of a
// matrix with one row per thermal node — a handful of nodes — instead of k
// sparse sweeps with k heat-model evaluations. Interval-based thermal
// toolchains (CoMeT, arXiv:2109.12405) and the closed-form decay solutions
// of temperature-aware scheduling analyses (arXiv:0801.4238) exploit the
// same structure.
//
// The heat vector is not truly constant over a window: leakage power depends
// exponentially on junction temperature, so p drifts as the nodes heat or
// cool. LeapSteps therefore leaps in chunks of 2^j steps under an adaptive
// controller: each chunk freezes p at its entry temperatures, predicts the
// chunk with the cached propagator, re-evaluates the heat model at the
// predicted exit, and bounds the frozen-power error by ||U·Δp||∞ — the exact
// accumulated temperature response had the stale power persisted. Chunks
// whose bound exceeds leapTol are halved (a one-step chunk is the exact
// kernel's own semantics and always accepted); accepted chunks apply a
// midpoint power correction, making the local error second order in the
// bound, and grow the next chunk. The controller is a pure function of the
// thermal state, so leap runs are deterministic and independent of -jobs.
package thermal

import (
	"math"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/units"
)

// phaseLadderBuild accumulates the wall time spent constructing propagator
// ladder rungs (base builds and repeated squarings). It wraps only the build
// loop — never the per-step kernel or the leap application path — so the
// disabled cost is one atomic load per ladder miss, and the hot loop's
// timings are untouched either way.
var phaseLadderBuild = obs.RegisterPhase("thermal.ladder_build")

const (
	// leapTol is the per-chunk ceiling on the frozen-power temperature
	// bound (°C). With the midpoint correction the realised local error
	// is second order in this bound; window divergence from the exact
	// integrator stays well inside the scenario harness' 0.05 °C
	// acceptance band.
	leapTol = 1e-1
	// leapGrow is the fraction of leapTol below which the controller
	// doubles the next chunk.
	leapGrow = 0.25
	// leapSkipCorr is the bound below which the midpoint correction is
	// skipped — at that scale the correction itself is beneath the
	// integrator's noise floor and its two matrix applications are pure
	// overhead. Near thermal equilibrium this is the common case.
	leapSkipCorr = leapTol / 50
	// leapMaxLevel caps chunks at 2^leapMaxLevel steps (~35 simulated
	// minutes at the default 2 ms step) — far beyond any event-free span
	// the harnesses produce, while keeping ladder memory trivial.
	leapMaxLevel = 20
	// leapRelin is the temperature drift (°C, any node) past which a new
	// chunk re-evaluates the heat model instead of re-linearising from the
	// window's last evaluation point. Within the drift radius the
	// linearisation's curvature residual is far below the chunk bound, so
	// a multi-chunk window costs one evaluation per ~leapRelin degrees of
	// movement rather than one per chunk.
	leapRelin = RelinRadiusC
)

// RelinRadiusC is the temperature drift (°C) within which a stashed
// linearisation of a heat source remains valid. Exported so heat sources
// implementing their own per-core memos (the machine layer's ThermalPath)
// share the leap controller's error budget instead of defining a second
// radius that could silently drift from it.
const RelinRadiusC = 0.75

// propLevel is one rung of a propagator ladder: the dense affine maps for
// 2^level consecutive constant-power steps of one fixed step size, stored
// row-major over all nodes (boundary rows are identity in P/Q, zero in U/W).
//
//	T_n = P·T_0 + U·p
//	S_n = Σ_{i=1..n} T_i = Q·T_0 + W·p
//
// S_n is the discrete post-step temperature sum the machine layer's exact
// °C·s integrals are built from, so leap windows account metrics with the
// same discretisation as step-by-step integration.
type propLevel struct {
	p, u, q, w []float64
	// Fused row-major apply blocks: row i of pu is [P_i | U_i], of qw is
	// [Q_i | W_i], applied against the packed vector [T; p] in one
	// contiguous walk — the chunk hot path touches only these.
	pu, qw []float64
	// uNorm is ‖U‖∞ (max row abs-sum): uNorm·‖Δp‖∞ bounds the drift
	// response, letting the chunk loop skip the U·Δp walk and correction
	// outright when the heat drift is negligible — the steady state.
	uNorm float64
}

// fuse materialises the apply blocks from the square matrices.
func (l *propLevel) fuse(nn int) {
	l.pu = fusePair(l.pu, l.p, l.u, nn)
	l.qw = fusePair(l.qw, l.q, l.w, nn)
	l.uNorm = rowAbsNorm(l.u, nn)
}

// rowAbsNorm returns the max row abs-sum of an nn×nn matrix.
func rowAbsNorm(m []float64, nn int) float64 {
	var worst float64
	for i := 0; i < nn; i++ {
		var s float64
		for _, v := range m[i*nn : (i+1)*nn] {
			if v < 0 {
				v = -v
			}
			s += v
		}
		if s > worst {
			worst = s
		}
	}
	return worst
}

// fusePair packs a and b row-interleaved: dst row i = [a_i | b_i].
func fusePair(dst, a, b []float64, nn int) []float64 {
	if dst == nil {
		dst = make([]float64, 2*nn*nn)
	}
	for i := 0; i < nn; i++ {
		copy(dst[2*i*nn:], a[i*nn:(i+1)*nn])
		copy(dst[2*i*nn+nn:], b[i*nn:(i+1)*nn])
	}
	return dst
}

// applyRows computes dst[i] = m[i*stride:]·x for each row: with stride 2nn
// that is a fused block [A|B] applied to the packed xy, or, from m[nn:], its
// right half B applied to x. Rows go four at a time; a trailing partial
// block overlaps the previous one, its rows recomputed bit for bit.
func applyRows(dst, m []float64, stride int, x []float64) {
	if len(dst) < 4 {
		for i := range dst {
			dst[i] = dot(m[i*stride:], x)
		}
		return
	}
	for i := 0; i < len(dst); i += 4 {
		i = min(i, len(dst)-4)
		dst[i], dst[i+1], dst[i+2], dst[i+3] = dot4(m[i*stride:], m[(i+1)*stride:], m[(i+2)*stride:], m[(i+3)*stride:], x)
	}
}

// dot returns r·x over len(x) terms, summed in ascending index from +0.
func dot(r, x []float64) float64 {
	r = r[:len(x)]
	var a float64
	for j, v := range x {
		a += r[j] * v
	}
	return a
}

// dot4 is dot for four rows at once. Each row keeps its own accumulator and
// summation order, so every result is bit-identical to dot; the four
// independent add chains hide the latency a single chain stalls on.
func dot4(r0, r1, r2, r3, x []float64) (a0, a1, a2, a3 float64) {
	r0, r1, r2, r3 = r0[:len(x)], r1[:len(x)], r2[:len(x)], r3[:len(x)]
	for j, v := range x {
		a0 += r0[j] * v
		a1 += r1[j] * v
		a2 += r2[j] * v
		a3 += r3[j] * v
	}
	return
}

// sumRows adds one chunk's discrete temperature sums for the listed rows:
// [Q|W]·[T; p], plus half of W·Δp when the midpoint correction applies.
// Rows go four at a time; sums accumulate, so a partial block is not
// overlapped but finished one row at a time.
func sumRows(tempSum []float64, rows []NodeID, qw, xy, diff []float64, correct bool) {
	nn := len(diff)
	w := 2 * nn
	b := 0
	for ; b+4 <= len(rows); b += 4 {
		i0, i1, i2, i3 := int(rows[b])*w, int(rows[b+1])*w, int(rows[b+2])*w, int(rows[b+3])*w
		a0, a1, a2, a3 := dot4(qw[i0:], qw[i1:], qw[i2:], qw[i3:], xy)
		if correct {
			c0, c1, c2, c3 := dot4(qw[i0+nn:], qw[i1+nn:], qw[i2+nn:], qw[i3+nn:], diff)
			a0 += 0.5 * c0
			a1 += 0.5 * c1
			a2 += 0.5 * c2
			a3 += 0.5 * c3
		}
		tempSum[rows[b]] += a0
		tempSum[rows[b+1]] += a1
		tempSum[rows[b+2]] += a2
		tempSum[rows[b+3]] += a3
	}
	for _, r := range rows[b:] {
		i := int(r) * w
		acc := dot(qw[i:], xy)
		if correct {
			acc += 0.5 * dot(qw[i+nn:], diff)
		}
		tempSum[r] += acc
	}
}

// propLadder is one step size's slot in a network's ladder cache: the store
// entry the network resolved for it, so leap windows reach their propagators
// without probing a map. Power-of-two chunk lengths are the entry's ladder
// rungs (level 0 from the CSR adjacency and the decay factors, level j+1 by
// squaring level j); arbitrary lengths — whole quiescent windows, whose step
// counts repeat across millions of injection quanta and workload frames — are
// composed once from the rungs and published in the entry.
type propLadder struct {
	bits uint64 // Float64bits of the step size; 0 marks an empty slot
	used uint64
	e    *propEntry
}

const (
	// leapSmallMax bounds the direct-indexed composed-window array.
	leapSmallMax = 64
	// leapComposedCap bounds the map-backed memo for longer windows.
	leapComposedCap = 256
)

// ladderFor returns the propagator ladder for step size dts, recycling the
// least-recently-used slot on a miss and resolving the slot's entry — from
// the network's PropStore when it has one, else a private entry. Two slots
// mirror the machine layer's stepping pattern: leap windows only ever use the
// dominant ThermalStep, the second slot absorbs a reconfigured machine
// sharing the network.
//
// Eviction is fully deterministic: recency decides, and equal recency
// stamps — empty slots, or the clean epoch after a counter-wrap reset —
// break the tie on the step-size key itself rather than on slot position,
// so the victim never depends on the order step sizes happened to land in
// slots.
func (n *Network) ladderFor(dts float64) *propLadder {
	bits := math.Float64bits(dts)
	tick := n.bumpTick()
	victim := 0
	for i := range n.ladders {
		l := &n.ladders[i]
		if l.bits == bits {
			l.used = tick
			return l
		}
		if v := &n.ladders[victim]; l.used < v.used || (l.used == v.used && l.bits < v.bits) {
			victim = i
		}
	}
	l := &n.ladders[victim]
	*l = propLadder{bits: bits, used: tick}
	if n.store != nil {
		l.e = n.store.resolve(n, dts)
	} else {
		l.e = n.newEntry(dts, nil, new(atomic.Int64))
	}
	return l
}

// bumpTick advances the shared recency clock for the decay and ladder
// caches, guarding against wrap: when the counter would return to zero —
// after which every stamped entry would look fresher than every new one and
// the LRU order would invert — all recency stamps reset to a clean epoch and
// the clock restarts from 1. Relative recency within the epoch is lost, but
// the deterministic key tie-break keeps eviction well-defined.
func (n *Network) bumpTick() uint64 {
	n.decayTick++
	if n.decayTick == 0 {
		for i := range n.slots {
			n.slots[i].used = 0
		}
		for i := range n.ladders {
			n.ladders[i].used = 0
		}
		n.decayTick = 1
	}
	return n.decayTick
}

// level returns the entry's ladder rung lvl, building and publishing it and
// any missing rung below it. A rung another network published first is used
// as is: it is bit-identical to what this network would build.
func (n *Network) level(e *propEntry, lvl int) *propLevel {
	if l := e.levels[lvl].Load(); l != nil {
		return l
	}
	j := lvl
	for j > 0 && e.levels[j-1].Load() == nil {
		j--
	}
	var src *propLevel
	if j > 0 {
		src = e.levels[j-1].Load()
	}
	bt := phaseLadderBuild.Start()
	defer phaseLadderBuild.StopN(bt, int64(lvl-j+1))
	for ; j <= lvl; j++ {
		l := &propLevel{}
		if j == 0 {
			n.buildBase(l, e)
		} else {
			squareLevel(l, src, e.nn)
		}
		src = e.publish(&e.levels[j], l)
	}
	return src
}

// propFor returns the entry's propagator covering exactly c steps: a ladder
// rung when c is a power of two, otherwise the composition of the rungs for
// c's binary digits, built once per entry. One composed propagator turns a
// whole quiescent window into a single chunk — two heat-model evaluations
// however many steps the window spans.
func (n *Network) propFor(e *propEntry, c int) *propLevel {
	if c&(c-1) == 0 {
		return n.level(e, log2(c))
	}
	if c < leapSmallMax {
		if l := e.small[c].Load(); l != nil {
			return l
		}
		return e.publish(&e.small[c], n.compose(e, c))
	}
	if l := e.long(c); l != nil {
		return l
	}
	return e.publishLong(c, n.compose(e, c))
}

// compose builds the propagator for c steps from the entry's rungs. The
// digits are composed in the network's ping-pong scratch pair, so only the
// final fused blocks — the only state chunks touch — are allocated.
func (n *Network) compose(e *propEntry, c int) *propLevel {
	nn := e.nn
	cur, other := &n.compA, &n.compB
	first := true
	for rem, j := c, 0; rem > 0; rem, j = rem>>1, j+1 {
		if rem&1 == 0 {
			continue
		}
		rung := n.level(e, j)
		if first {
			cur.p = append(cur.p[:0], rung.p...)
			cur.u = append(cur.u[:0], rung.u...)
			cur.q = append(cur.q[:0], rung.q...)
			cur.w = append(cur.w[:0], rung.w...)
			first = false
			continue
		}
		composeInto(other, cur, rung, nn)
		cur, other = other, cur
	}
	backing := make([]float64, 4*nn*nn)
	acc := &propLevel{pu: backing[:2*nn*nn], qw: backing[2*nn*nn:]}
	fusePair(acc.pu, cur.p, cur.u, nn)
	fusePair(acc.qw, cur.q, cur.w, nn)
	acc.uNorm = rowAbsNorm(cur.u, nn)
	return acc
}

// composeInto extends a (covering some steps) by rung (covering more steps)
// in sequence into dst's buffers:
//
//	P' = Pb·Pa          U' = Pb·Ua + Ub
//	Q' = Qa + Qb·Pa     W' = Wa + Qb·Ua + Wb
//
// (all operands are polynomials in the same M, so products commute and the
// split-window derivation applies regardless of digit order).
func composeInto(dst, a, rung *propLevel, nn int) {
	dst.p = matMul(dst.p, rung.p, a.p, nn)
	dst.u = matMulAdd(dst.u, rung.p, a.u, rung.u, nn)
	dst.q = matMulAdd(dst.q, rung.q, a.p, a.q, nn)
	dst.w = matMulAdd(dst.w, rung.q, a.u, a.w, nn)
	for i := range dst.w {
		dst.w[i] += rung.w[i]
	}
}

// log2 returns the exponent of a power of two.
func log2(c int) int {
	l := 0
	for c > 1 {
		c >>= 1
		l++
	}
	return l
}

// buildBase constructs the entry's single-step maps from the flattened
// topology: row i of M is the exact-exponential Jacobi update Step applies,
// row i of E scales node i's heat input. Decay factors are the entry's, which
// are the exact kernel's bit for bit.
func (n *Network) buildBase(l *propLevel, e *propEntry) {
	nn := len(n.nodes)
	dts := e.dts
	l.p = make([]float64, nn*nn)
	l.u = make([]float64, nn*nn)
	decay := e.decay
	for i := 0; i < nn; i++ {
		nd := &n.nodes[i]
		row := l.p[i*nn : (i+1)*nn]
		switch {
		case nd.boundary:
			row[i] = 1
		case nd.gSum == 0:
			// Isolated mass: pure integration of its heat input.
			row[i] = 1
			l.u[i*nn+i] = dts / nd.capJ
		default:
			d := decay[i]
			row[i] = d
			scale := (1 - d) / nd.gSum
			for k := n.rowStart[i]; k < n.rowStart[i+1]; k++ {
				row[n.adjIdx[k]] += scale * n.adjG[k]
			}
			l.u[i*nn+i] = scale
		}
	}
	l.q = append([]float64(nil), l.p...)
	l.w = append([]float64(nil), l.u...)
	l.fuse(nn)
}

// squareLevel doubles a rung: with n = 2^(lvl-1) steps behind (P, U, Q, W),
//
//	P' = P·P          U' = P·U + U
//	Q' = Q + Q·P      W' = Q·U + 2·W
//
// covering 2n steps. All operands are polynomials in the same M, so the
// products commute and the recurrences follow from splitting the window.
func squareLevel(dst, src *propLevel, nn int) {
	dst.p = matMul(dst.p, src.p, src.p, nn)
	dst.u = matMulAdd(dst.u, src.p, src.u, src.u, nn)
	dst.q = matMulAdd(dst.q, src.q, src.p, src.q, nn)
	dst.w = matMulAdd(dst.w, src.q, src.u, src.w, nn)
	for i := range dst.w {
		dst.w[i] += src.w[i]
	}
	dst.fuse(nn)
}

// matMul returns a·b into dst (allocated if needed; must not alias a or b).
func matMul(dst, a, b []float64, nn int) []float64 {
	if dst == nil {
		dst = make([]float64, nn*nn)
	}
	for i := 0; i < nn; i++ {
		ar := a[i*nn : (i+1)*nn]
		dr := dst[i*nn : (i+1)*nn]
		for j := range dr {
			dr[j] = 0
		}
		for k, av := range ar {
			if av == 0 {
				continue
			}
			br := b[k*nn : (k+1)*nn]
			for j, bv := range br {
				dr[j] += av * bv
			}
		}
	}
	return dst
}

// matMulAdd returns a·b + c into dst.
func matMulAdd(dst, a, b, c []float64, nn int) []float64 {
	dst = matMul(dst, a, b, nn)
	for i := range dst {
		dst[i] += c[i]
	}
	return dst
}

// absBits returns the bit pattern of |v|. For non-negative floats the bit
// patterns order as the values do, so the chunk loop's ∞-norms fold them
// with the integer max, which compiles to a conditional move: no branch to
// mispredict, and a shorter dependency chain than the float max, whose NaN
// and signed-zero fix-ups cost several instructions per element. The result
// is the float max bit for bit for every non-NaN input; a NaN, whose bits
// exceed +Inf's, propagates, where an `if v > m` loop would skip it.
func absBits(v float64) uint64 { return math.Float64bits(v) &^ (1 << 63) }

// absMax returns max |v| over xs, +0 for an empty slice (see absBits).
func absMax(xs []float64) float64 {
	var m uint64
	for _, v := range xs {
		m = max(m, absBits(v))
	}
	return math.Float64frombits(m)
}

// QuiescentSource is a HeatSource that can additionally linearise itself:
// HeatLinear adds into dp the first-order change of the heat inputs when
// node temperatures move by dT around temps. Sources that implement it let
// the leap controller bound and correct frozen-power drift analytically —
// one heat-model evaluation per chunk and evaluation-free chunk rejection —
// instead of re-evaluating the model at the predicted chunk exit. dp is
// pre-zeroed; the usual slice retention contract applies.
type QuiescentSource interface {
	HeatSource
	HeatLinear(temps, dT, dp []float64)
}

// leapEval fills dst with the heat inputs for the given temperatures.
func (n *Network) leapEval(src HeatSource, temps, dst []float64) float64 {
	for i := range dst {
		dst[i] = 0
	}
	if src != nil {
		src.HeatInput(temps, dst)
	}
	var total float64
	for _, v := range dst {
		total += v
	}
	return total
}

// SetLeapSumRows restricts the per-step temperature sums LeapSteps
// accumulates to the given nodes — the machine layer only integrates the
// sensed per-core junctions, so the other rows' Q/W applications are pure
// overhead. nil (the default) sums every node.
func (n *Network) SetLeapSumRows(rows []NodeID) {
	n.leapRows = append(n.leapRows[:0], rows...)
}

// sumRowsOrAll returns the rows LeapSteps accumulates sums for.
func (n *Network) sumRowsOrAll() []NodeID {
	if len(n.leapRows) > 0 {
		return n.leapRows
	}
	if len(n.allRows) != len(n.nodes) {
		n.allRows = n.allRows[:0]
		for i := range n.nodes {
			n.allRows = append(n.allRows, NodeID(i))
		}
	}
	return n.allRows
}

// LeapSteps advances the network across k equal steps of size dt with the
// heat model held structurally constant (the quiescence window the machine
// layer certifies between scheduler events), leaping in adaptively sized
// power-of-two chunks instead of stepping k times. Each node's discrete
// post-step temperature sum Σ_{i=1..k} T_i is added into tempSum (length
// NumNodes; the machine layer turns it into exact °C·s integrals), and the
// returned value is the matching sum of total heat input across steps
// (W·steps, trapezoid-accounted per chunk) for energy integration.
//
// LeapSteps is tolerance-mode: temperatures track the exact integrator to
// within the controller bound (see leapTol) rather than bit-identically.
// It is deterministic — chunk decisions depend only on the thermal state.
func (n *Network) LeapSteps(k int, dt units.Time, src HeatSource, tempSum []float64) float64 {
	if k <= 0 || dt <= 0 {
		return 0
	}
	if n.dirty {
		n.flatten()
	}
	dts := dt.Seconds()
	e := n.ladderFor(dts).e
	nn := len(n.nodes)
	xy := n.leapXY
	pw := xy[nn:] // heat inputs live in the packed [T; p] apply vector
	tNew, dT, diff := n.leapTemp, n.leapPow2, n.leapDiff
	evalT, pwE := n.leapEvalT, n.leapPow
	rows := n.sumRowsOrAll()
	qs, hasLin := src.(QuiescentSource)
	var powSum float64
	haveEval := false
	for k > 0 {
		// Try the whole remaining window as one chunk, up to the
		// controller's current trust 2^leapLevel; the (dt, n) memo makes
		// arbitrary chunk lengths as cheap as ladder rungs.
		c := min(k, 1<<n.leapLevel)
		// Heat inputs at the chunk entry: within leapRelin degrees of
		// the window's last model evaluation a linearised update
		// suffices — multi-chunk transients pay one evaluation per
		// ~leapRelin degrees of movement, not one per chunk.
		var totalA float64
		relin := false
		if haveEval && hasLin {
			var drift uint64
			for i := 0; i < nn; i++ {
				drift = max(drift, absBits(n.temp[i]-evalT[i]))
			}
			relin = math.Float64frombits(drift) <= leapRelin
		}
		if relin {
			for i := 0; i < nn; i++ {
				dT[i] = n.temp[i] - evalT[i]
				diff[i] = 0
			}
			qs.HeatLinear(evalT, dT, diff)
			totalA = 0
			for i := 0; i < nn; i++ {
				pw[i] = pwE[i] + diff[i]
				totalA += pw[i]
			}
		} else {
			totalA = n.leapEval(src, n.temp, pw)
			if hasLin {
				copy(evalT, n.temp)
				copy(pwE, pw)
				haveEval = true
			}
		}
		copy(xy, n.temp)
		for {
			l := n.propFor(e, c)
			applyRows(tNew, l.pu, 2*nn, xy[:2*nn])
			// Frozen-power drift Δp across the chunk, first order:
			// analytically when the source linearises itself, by a
			// second model evaluation otherwise.
			if hasLin {
				for i := range dT {
					dT[i] = tNew[i] - xy[i]
					diff[i] = 0
				}
				qs.HeatLinear(xy[:nn], dT, diff)
			} else {
				n.leapEval(src, tNew, dT)
				for i := range diff {
					diff[i] = dT[i] - pw[i]
				}
			}
			// Drift bound: the additional temperature the chunk would
			// have accumulated had the exit-state power applied
			// throughout — U·Δp from the fused block's right half,
			// folded into tNew as the midpoint correction on accept.
			// The norm pre-check skips the walk (and the correction)
			// when the drift response is provably negligible.
			bound := l.uNorm * absMax(diff)
			if bound > leapSkipCorr {
				// resp = U·Δp into dT (scratch), then its ∞-norm.
				applyRows(dT[:nn], l.pu[nn:], 2*nn, diff[:nn])
				bound = absMax(dT[:nn])
			}
			if bound > leapTol && c > 1 {
				c >>= 1
				n.leapRejects++
				continue
			}
			// Accept with a midpoint power correction — realised
			// error is second order in the bound — and steer the
			// next chunk size.
			var dTotal float64
			for _, v := range diff {
				dTotal += v
			}
			powSum += float64(c) * (totalA + 0.5*dTotal)
			correct := bound > leapSkipCorr
			if correct {
				for i := range tNew {
					tNew[i] += 0.5 * dT[i]
				}
			}
			// Discrete per-step temperature sums, only for the rows
			// anyone integrates.
			sumRows(tempSum, rows, l.qw, xy[:2*nn], diff[:nn], correct)
			copy(n.temp, tNew)
			k -= c
			n.leapChunks++
			n.leapSteps += uint64(c)
			// Trust steering: a comfortable bound doubles the cap, a
			// merely acceptable one pins it at the accepted size.
			switch {
			case bound <= leapTol*leapGrow && n.leapLevel < leapMaxLevel:
				n.leapLevel++
			default:
				for n.leapLevel > 0 && 1<<(n.leapLevel-1) >= c {
					n.leapLevel--
				}
			}
			break
		}
	}
	return powSum
}

// LeapStats reports the cumulative number of accepted leap chunks and the
// steps they covered — the compression ratio steps/chunks is the integrator's
// effective speed advantage over step-by-step integration.
func (n *Network) LeapStats() (chunks, steps uint64) {
	return n.leapChunks, n.leapSteps
}

// LeapRejects reports the cumulative number of chunk attempts the drift
// controller rejected and subdivided — a high ratio against LeapStats'
// chunks means the tolerance is binding (fast transients), a near-zero one
// that windows leap whole.
func (n *Network) LeapRejects() uint64 { return n.leapRejects }
