// The fleet engine.
//
// Every scenario trial runs through runTrials. A homogeneous fleet — the
// common case the paper's evaluation sweeps — would otherwise repeat
// identical work N times over. So every machine takes its leap propagators
// from one thermal.PropStore — the caller's (dimd keeps one for its
// lifetime), or one per run — which builds each propagator once per
// topology. Trials are grouped by the part of their configuration that
// varies within one compiled fleet (fan factor and ambient), and a group
// whose representative provably never consumed randomness is simulated once
// and replicated across seeds.
//
// Grouping is an optimisation, not a semantic fork: every simulated machine
// measures through the one measure() loop, shared propagators are
// bit-identical to privately built ones (pinned in internal/thermal),
// aggregation folds in strict index order, and the equivalence suite
// (batch_test.go) pins Run, RunShard and RunMega byte-identical to an
// independent build-and-measure reference for every library scenario at any
// -jobs setting.
package scenario

import (
	"fmt"
	"math"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/thermal"
	"repro/internal/units"
)

// groupKey is the part of a trial's machine configuration that varies within
// one compiled fleet: the exact bit patterns of its fan factor and ambient.
// Everything else — spec, durations, metric tick, integrator — is shared by
// every trial of a run, so trials with equal keys build byte-identical
// machines up to the seed, which is the precondition for seed-invariant
// replication.
type groupKey struct{ fan, ambient uint64 }

// batchGroup is one set of trials sharing a groupKey; members is in
// ascending trial order, members[0] is the representative.
type batchGroup struct {
	members []int
	draws   uint64 // RNG draws the representative's dynamics consumed
}

// stampResult adapts a replicated result to the adopting trial's identity.
// Only the identity fields differ between trials that share a result; the
// Web stats block is deep-copied so no two results alias one mutable struct.
func stampResult(src MachineResult, t *MachineTrial) MachineResult {
	src.Index = t.Index
	src.Seed = t.Seed
	src.FanFactor = t.FanFactor
	if src.Web != nil {
		w := *src.Web
		src.Web = &w
	}
	return src
}

// simulate builds and measures one trial with its network on the run's
// propagator store. It returns the result and the RNG draws the dynamics
// consumed (the replication licence). The first traceMachineSpans machines
// get their own trace span.
func simulate(t MachineTrial, opts RunOptions, props *thermal.PropStore) (MachineResult, uint64, error) {
	var sp obs.Span
	if t.Index < traceMachineSpans {
		sp = opts.Trace.Start(fmt.Sprintf("machine-%03d", t.Index), "machine", t.Index+1)
	}
	m, tm1, srv, err := t.Build()
	if err != nil {
		return MachineResult{}, 0, err
	}
	m.Net.Net.SetPropStore(props)
	draws0 := m.RNGDraws()
	res, err := measure(m, tm1, srv, t, opts)
	if err != nil {
		return MachineResult{}, 0, err
	}
	sp.EndArgs(map[string]any{"peak_c": res.PeakJunction})
	return res, m.RNGDraws() - draws0, nil
}

// runTrials is the fleet engine's core: group the trials, run one
// representative per group to establish the replication licence, then run
// the remaining members — or, when the representative consumed no
// randomness, stamp its result out across the group. It returns one result
// per trial, in trial order, and fires OnMachine once per trial.
//
// Replication is derived from the installed observers: a telemetry tap or a
// state observer must see every machine's own run, and a replicated result
// carries neither its samples nor its final state, so replication stands
// down when either is set. Every machine then simulates for real, still on
// the shared propagator store. No other sharing is needed:
// MachineSeed is injective in the index, so one compiled fleet never holds
// two equal (config, seed) trials.
func runTrials(spec *Spec, trials []MachineTrial, opts RunOptions) ([]MachineResult, error) {
	results := make([]MachineResult, len(trials))
	share := opts.OnTelemetry == nil && opts.OnState == nil

	groups := make(map[groupKey]*batchGroup)
	var order []*batchGroup
	for i := range trials {
		k := groupKey{math.Float64bits(trials[i].FanFactor), math.Float64bits(trials[i].AmbientC)}
		g := groups[k]
		if g == nil {
			g = &batchGroup{}
			groups[k] = g
			order = append(order, g)
		}
		g.members = append(g.members, i)
	}

	finish := func(i int, r MachineResult) {
		results[i] = r
		if opts.OnMachine != nil {
			opts.OnMachine(r)
		}
	}
	fail := func(err error) ([]MachineResult, error) {
		return nil, fmt.Errorf("scenario %q: %w", spec.Name, err)
	}

	spStep := opts.Trace.Start("step", "scenario", 0)
	// Representatives run before the rest of their group, so their draw
	// counts are known before the members run.
	props := opts.PropStore
	if props == nil {
		props = thermal.NewPropStore()
	}
	if _, err := runner.MapErrCtx(opts.Context, opts.Engine.Jobs, order, func(_ int, g *batchGroup) (struct{}, error) {
		i := g.members[0]
		r, draws, err := simulate(trials[i], opts, props)
		if err != nil {
			return struct{}{}, err
		}
		g.draws = draws
		finish(i, r)
		return struct{}{}, nil
	}); err != nil {
		return fail(err)
	}

	// A representative that consumed zero RNG draws proves the
	// configuration's dynamics are seed-insensitive — the first draw would
	// occur at the same simulated moment for every seed, so if one seed never
	// reaches it, none does — and its result replicates across the group.
	// Otherwise every member simulates.
	var pending []int
	replicated := 0
	for _, g := range order {
		rep, rest := g.members[0], g.members[1:]
		if share && g.draws == 0 {
			for _, i := range rest {
				finish(i, stampResult(results[rep], &trials[i]))
			}
			replicated += len(rest)
			continue
		}
		pending = append(pending, rest...)
	}
	if _, err := runner.MapErrCtx(opts.Context, opts.Engine.Jobs, pending, func(_ int, i int) (struct{}, error) {
		r, _, err := simulate(trials[i], opts, props)
		if err != nil {
			return struct{}{}, err
		}
		finish(i, r)
		return struct{}{}, nil
	}); err != nil {
		return fail(err)
	}
	spStep.EndArgs(map[string]any{"machines": len(trials), "groups": len(order), "replicated": replicated})
	return results, nil
}

// RunMegaByName looks the scenario up in the registry and runs it tiled out
// to total machines under the given engine.
func RunMegaByName(name string, total int, scale float64, ec engine.Config) (*MegaResult, error) {
	spec, ok := Get(name)
	if !ok {
		return nil, fmt.Errorf("scenario: unknown scenario %q", name)
	}
	return RunMega(spec, total, scale, ec)
}

// MegaResult is a tiled mega-fleet run: the spec's compiled fleet simulated
// once through Run, replicated across Total indices, and
// aggregated through the same strict-index-order arithmetic as every other
// path — without ever materialising Total MachineResults.
type MegaResult struct {
	Spec     *Spec
	Scale    float64
	Total    int // fleet size after tiling
	Base     int // distinct machines actually simulated (the compiled fleet)
	Duration units.Time
	Warmup   units.Time
	Fleet    FleetAgg
}

// RunMega executes the scenario tiled out to total machines: machine i is an
// exact replica of compiled trial i mod B (same config, same seed), so only
// the B distinct trials simulate and the tiled accessor carries the rest.
// This is how a million-machine fleet summary comes off a laptop: B
// simulations, two O(total) float arrays for the temperature quantiles, and
// a compensated index-ordered fold for the totals.
func RunMega(spec *Spec, total int, scale float64, ec engine.Config) (*MegaResult, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	base := spec.Fleet.Machines
	if total < base {
		return nil, fmt.Errorf("scenario %q: mega fleet of %d machines is smaller than the spec's fleet of %d", spec.Name, total, base)
	}
	br, err := RunOpts(spec, scale, RunOptions{Engine: ec})
	if err != nil {
		return nil, err
	}
	agg := aggregateFrom(spec, total, func(i int) *MachineResult { return &br.Machines[i%base] })
	return &MegaResult{
		Spec:     spec,
		Scale:    scale,
		Total:    total,
		Base:     base,
		Duration: br.Duration,
		Warmup:   br.Warmup,
		Fleet:    agg,
	}, nil
}

// String renders the mega-fleet summary: the Result header and fleet block,
// with the per-machine table elided (a million-row table helps no one).
func (r *MegaResult) String() string {
	s := r.Spec
	a := r.Fleet
	out := fmt.Sprintf("Scenario %s: %s\n", s.Name, s.Title)
	out += fmt.Sprintf("mega fleet of %d machines (%d distinct simulated), %v per machine (%v warmup), policy %s, violation >= %.1fC\n",
		r.Total, r.Base, r.Duration, r.Warmup, policyLabel(s.Policy), s.violationC())
	out += fmt.Sprintf("mean junction across fleet:  p50 %7.3fC  p90 %7.3fC  max %7.3fC\n",
		a.MeanJunctionP50, a.MeanJunctionP90, a.MeanJunctionMax)
	out += fmt.Sprintf("peak junction across fleet:  p50 %7.3fC  p99 %7.3fC  max %7.3fC\n",
		a.PeakJunctionP50, a.PeakJunctionP99, a.PeakJunctionMax)
	out += fmt.Sprintf("fleet work rate %.3f ref-s/s   total power %.1fW   injection overhead %.2f%% (%d quanta)\n",
		a.TotalWorkRate, a.TotalPower, a.OverheadPct, a.TotalInjection)
	out += fmt.Sprintf("thermal violations: %d excursions on %d/%d machines, %.1fs above threshold\n",
		a.TotalViolations, a.MachinesViol, r.Total, a.ViolationS)
	if a.TM1Trips > 0 || a.TM1ThrottledS > 0 || s.Policy.TM1 {
		out += fmt.Sprintf("TM1 backstop: %d trips, %.1fs throttled fleet-wide\n", a.TM1Trips, a.TM1ThrottledS)
	}
	if a.WebMachines > 0 {
		out += fmt.Sprintf("web QoS: good %.1f%% mean / %.1f%% worst machine, %.1f req/s fleet throughput\n",
			100*a.WebGoodMean, 100*a.WebGoodMin, a.WebThroughput)
	}
	return out
}
