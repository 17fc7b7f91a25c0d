package scenario

import "fmt"

// RunShard executes the contiguous machine range [from, to) of the scenario's
// compiled fleet and returns those members' results, index-ordered. It is the
// worker half of the distributed tier: every trial's identity (seed, fan
// factor, duration) derives from the spec and the machine index alone, so a
// shard computed on any node is bit-identical to the same machines run
// in-process — the coordinator can merge shards from different workers, or
// re-run a shard after a worker death, without the output changing.
//
// skip lists machine indices whose results an earlier attempt already
// delivered; they are not re-simulated and do not reappear in the returned
// slice (the redispatch path after a partial stream). OnMachine fires per
// completed machine, concurrently, exactly as in RunOpts; aggregation hooks
// (Completed) are ignored — shards return raw results, the coordinator
// aggregates once over the whole fleet.
func RunShard(spec *Spec, scale float64, from, to int, skip []int, opts RunOptions) ([]MachineResult, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.Scheduler != nil {
		// Scheduled fleets couple machines through placement and migration;
		// a machine-range shard would silently drop that coupling.
		return nil, fmt.Errorf("scenario %q: scheduled fleets are machine-coupled and cannot shard", spec.Name)
	}
	trials := compile(spec, scale, opts)
	if from < 0 || to > len(trials) || from >= to {
		return nil, fmt.Errorf("scenario %q: shard [%d,%d) outside fleet of %d machines at scale %g",
			spec.Name, from, to, len(trials), scale)
	}
	skipSet := make(map[int]bool, len(skip))
	for _, i := range skip {
		skipSet[i] = true
	}
	var sub []MachineTrial
	for _, t := range trials[from:to] {
		if !skipSet[t.Index] {
			sub = append(sub, t)
		}
	}
	if len(sub) == 0 {
		return nil, nil
	}
	return runTrials(spec, sub, opts)
}
