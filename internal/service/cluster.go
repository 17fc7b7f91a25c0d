package service

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/scenario"
)

// ClusterConfig enables coordinator mode: unscheduled scenario jobs shard
// across the static worker set, with lease-based recovery and degrade-to-local
// when no worker is healthy. The zero value keeps the daemon single-node.
//
// Determinism survives distribution: shard boundaries are a pure function of
// the fleet size, each machine simulates from its own seed regardless of which
// worker (or the coordinator itself) runs it, and the coordinator folds the
// streamed results through the same index-ordered aggregation a single-node
// run uses — the final artifact is byte-identical no matter how many leases
// expired along the way.
type ClusterConfig struct {
	// Workers is the static worker base-URL list; empty disables clustering.
	Workers []string
	// LeaseTTL, HeartbeatEvery, UnhealthyAfter, ShardsPerWorker, MaxPerWorker
	// and MaxShardAttempts tune the cluster.Config knobs of the same names;
	// zero selects that package's defaults.
	LeaseTTL         time.Duration
	HeartbeatEvery   time.Duration
	UnhealthyAfter   int
	ShardsPerWorker  int
	MaxPerWorker     int
	MaxShardAttempts int
}

// openCluster starts the coordinator tier. Called from Open after recovery so
// re-enqueued jobs dispatch through it like fresh ones.
func (s *Service) openCluster() {
	cc := s.cfg.Cluster
	s.cluClients = make(map[string]*Client, len(cc.Workers))
	s.cluPIDs = make(map[string]int, len(cc.Workers))
	for i, url := range cc.Workers {
		// No retry policy: the lease machinery is the retry layer, and a
		// client-side retry would only blur the coordinator's failure signal.
		s.cluClients[url] = NewClient(url)
		s.cluPIDs[url] = i + 2 // pid 1 is the coordinator's own spans
	}
	probe := func(ctx context.Context, url string) error {
		return s.cluClients[url].ClusterHealth(ctx)
	}
	onHealth := func(url string, healthy bool) {
		if healthy {
			s.log.Info("worker healthy", "worker", url)
		} else {
			s.log.Warn("worker unhealthy", "worker", url)
		}
	}
	s.clu = cluster.New(cluster.Config{
		Workers:          cc.Workers,
		LeaseTTL:         cc.LeaseTTL,
		HeartbeatEvery:   cc.HeartbeatEvery,
		UnhealthyAfter:   cc.UnhealthyAfter,
		ShardsPerWorker:  cc.ShardsPerWorker,
		MaxPerWorker:     cc.MaxPerWorker,
		MaxShardAttempts: cc.MaxShardAttempts,
		Logger:           s.log,
	}, probe, onHealth)
	s.log.Info("coordinator mode", "workers", len(cc.Workers))
}

// clusterHeat renders the heat frame handleHeat serves. Single-node daemons
// and plain workers serve their local map; a coordinator additionally polls
// each worker's one-shot frame (short timeout — a slow worker costs latency,
// never correctness) and folds the "<job>/s<shard>" rows into the matching
// local jobs, so `dimctl top` against the coordinator shows the whole sharded
// fleet's cells, not just completion summaries.
func (s *Service) clusterHeat(ctx context.Context) HeatFrame {
	local := s.heat.snapshot()
	if s.clu == nil {
		return local
	}
	urls := s.cfg.Cluster.Workers
	remotes := make([]HeatFrame, len(urls))
	var wg sync.WaitGroup
	for i, url := range urls {
		wg.Add(1)
		go func(i int, c *Client) {
			defer wg.Done()
			wctx, cancel := context.WithTimeout(ctx, time.Second)
			defer cancel()
			var f HeatFrame
			if c.doOnce(wctx, "GET", "/v1/fleet/heat?once=1", nil, &f) == nil {
				remotes[i] = f
			}
		}(i, s.cluClients[url])
	}
	wg.Wait()
	return mergeHeatFrames(local, remotes...)
}

// executeClusteredScenario is execute's KindScenario arm under coordinator
// mode: shard the fleet across the workers, stream results back into the
// job's telemetry ring and resume log (resumable exactly like a single-node
// run), then aggregate through the single-node path for byte-identical
// output.
func (s *Service) executeClusteredScenario(ctx context.Context, j *Job, w *resumeWriter) (*Artifact, error) {
	r := j.res
	n := len(r.spec.Compile(r.scale))
	raw, err := json.Marshal(r.spec)
	if err != nil {
		return nil, fmt.Errorf("cluster: encoding spec for dispatch: %w", err)
	}

	// As in execute's single-node arm, recovered results re-emit and skip
	// dispatch (RunReq.Done), and new ones go through the job's resume
	// writer, announced once durable.
	recovered := s.resumeMachines(j)
	doneIdx := make([]int, len(recovered))
	for i, m := range recovered {
		doneIdx[i] = m.Index
	}

	onEvent := func(e cluster.Event) {
		switch e.Kind {
		case "grant":
			s.met.cluDispatched.Add(1)
			if e.Attempt > 1 {
				s.met.cluRetries.Add(1)
			}
			j.trace.Instant(fmt.Sprintf("shard %d -> %s", e.Shard.ID, e.Worker), "cluster", 0)
		case "revoke":
			s.met.cluLeaseAge.Observe(e.Age.Seconds())
			if e.Reason == cluster.ReasonExpired {
				s.met.cluExpirations.Add(1)
			}
			j.trace.Instant(fmt.Sprintf("shard %d revoked: %s", e.Shard.ID, e.Reason), "cluster", 0)
		case "local":
			s.met.cluLocal.Add(1)
			j.trace.Instant(fmt.Sprintf("shard %d degraded to local", e.Shard.ID), "cluster", 0)
		case "done":
			j.trace.Instant(fmt.Sprintf("shard %d done on %s (attempt %d)", e.Shard.ID, e.Worker, e.Attempt), "cluster", 0)
		}
	}

	spClu := j.trace.Start("cluster", "lifecycle", 0)
	out, err := s.clu.Run(ctx, cluster.RunReq{
		Machines: n,
		Done:     doneIdx,
		Dispatch: func(ctx context.Context, url string, sh cluster.Shard, skip []int, onRes func(scenario.MachineResult)) error {
			// Dispatch time anchors the worker's relative span clock: its shard
			// spans land on the coordinator's timeline at the moment the
			// request left, rendered under the worker's own trace process ID.
			t0d := time.Now()
			spans, err := s.cluClients[url].ShardStream(ctx, ShardRequest{
				Spec:       raw,
				Scale:      r.scale,
				Shard:      sh,
				Skip:       skip,
				Integrator: s.cfg.Engine.Integrator,
				Job:        j.ID,
			}, onRes)
			if err != nil {
				return err
			}
			if len(spans) > 0 {
				j.trace.Import(spans, s.cluPIDs[url], t0d)
			}
			return nil
		},
		Local: func(ctx context.Context, sh cluster.Shard, skip []int, onRes func(scenario.MachineResult)) error {
			_, err := scenario.RunShard(r.spec, r.scale, sh.From, sh.To, skip, scenario.RunOptions{
				Engine:    s.cfg.Engine,
				Context:   ctx,
				OnMachine: onRes,
			})
			return err
		},
		OnResult: w.machine,
		OnEvent:  onEvent,
	})
	spClu.EndArgs(map[string]any{
		"machines": n, "redispatches": out.Redispatches,
		"expirations": out.Expirations, "local_shards": out.LocalShards,
	})
	if err != nil {
		return nil, err
	}
	if out.Degraded {
		s.met.cluDegraded.Add(1)
		j.markDegraded()
		s.emit(j, Event{Type: "degraded", Job: j.ID, Error: fmt.Sprintf(
			"%d shard(s) ran on the coordinator: no healthy worker available", out.LocalShards)})
		s.log.Warn("job completed degraded", "job", j.ID, "local_shards", out.LocalShards)
		s.dumpIncident("degraded", j.ID, fmt.Sprintf(
			"%d shard(s) degraded to local execution: no healthy worker available", out.LocalShards), nil)
	}

	// Merge: resume-recovered + newly streamed results, index order, then
	// the single-node aggregation path. With full coverage RunOpts simulates
	// nothing — it validates and folds, so the artifact bytes are exactly what
	// a single-node run of the same spec produces.
	all := append(append([]scenario.MachineResult(nil), recovered...), out.Results...)
	sort.Slice(all, func(a, b int) bool { return all[a].Index < all[b].Index })
	res, err := scenario.RunOpts(r.spec, r.scale, scenario.RunOptions{
		Engine:    s.cfg.Engine,
		Context:   ctx,
		Completed: all,
		Trace:     j.trace,
	})
	if err != nil {
		return nil, err
	}
	return &Artifact{
		Rendered:   res.String(),
		Files:      scenario.RenderResult(res),
		SimSeconds: res.Duration.Seconds() * float64(len(res.Machines)),
	}, nil
}
