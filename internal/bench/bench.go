// Package bench is the non-test registry of the repository's kernel
// micro-benchmarks. The testing-package benchmarks under scripts/bench.sh
// only compile and run when someone invokes `go test -bench`, so structural
// rot there used to surface late; these bodies mirror the same setups as
// plain functions, `dimctl bench` runs them in smoke mode (one iteration),
// and a tier-1 CLI test exercises that path on every `go test ./...`.
package bench

import (
	"context"
	"fmt"
	"net/http/httptest"
	"time"

	"repro/internal/engine"
	"repro/internal/fleetsched"
	"repro/internal/scenario"
	"repro/internal/service"
	"repro/internal/thermal"
	"repro/internal/units"
)

// Micro is one registered micro-benchmark body: Run performs iters
// iterations of the measured unit.
type Micro struct {
	Name string
	Doc  string
	Run  func(iters int) error
}

// KernelNetwork builds the micro-benchmark testbed topology — ambient
// boundary, heatsink, package, four junction nodes with a representative
// temperature-coupled heat input — and returns the package node alongside
// the junctions so callers never hardcode construction-order node ids. It
// is the single definition shared by `dimctl bench` and the testing-package
// benchmarks in internal/thermal, so both always measure the same kernel.
func KernelNetwork() (*thermal.Network, thermal.PowerFunc, thermal.NodeID, []thermal.NodeID) {
	n := thermal.NewNetwork()
	amb := n.AddBoundary("ambient", 25.2)
	sink := n.AddNode("heatsink", 170, 25.2)
	pkg := n.AddNode("package", 45, 25.2)
	n.Connect(sink, amb, 0.115)
	n.Connect(pkg, sink, 0.045)
	var junctions []thermal.NodeID
	for i := 0; i < 4; i++ {
		j := n.AddNode("junction", 0.0375, 25.2)
		n.Connect(j, pkg, 0.80)
		junctions = append(junctions, j)
	}
	power := func(temps []float64, out []float64) {
		out[pkg] += 15
		for _, j := range junctions {
			out[j] += 11 + 0.05*(temps[j]-25.2)
		}
	}
	return n, power, pkg, junctions
}

// LeapSource is the linearising heat source the leap benchmarks use,
// mirroring the chip model's shape: temperature-coupled heat with an
// analytic linearisation.
type LeapSource struct {
	Pkg       thermal.NodeID
	Junctions []thermal.NodeID
}

// HeatInput implements thermal.HeatSource.
func (s *LeapSource) HeatInput(temps, out []float64) {
	out[s.Pkg] += 15
	for _, j := range s.Junctions {
		out[j] += 11 + 0.05*(temps[j]-25.2)
	}
}

// HeatLinear implements thermal.QuiescentSource.
func (s *LeapSource) HeatLinear(temps, dT, dp []float64) {
	for _, j := range s.Junctions {
		dp[j] += 0.05 * dT[j]
	}
}

// Micros returns the registered kernel micro-benchmarks in run order.
func Micros() []Micro {
	return []Micro{
		{
			Name: "thermal-step",
			Doc:  "exact RC kernel, constant 2 ms step (decay cache hit)",
			Run: func(iters int) error {
				n, power, _, _ := KernelNetwork()
				dt := 2 * units.Millisecond
				n.Step(dt, power)
				for i := 0; i < iters; i++ {
					n.Step(dt, power)
				}
				return nil
			},
		},
		{
			Name: "thermal-step-fewdt",
			Doc:  "exact RC kernel cycling recurring step sizes (decay LRU)",
			Run: func(iters int) error {
				n, power, _, _ := KernelNetwork()
				sizes := []units.Time{
					2 * units.Millisecond, 311 * units.Microsecond,
					2 * units.Millisecond, 97 * units.Microsecond,
					2 * units.Millisecond, 733 * units.Microsecond,
				}
				for i := 0; i < iters*len(sizes); i++ {
					n.Step(sizes[i%len(sizes)], power)
				}
				return nil
			},
		},
		{
			Name: "thermal-leap",
			Doc:  "quiescence-leap integrator, one 50-step window per iteration",
			Run: func(iters int) error {
				n, _, pkg, junctions := KernelNetwork()
				src := &LeapSource{Pkg: pkg, Junctions: junctions}
				sums := make([]float64, n.NumNodes())
				dt := 2 * units.Millisecond
				for i := 0; i < iters; i++ {
					n.LeapSteps(50, dt, src, sums)
				}
				if chunks, steps := n.LeapStats(); steps == 0 || chunks == 0 {
					return fmt.Errorf("leap integrator never engaged")
				}
				return nil
			},
		},
		{
			Name: "solve-steady-state",
			Doc:  "idle-equilibrium fixed-point solve",
			Run: func(iters int) error {
				for i := 0; i < iters; i++ {
					n, power, _, _ := KernelNetwork()
					if _, ok := n.SolveSteadyState(power, 1e-7, 200000); !ok {
						return fmt.Errorf("steady-state solve did not converge")
					}
				}
				return nil
			},
		},
		{
			Name: "fleet-scenario",
			Doc:  "fleet-diurnal scenario end to end at golden scale (leap integrator)",
			Run: func(iters int) error {
				for i := 0; i < iters; i++ {
					if _, err := scenario.RunByName("fleet-diurnal", 0.05, engine.Config{}); err != nil {
						return err
					}
				}
				return nil
			},
		},
		{
			Name: "mega-fleet",
			Doc:  "fleet-diurnal tiled to 100k machines through the batched engine",
			Run: func(iters int) error {
				for i := 0; i < iters; i++ {
					res, err := scenario.RunMegaByName("fleet-diurnal", 100_000, 0.05, engine.Config{})
					if err != nil {
						return err
					}
					if res.Total != 100_000 || res.Base <= 0 {
						return fmt.Errorf("mega run tiled %d machines from %d", res.Total, res.Base)
					}
				}
				return nil
			},
		},
		{
			Name: "fleet-sched",
			Doc:  "sched-shootout scheduled run at golden scale, default policy",
			Run: func(iters int) error {
				for i := 0; i < iters; i++ {
					if _, err := fleetsched.RunByName("sched-shootout", "", 0.05, engine.Config{}); err != nil {
						return err
					}
				}
				return nil
			},
		},
		{
			Name: "service-submit",
			Doc:  "daemon submit over HTTP: one cold run, then cache-hit round-trips",
			Run: func(iters int) error {
				svc := service.New(service.Config{Workers: 2, DefaultScale: 1})
				defer func() {
					ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
					defer cancel()
					_ = svc.Shutdown(ctx)
				}()
				srv := httptest.NewServer(svc.Handler())
				defer srv.Close()
				c := service.NewClient(srv.URL)
				req := service.Request{Spec: []byte(`{
					"name": "bench-service-submit",
					"duration_s": 2,
					"fleet": {"machines": 1, "base_seed": 42},
					"machine": {"cores": 1},
					"workload": [{"kind": "burn", "threads": 1}]
				}`)}
				v, err := c.Submit(req)
				if err != nil {
					return err
				}
				final, err := c.Wait(context.Background(), v.ID)
				if err != nil {
					return err
				}
				if final.State != service.StateDone {
					return fmt.Errorf("bench job finished %s: %s", final.State, final.Error)
				}
				for i := 0; i < iters; i++ {
					hit, err := c.Submit(req)
					if err != nil {
						return err
					}
					if !hit.CacheHit {
						return fmt.Errorf("iteration %d missed the result cache", i)
					}
				}
				return nil
			},
		},
	}
}
