package main

import (
	"encoding/json"
	"fmt"

	"repro/internal/scenario"
	"repro/internal/service"
)

// Every spec the daemon sees is generated here. A spec's identity — its name
// and its fleet base seed — is a function of the workload seed and the
// spec's index, so one seed always yields the same content keys and two
// seeds never share one: no run rides the result cache of another.

// maxSeed bounds the workload seed so baseSeed stays one-to-one.
const maxSeed = 1 << 39

// warmIndex numbers set-up specs apart from measured ones.
const warmIndex = 1 << 23

// baseSeed packs (workload seed, spec index) into a fleet base seed; the
// index takes the low 24 bits.
func baseSeed(seed uint64, i int) uint64 { return seed<<24 | uint64(i) }

// librarySpec copies a registered scenario.
func librarySpec(name string) *scenario.Spec {
	s, ok := scenario.Get(name)
	if !ok {
		panic("dimbench: library scenario " + name + " is not registered")
	}
	return s.Clone()
}

// fleetColdSpec is fleet-cold's i-th job.
func fleetColdSpec(seed uint64, i int) *scenario.Spec { return fleetSpec(seed, i, 1024) }

// fleetSpec is fleet-diurnal's mix and policy on a homogeneous fleet (no fan
// spread) spread over aisles 6 °C apart: racks of one SKU in different
// aisles.
func fleetSpec(seed uint64, i, machines int) *scenario.Spec {
	s := librarySpec("fleet-diurnal")
	s.Name = fmt.Sprintf("bench-fleet-%d", i)
	s.Fleet = scenario.FleetSpec{Machines: machines, BaseSeed: baseSeed(seed, i), AmbientSpreadC: 6}
	return s
}

// serveSpec is serve-mix's i-th spec: one machine burning one thread for 2 s.
func serveSpec(seed uint64, i int) *scenario.Spec {
	return &scenario.Spec{
		Name:      fmt.Sprintf("bench-serve-%d", i),
		DurationS: 2,
		Fleet:     scenario.FleetSpec{Machines: 1, BaseSeed: baseSeed(seed, i)},
		Machine:   scenario.MachineSpec{Cores: 1},
		Workload:  []scenario.ComponentSpec{{Kind: scenario.KindBurn, Threads: 1}},
	}
}

// schedSpec is sched-rounds' i-th job.
func schedSpec(seed uint64, i int) *scenario.Spec { return schedFleet(seed, i, 48) }

// schedFleet is sched-shootout resized to the given fleet.
func schedFleet(seed uint64, i, machines int) *scenario.Spec {
	s := librarySpec("sched-shootout")
	s.Name = fmt.Sprintf("bench-sched-%d", i)
	s.Fleet.Machines = machines
	s.Fleet.BaseSeed = baseSeed(seed, i)
	return s
}

// request wraps a generated spec as a submission.
func request(kind string, spec *scenario.Spec, scale float64) service.Request {
	raw, err := json.Marshal(spec)
	if err != nil {
		panic(fmt.Sprintf("dimbench: marshaling generated spec %s: %v", spec.Name, err))
	}
	return service.Request{Kind: kind, Spec: raw, Scale: scale}
}
