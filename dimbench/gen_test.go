package main

import (
	"testing"

	"repro/internal/scenario"
	"repro/internal/service"
)

// contentKeys returns the content address the daemon computes for the first
// n specs a generator yields for seed, from the bytes it would be sent.
func contentKeys(t *testing.T, gen func(uint64, int) *scenario.Spec, seed uint64, n int) []string {
	t.Helper()
	keys := make([]string, n)
	for i := range keys {
		spec, err := scenario.Decode(request(service.KindScenario, gen(seed, i), 1).Spec)
		if err != nil {
			t.Fatal(err)
		}
		if keys[i], err = spec.Hash(); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}

func TestSeedFixesContentKeys(t *testing.T) {
	for name, gen := range map[string]func(uint64, int) *scenario.Spec{
		"fleet-cold":   fleetColdSpec,
		"serve-mix":    serveSpec,
		"sched-rounds": schedSpec,
	} {
		a, again, b := contentKeys(t, gen, 1, 32), contentKeys(t, gen, 1, 32), contentKeys(t, gen, 2, 32)
		seen := map[string]bool{}
		for i, k := range a {
			if again[i] != k {
				t.Errorf("%s: seed 1 spec %d changed its key between generations", name, i)
			}
			if seen[k] {
				t.Errorf("%s: seed 1 yields key %s twice", name, k)
			}
			seen[k] = true
		}
		for i, k := range b {
			if seen[k] {
				t.Errorf("%s: seeds 1 and 2 share key %s (spec %d)", name, k, i)
			}
		}
	}
}
