// Fleet diurnal: run the scenario engine's 24-machine datacenter-day
// scenario at reduced scale and read the fleet the way an operator would —
// temperature percentiles across machines, total injection overhead, and
// the violation tally. Then re-run the identical fleet with the policy
// stripped to show what the injection bought.
package main

import (
	"fmt"

	dimetrodon "repro"
)

func main() {
	const scale = dimetrodon.Scale(0.25)

	fmt.Println("Fleet diurnal: a compressed datacenter day across 24 machines")
	fmt.Println()

	managed, err := dimetrodon.RunScenario("fleet-diurnal", scale, dimetrodon.Engine{})
	if err != nil {
		panic(err)
	}
	fmt.Print(managed)
	fmt.Println()

	// The same fleet, race-to-idle: copy the registered spec and drop the
	// policy. Ad-hoc specs run without being registered.
	spec, _ := dimetrodon.LookupScenario("fleet-diurnal")
	baseline := *spec
	baseline.Name = "fleet-diurnal-baseline"
	baseline.Title = "the same fleet with no policy (race-to-idle)"
	baseline.Policy.Kind = "none"
	baseline.Policy.P = 0
	baseline.Policy.LMS = 0

	unmanaged, err := dimetrodon.RunScenarioSpec(&baseline, scale, dimetrodon.Engine{})
	if err != nil {
		panic(err)
	}
	fmt.Print(unmanaged)
	fmt.Println()

	m, u := managed.Fleet, unmanaged.Fleet
	fmt.Printf("injection bought the fleet:\n")
	fmt.Printf("  p90 mean junction   %.2fC -> %.2fC\n", u.MeanJunctionP90, m.MeanJunctionP90)
	fmt.Printf("  max peak junction   %.2fC -> %.2fC\n", u.PeakJunctionMax, m.PeakJunctionMax)
	fmt.Printf("  total power         %.0fW -> %.0fW\n", u.TotalPower, m.TotalPower)
	fmt.Printf("  work rate           %.1f -> %.1f ref-s/s (the throughput price)\n", u.TotalWorkRate, m.TotalWorkRate)
}
