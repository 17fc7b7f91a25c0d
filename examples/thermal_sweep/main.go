// Thermal sweep: reproduce the heart of Figures 3 and 4 — sweep Dimetrodon's
// idle quantum length and proportion over the cpuburn worst case, print the
// efficiency surface, and compare the Pareto boundary against the VFS and
// p4tcc baselines.
//
// Usage: go run ./examples/thermal_sweep [-scale 0.25]
package main

import (
	"flag"
	"fmt"
	"os"

	dimetrodon "repro"
)

func main() {
	scale := flag.Float64("scale", 0.25, "run scale (1.0 = paper-duration 300s runs)")
	flag.Parse()

	fmt.Printf("Dimetrodon thermal sweep at scale %.2f\n\n", *scale)
	fmt.Println("-- Figure 3: efficiency vs idle quantum length --")
	if err := dimetrodon.Experiments["fig3"].Run(os.Stdout, dimetrodon.Scale(*scale), dimetrodon.Engine{}); err != nil {
		fmt.Fprintln(os.Stderr, "fig3:", err)
		os.Exit(1)
	}
	fmt.Println("-- Figure 4: Dimetrodon vs VFS vs p4tcc --")
	if err := dimetrodon.Experiments["fig4"].Run(os.Stdout, dimetrodon.Scale(*scale), dimetrodon.Engine{}); err != nil {
		fmt.Fprintln(os.Stderr, "fig4:", err)
		os.Exit(1)
	}
}
