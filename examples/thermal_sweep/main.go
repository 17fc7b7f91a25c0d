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

	"repro/internal/engine"
	"repro/internal/experiments"
)

func main() {
	scale := flag.Float64("scale", 0.25, "run scale (1.0 = paper-duration 300s runs)")
	flag.Parse()
	s := experiments.Scale(*scale)

	fmt.Printf("Dimetrodon thermal sweep at scale %.2f\n\n", *scale)
	fmt.Println("-- Figure 3: efficiency vs idle quantum length --")
	fmt.Println(experiments.RunFigure3(s, engine.Config{}))
	fmt.Println("-- Figure 4: Dimetrodon vs VFS vs p4tcc --")
	fmt.Println(experiments.RunFigure4(s, engine.Config{}))
}
