package experiments

import (
	"fmt"
	"strings"

	"repro/internal/analysis"
	"repro/internal/export"
	"repro/internal/trace"
)

// CSV writers shared by several results' Files methods.

func seriesCSV(name string, s *trace.Series) export.File {
	var b strings.Builder
	if err := s.WriteCSV(&b); err != nil {
		// strings.Builder cannot fail; keep the error path honest.
		panic(err)
	}
	return export.File{Name: name, Content: b.String()}
}

func pointsCSV(name string, pts []analysis.TradeoffPoint) export.File {
	var b strings.Builder
	b.WriteString("label,temp_reduction,perf_reduction,efficiency\n")
	for _, p := range pts {
		eff := 0.0
		if p.PerfReduction > 0 {
			eff = p.TempReduction / p.PerfReduction
		}
		fmt.Fprintf(&b, "%q,%.6f,%.6f,%.4f\n", p.Label, p.TempReduction, p.PerfReduction, eff)
	}
	return export.File{Name: name, Content: b.String()}
}

func fig5CSV(name string, pts []Figure5Point) export.File {
	var b strings.Builder
	b.WriteString("label,temp_reduction,cool_throughput\n")
	for _, p := range pts {
		fmt.Fprintf(&b, "%q,%.6f,%.6f\n", p.Label, p.TempReduction, p.CoolThroughput)
	}
	return export.File{Name: name, Content: b.String()}
}
