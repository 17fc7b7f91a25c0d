package experiments

import (
	"fmt"
	"strings"

	"repro/internal/analysis"
	"repro/internal/engine"
	"repro/internal/export"
	"repro/internal/trace"
)

// Export runs the named experiment at the given scale and writes plot-ready
// CSV files into dir (created if needed), returning the paths written. It
// covers every figure and table of the paper plus the extension studies;
// ablation results are table-shaped and exported as a single CSV each.
func Export(id string, scale Scale, dir string, ec engine.Config) ([]string, error) {
	files, err := Render(id, scale, ec)
	if err != nil {
		return nil, err
	}
	return export.Write(dir, files...)
}

// Render runs the named experiment and renders its CSV artefacts in memory —
// the single definition Export writes to disk and the service daemon serves
// over HTTP, keeping the two byte-identical.
func Render(id string, scale Scale, ec engine.Config) ([]export.File, error) {
	switch id {
	case "fig1":
		r := RunFigure1(scale, ec)
		return collect(
			seriesCSV("fig1_race_to_idle.csv", r.RaceToIdle),
			seriesCSV("fig1_dimetrodon.csv", r.Dimetrodon),
		)
	case "fig2":
		r := RunFigure2(scale, ec)
		var files []namedCSV
		for _, c := range r.Curves {
			files = append(files, seriesCSV(fmt.Sprintf("fig2_rise_p%02.0f.csv", c.P*100), c.Rise))
		}
		return collect(files...)
	case "fig3":
		r := RunFigure3(scale, ec)
		var b strings.Builder
		b.WriteString("p,L_ms,temp_reduction,perf_reduction,efficiency\n")
		for _, pt := range r.Points {
			fmt.Fprintf(&b, "%g,%g,%.6f,%.6f,%.4f\n",
				pt.P, pt.L.Milliseconds(), pt.TempRed, pt.PerfRed, pt.Efficiency)
		}
		return collect(namedCSV{Name: "fig3_efficiency.csv", Content: b.String()})
	case "fig4":
		r := RunFigure4(scale, ec)
		return collect(
			pointsCSV("fig4_dimetrodon.csv", r.Dimetrodon),
			pointsCSV("fig4_vfs.csv", r.VFS),
			pointsCSV("fig4_p4tcc.csv", r.P4TCC),
			pointsCSV("fig4_dimetrodon_pareto.csv", r.DimPareto),
			pointsCSV("fig4_vfs_pareto.csv", r.VFSPareto),
			pointsCSV("fig4_p4tcc_pareto.csv", r.TCCPareto),
		)
	case "table1":
		r := RunTable1(scale, ec)
		var b strings.Builder
		b.WriteString("workload,rise_pct,paper_rise_pct,alpha,paper_alpha,beta,paper_beta,fit_r2\n")
		for _, row := range r.Rows {
			fmt.Fprintf(&b, "%s,%.2f,%.1f,%.4f,%.3f,%.4f,%.3f,%.4f\n",
				row.Workload, row.RisePct, row.PaperRisePct,
				row.Fit.Alpha, row.PaperAlpha, row.Fit.Beta, row.PaperBeta, row.Fit.R2)
		}
		return collect(namedCSV{Name: "table1_workloads.csv", Content: b.String()})
	case "fig5":
		r := RunFigure5(scale, ec)
		return collect(
			fig5CSV("fig5_global.csv", r.Global),
			fig5CSV("fig5_per_thread.csv", r.PerThread),
		)
	case "fig6":
		r := RunFigure6(scale, ec)
		var b strings.Builder
		b.WriteString("label,temp_reduction,good_qos,tolerable_qos,throughput_rps,mean_latency_s\n")
		for _, p := range r.Points {
			fmt.Fprintf(&b, "%q,%.6f,%.6f,%.6f,%.3f,%.6f\n",
				p.Label, p.TempReduction, p.GoodQoS, p.TolerableQoS,
				p.Throughput, p.MeanLatency.Seconds())
		}
		return collect(namedCSV{Name: "fig6_web_qos.csv", Content: b.String()})
	case "val-throughput":
		r := RunValidationThroughput(scale, ec)
		var b strings.Builder
		b.WriteString("p,L_ms,trials,predicted_s,measured_s,throughput_dev_pct\n")
		for _, row := range r.Rows {
			fmt.Fprintf(&b, "%g,%g,%d,%.6f,%.6f,%.4f\n",
				row.P, row.L.Milliseconds(), row.Trials,
				row.Predicted.Seconds(), row.MeanActual.Seconds(), row.DeviationPct)
		}
		return collect(namedCSV{Name: "val_throughput.csv", Content: b.String()})
	case "val-energy":
		r := RunValidationEnergy(scale, ec)
		var b strings.Builder
		b.WriteString("p,L_ms,trials,measured_ratio_pct,exact_ratio_pct\n")
		for _, row := range r.Rows {
			fmt.Fprintf(&b, "%g,%g,%d,%.4f,%.4f\n",
				row.P, row.L.Milliseconds(), row.Trials, row.RatioPct, row.TrueRatioPct)
		}
		return collect(namedCSV{Name: "val_energy.csv", Content: b.String()})
	case "abl-leakage", "abl-cstate", "abl-deterministic", "abl-hotspot":
		var r AblationResult
		switch id {
		case "abl-leakage":
			r = RunAblationLeakage(scale, ec)
		case "abl-cstate":
			r = RunAblationCState(scale, ec)
		case "abl-hotspot":
			r = RunAblationHotspot(scale, ec)
		default:
			r = RunAblationDeterministic(scale, ec)
		}
		var b strings.Builder
		b.WriteString("label,base_r,base_T,base_eff,variant_r,variant_T,variant_eff\n")
		for _, p := range r.Points {
			fmt.Fprintf(&b, "%q,%.6f,%.6f,%.4f,%.6f,%.6f,%.4f\n", p.Label,
				p.Baseline.TempRed, p.Baseline.PerfRed, p.Baseline.Efficiency,
				p.Variant.TempRed, p.Variant.PerfRed, p.Variant.Efficiency)
		}
		return collect(namedCSV{Name: fmt.Sprintf("%s.csv", strings.ReplaceAll(id, "-", "_")), Content: b.String()})
	case "abl-kernel":
		r := RunAblationKernelThreads(scale, ec)
		var b strings.Builder
		b.WriteString("label,shielded_good,shielded_r,shielded_mean_s,injected_good,injected_r,injected_mean_s,kernel_injections\n")
		for _, p := range r.Points {
			fmt.Fprintf(&b, "%q,%.4f,%.4f,%.6f,%.4f,%.4f,%.6f,%d\n", p.Label,
				p.ShieldedGood, p.ShieldedRed, p.ShieldedMean.Seconds(),
				p.InjectedGood, p.InjectedRed, p.InjectedMean.Seconds(), p.KernelInjects)
		}
		return collect(namedCSV{Name: "abl_kernel.csv", Content: b.String()})
	case "ext-adaptive":
		r := RunAdaptiveControl(scale, ec)
		var b strings.Builder
		b.WriteString("phase,mean_dts_c,mean_p,target_err_c\n")
		for _, p := range r.Phases {
			fmt.Fprintf(&b, "%q,%.4f,%.4f,%.4f\n", p.Name, p.MeanDTS, p.MeanP, p.TargetErr)
		}
		return collect(namedCSV{Name: "ext_adaptive.csv", Content: b.String()})
	case "ext-ule":
		r := RunULEComparison(scale, ec)
		var b strings.Builder
		b.WriteString("label,bsd_r,bsd_T,bsd_eff,ule_r,ule_T,ule_eff,steals\n")
		for _, p := range r.Points {
			fmt.Fprintf(&b, "%q,%.6f,%.6f,%.4f,%.6f,%.6f,%.4f,%d\n", p.Label,
				p.BSD.TempRed, p.BSD.PerfRed, p.BSD.Efficiency,
				p.ULE.TempRed, p.ULE.PerfRed, p.ULE.Efficiency, p.Steals)
		}
		return collect(namedCSV{Name: "ext_ule.csv", Content: b.String()})
	case "ext-emergency":
		r := RunEmergencyScenario(scale, ec)
		var b strings.Builder
		b.WriteString("strategy,peak_c,mean_c,work_rate,trips,throttled_s\n")
		for _, a := range r.Arms {
			fmt.Fprintf(&b, "%q,%.3f,%.3f,%.4f,%d,%.3f\n", a.Name,
				float64(a.PeakJunction), float64(a.MeanJunction),
				a.WorkRate, a.Trips, a.Throttled.Seconds())
		}
		return collect(namedCSV{Name: "ext_emergency.csv", Content: b.String()})
	case "ext-smt":
		r := RunSMTCoScheduling(scale, ec)
		var b strings.Builder
		b.WriteString("label,naive_r,naive_T,naive_eff,cosched_r,cosched_T,cosched_eff,gang_idles\n")
		for _, p := range r.Points {
			fmt.Fprintf(&b, "%q,%.6f,%.6f,%.4f,%.6f,%.6f,%.4f,%d\n", p.Label,
				p.Naive.TempRed, p.Naive.PerfRed, p.Naive.Efficiency,
				p.CoSch.TempRed, p.CoSch.PerfRed, p.CoSch.Efficiency, p.ForcedIdles)
		}
		return collect(namedCSV{Name: "ext_smt.csv", Content: b.String()})
	default:
		return nil, fmt.Errorf("experiments: no CSV export for %q", id)
	}
}

// namedCSV couples a file name with rendered CSV content; it is the shared
// export package's File, kept under its historical local name.
type namedCSV = export.File

func collect(files ...namedCSV) ([]export.File, error) {
	return files, nil
}

func seriesCSV(name string, s *trace.Series) namedCSV {
	var b strings.Builder
	if err := s.WriteCSV(&b); err != nil {
		// strings.Builder cannot fail; keep the error path honest.
		panic(err)
	}
	return namedCSV{Name: name, Content: b.String()}
}

func pointsCSV(name string, pts []analysis.TradeoffPoint) namedCSV {
	var b strings.Builder
	b.WriteString("label,temp_reduction,perf_reduction,efficiency\n")
	for _, p := range pts {
		eff := 0.0
		if p.PerfReduction > 0 {
			eff = p.TempReduction / p.PerfReduction
		}
		fmt.Fprintf(&b, "%q,%.6f,%.6f,%.4f\n", p.Label, p.TempReduction, p.PerfReduction, eff)
	}
	return namedCSV{Name: name, Content: b.String()}
}

func fig5CSV(name string, pts []Figure5Point) namedCSV {
	var b strings.Builder
	b.WriteString("label,temp_reduction,cool_throughput\n")
	for _, p := range pts {
		fmt.Fprintf(&b, "%q,%.6f,%.6f\n", p.Label, p.TempReduction, p.CoolThroughput)
	}
	return namedCSV{Name: name, Content: b.String()}
}
