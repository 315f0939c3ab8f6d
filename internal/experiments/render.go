package experiments

import (
	"fmt"
	"strings"
)

// RenderTable1 renders Table 1 in the paper's column layout.
func RenderTable1(rows []Table1Row) string {
	var b strings.Builder
	b.WriteString("Table 1: bugs used to evaluate Gist (sizes in source LOC, with IR instructions in parentheses)\n\n")
	fmt.Fprintf(&b, "%-13s %-13s %-8s %-8s %12s %15s %15s %22s %14s\n",
		"Bug", "Software", "Version", "BugID",
		"Static slice", "Ideal sketch", "Gist sketch", "Recurrences <time>", "Overhead")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-13s %-13s %-8s %-8s %6d (%4d) %8d (%4d) %8d (%4d) %10d <%s> (%s) %9.2f%%\n",
			r.Bug, r.Software, r.Version, r.BugID,
			r.SliceLOC, r.SliceInstrs,
			r.IdealLOC, r.IdealInstrs,
			r.SketchLOC, r.SketchInstr,
			r.Recurrences,
			r.DiagnosisTime.Round(1e6), r.AnalysisTime.Round(1e6),
			r.AvgOverheadPct)
	}
	return b.String()
}

// RenderFig9 renders the accuracy figure as a table.
func RenderFig9(rows []Fig9Row) string {
	var b strings.Builder
	b.WriteString("Fig. 9: accuracy of Gist (percent)\n\n")
	fmt.Fprintf(&b, "%-13s %10s %10s %10s\n", "Bug", "Relevance", "Ordering", "Overall")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-13s %10.1f %10.1f %10.1f\n", r.Bug, r.Relevance, r.Ordering, r.Overall)
	}
	rel, ord, overall := Fig9Averages(rows)
	fmt.Fprintf(&b, "%-13s %10.1f %10.1f %10.1f\n", "average", rel, ord, overall)
	return b.String()
}

// RenderFig10 renders the technique-contribution figure as a table.
func RenderFig10(rows []Fig10Row) string {
	var b strings.Builder
	b.WriteString("Fig. 10: contribution of each technique to overall accuracy (percent)\n\n")
	fmt.Fprintf(&b, "%-13s %12s %12s %12s\n", "Bug", "static", "+ctrl-flow", "+data-flow")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-13s %12.1f %12.1f %12.1f\n", r.Bug, r.StaticOnly, r.PlusCF, r.PlusDF)
	}
	return b.String()
}

// RenderFig11 renders overhead-vs-slice-size as a series.
func RenderFig11(points []Fig11Point) string {
	var b strings.Builder
	b.WriteString("Fig. 11: average client overhead vs. tracked slice size\n\n")
	fmt.Fprintf(&b, "%12s %14s\n", "slice size", "overhead (%)")
	for _, p := range points {
		fmt.Fprintf(&b, "%12d %14.2f\n", p.SliceSize, p.AvgOverheadPct)
	}
	return b.String()
}

// RenderFig12 renders the σ tradeoff.
func RenderFig12(rows []Fig12Row) string {
	var b strings.Builder
	b.WriteString("Fig. 12: tradeoff between initial slice size, accuracy, and latency\n\n")
	fmt.Fprintf(&b, "%8s %14s %22s\n", "sigma0", "accuracy (%)", "latency (recurrences)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%8d %14.1f %22.1f\n", r.Sigma0, r.AvgAccuracy, r.AvgLatency)
	}
	return b.String()
}

// RenderFig13 renders the full-tracing comparison.
func RenderFig13(rows []Fig13Row) string {
	var b strings.Builder
	b.WriteString("Fig. 13: full-tracing overhead, Mozilla-rr-style record/replay vs. Intel PT\n\n")
	fmt.Fprintf(&b, "%-13s %14s %18s %10s\n", "Bug", "Intel PT (%)", "record/replay (%)", "ratio")
	var ptSum, rrSum float64
	for _, r := range rows {
		fmt.Fprintf(&b, "%-13s %14.2f %18.1f %9.1fx\n", r.Bug, r.IntelPTPct, r.MozillaRRPct, r.Ratio)
		ptSum += r.IntelPTPct
		rrSum += r.MozillaRRPct
	}
	n := float64(len(rows))
	if n > 0 {
		fmt.Fprintf(&b, "%-13s %14.2f %18.1f\n", "average", ptSum/n, rrSum/n)
	}
	return b.String()
}

// RenderBreakdown renders the §5.3 overhead decomposition.
func RenderBreakdown(rows []BreakdownRow) string {
	var b strings.Builder
	b.WriteString("§5.3: Gist overhead breakdown at sigma=2 (percent)\n\n")
	fmt.Fprintf(&b, "%-13s %12s %12s %12s\n", "Bug", "ctrl-flow", "data-flow", "full")
	var cf, df, full float64
	for _, r := range rows {
		fmt.Fprintf(&b, "%-13s %12.2f %12.2f %12.2f\n", r.Bug, r.CFOnlyPct, r.DFOnlyPct, r.FullPct)
		cf += r.CFOnlyPct
		df += r.DFOnlyPct
		full += r.FullPct
	}
	n := float64(len(rows))
	if n > 0 {
		fmt.Fprintf(&b, "%-13s %12.2f %12.2f %12.2f\n", "average", cf/n, df/n, full/n)
	}
	return b.String()
}

// RenderExtPT renders the §6 extension comparison.
func RenderExtPT(rows []ExtPTRow) string {
	var b strings.Builder
	b.WriteString("§6: data flow via hardware watchpoints vs. extended PT (PTWRITE-style)\n\n")
	fmt.Fprintf(&b, "%-13s %18s %18s %18s %18s\n", "Bug",
		"wp overhead (%)", "wp accuracy (%)", "ext overhead (%)", "ext accuracy (%)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-13s %18.2f %18.1f %18.2f %18.1f\n",
			r.Bug, r.WPOverhead, r.WPAccuracy, r.ExtOverhead, r.ExtAccuracy)
	}
	return b.String()
}

// RenderChaos renders the chaos sweep, one row per (rate, bug).
func RenderChaos(rows []ChaosRow) string {
	var b strings.Builder
	b.WriteString("Chaos: diagnosis quality vs. composite fleet fault rate (fixed seed, deterministic)\n\n")
	fmt.Fprintf(&b, "%6s %-13s %13s %7s %6s %5s %5s %7s %7s %8s %9s\n",
		"rate", "Bug", "accuracy (%)", "recurr", "runs",
		"lost", "dead", "decode", "quarant", "reseeded", "status")
	for _, r := range rows {
		status := "ok"
		switch {
		case r.Err:
			status = "failed"
		case r.LowConfidence:
			status = "low-conf"
		}
		fmt.Fprintf(&b, "%5.0f%% %-13s %13.1f %7d %6d %5d %5d %7d %7d %8d %9s\n",
			r.Rate*100, r.Bug, r.Accuracy, r.Recurrences, r.TotalRuns,
			r.Health.Lost, r.Health.Deadlined, r.Health.DecodeErrs,
			r.Health.Quarantined, r.Health.Reseeded, status)
	}
	return b.String()
}

// RenderSWPT renders the §4 hardware-vs-software tracing comparison.
func RenderSWPT(rows []SWPTRow) string {
	var b strings.Builder
	b.WriteString("§4: full control-flow tracing, hardware PT vs. software (PIN-style)\n\n")
	fmt.Fprintf(&b, "%-13s %14s %14s %10s\n", "Bug", "hardware (%)", "software (%)", "ratio")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-13s %14.2f %14.1f %9.0fx\n", r.Bug, r.HardwarePct, r.SoftwarePct, r.SlowdownVsHWOnce)
	}
	return b.String()
}
