// Package repro's root benchmark harness regenerates every table and
// figure of the paper's evaluation as testing.B benchmarks:
//
//	BenchmarkTable1                — Table 1 (slice/sketch sizes, recurrences, overhead)
//	BenchmarkFigSketches           — Figs. 1, 7, 8 (the rendered sketches)
//	BenchmarkFig9Accuracy          — Fig. 9 (relevance/ordering/overall accuracy)
//	BenchmarkFig10Contribution     — Fig. 10 (technique contribution ablation)
//	BenchmarkFig11OverheadVsSlice  — Fig. 11 (overhead vs. tracked slice size)
//	BenchmarkFig12SigmaTradeoff    — Fig. 12 (initial σ vs. accuracy and latency)
//	BenchmarkFig13FullTracing      — Fig. 13 (record/replay vs. Intel PT)
//	BenchmarkOverheadBreakdown     — §5.3 (control-flow vs. data-flow overhead at σ=2)
//	BenchmarkPTSoftwareVsHardware  — §4 (hardware PT vs. PIN-style software tracing)
//	BenchmarkAblation*             — design-choice ablations called out in DESIGN.md
//
// Each benchmark prints the regenerated rows/series once and reports its
// headline numbers as custom benchmark metrics. Run with:
//
//	go test -bench=. -benchmem .
package repro_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/bugs"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/stats"
)

// printOnce prevents repeated table dumps when the benchmark framework
// re-runs a benchmark with a larger b.N.
var printOnce sync.Map

func printTable(key, text string) {
	if _, dup := printOnce.LoadOrStore(key, true); !dup {
		fmt.Printf("\n%s\n", text)
	}
}

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1(nil)
		if err != nil {
			b.Fatal(err)
		}
		printTable("table1", experiments.RenderTable1(rows))
		var rec, ov []float64
		for _, r := range rows {
			rec = append(rec, float64(r.Recurrences))
			ov = append(ov, r.AvgOverheadPct)
		}
		b.ReportMetric(stats.Mean(rec), "recurrences/bug")
		b.ReportMetric(stats.Mean(ov), "overhead-%")
	}
}

func BenchmarkFigSketches(b *testing.B) {
	for i := 0; i < b.N; i++ {
		figs, err := experiments.SketchFigures()
		if err != nil {
			b.Fatal(err)
		}
		for _, name := range []string{"pbzip2", "curl", "apache-3"} {
			printTable("sketch-"+name, figs[name])
		}
	}
}

func BenchmarkFig9Accuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig9(nil)
		if err != nil {
			b.Fatal(err)
		}
		printTable("fig9", experiments.RenderFig9(rows))
		rel, ord, overall := experiments.Fig9Averages(rows)
		b.ReportMetric(rel, "relevance-%")
		b.ReportMetric(ord, "ordering-%")
		b.ReportMetric(overall, "overall-%")
	}
}

func BenchmarkFig10Contribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig10(nil)
		if err != nil {
			b.Fatal(err)
		}
		printTable("fig10", experiments.RenderFig10(rows))
		var st, df []float64
		for _, r := range rows {
			st = append(st, r.StaticOnly)
			df = append(df, r.PlusDF)
		}
		b.ReportMetric(stats.Mean(st), "static-%")
		b.ReportMetric(stats.Mean(df), "full-%")
	}
}

func BenchmarkFig11OverheadVsSlice(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := experiments.Fig11(nil, nil, 8)
		if err != nil {
			b.Fatal(err)
		}
		printTable("fig11", experiments.RenderFig11(points))
		b.ReportMetric(points[0].AvgOverheadPct, "sigma2-overhead-%")
		b.ReportMetric(points[len(points)-1].AvgOverheadPct, "max-overhead-%")
	}
}

func BenchmarkFig12SigmaTradeoff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig12(nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		printTable("fig12", experiments.RenderFig12(rows))
		b.ReportMetric(rows[0].AvgLatency, "sigma2-recurrences")
		b.ReportMetric(rows[len(rows)-1].AvgLatency, "sigma32-recurrences")
	}
}

func BenchmarkFig13FullTracing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig13(nil, 8)
		if err != nil {
			b.Fatal(err)
		}
		printTable("fig13", experiments.RenderFig13(rows))
		var pt, rr []float64
		for _, r := range rows {
			pt = append(pt, r.IntelPTPct)
			rr = append(rr, r.MozillaRRPct)
		}
		b.ReportMetric(stats.Mean(pt), "intel-pt-%")
		b.ReportMetric(stats.Mean(rr), "record-replay-%")
	}
}

func BenchmarkOverheadBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Breakdown(nil, 8)
		if err != nil {
			b.Fatal(err)
		}
		printTable("breakdown", experiments.RenderBreakdown(rows))
		var cf, df, full []float64
		for _, r := range rows {
			cf = append(cf, r.CFOnlyPct)
			df = append(df, r.DFOnlyPct)
			full = append(full, r.FullPct)
		}
		b.ReportMetric(stats.Mean(cf), "ctrl-flow-%")
		b.ReportMetric(stats.Mean(df), "data-flow-%")
		b.ReportMetric(stats.Mean(full), "full-%")
	}
}

func BenchmarkPTSoftwareVsHardware(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.SoftwarePT(nil, 6)
		printTable("swpt", experiments.RenderSWPT(rows))
		var hw, sw []float64
		for _, r := range rows {
			hw = append(hw, r.HardwarePct)
			sw = append(sw, r.SoftwarePct)
		}
		b.ReportMetric(stats.Mean(hw), "hardware-%")
		b.ReportMetric(stats.Mean(sw), "software-%")
	}
}

// BenchmarkAblationAstGrowth compares AsT's multiplicative window growth
// with additive growth: the latter needs more failure recurrences to reach
// a root-cause-bearing sketch (the latency argument of §3.2.1).
func BenchmarkAblationAstGrowth(b *testing.B) {
	suite := experiments.Suite("pbzip2", "apache-3", "memcached")
	for i := 0; i < b.N; i++ {
		var mul, add []float64
		for _, bug := range suite {
			cfg := bug.GistConfig()
			cfg.StopWhen = bugs.DeveloperOracle(bug)
			resMul, err := core.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			cfg = bug.GistConfig()
			cfg.StopWhen = bugs.DeveloperOracle(bug)
			cfg.SigmaGrowthAdd = 2 // linear growth: sigma += 2
			resAdd, err := core.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			mul = append(mul, float64(resMul.FailureRecurrences))
			add = append(add, float64(resAdd.FailureRecurrences))
		}
		printTable("ablation-growth", fmt.Sprintf(
			"Ablation: AsT window growth\n  multiplicative (paper): %.1f recurrences avg\n  additive (+2):          %.1f recurrences avg\n",
			stats.Mean(mul), stats.Mean(add)))
		b.ReportMetric(stats.Mean(mul), "multiplicative-recurrences")
		b.ReportMetric(stats.Mean(add), "additive-recurrences")
	}
}

// BenchmarkAblationFBeta compares the paper's precision-favoring β=0.5
// ranking with β=1: the top predictor's precision is what the developer
// acts on, so lower precision means misleading sketches.
func BenchmarkAblationFBeta(b *testing.B) {
	suite := experiments.Suite("pbzip2", "curl", "apache-1", "apache-3")
	for i := 0; i < b.N; i++ {
		topPrecision := func(beta float64) float64 {
			var ps []float64
			for _, bug := range suite {
				cfg := bug.GistConfig()
				cfg.Beta = beta
				cfg.StopWhen = bugs.DeveloperOracle(bug)
				res, err := core.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Sketch.AllRanked) > 0 {
					ps = append(ps, res.Sketch.AllRanked[0].P)
				}
			}
			return stats.Mean(ps)
		}
		p05 := topPrecision(0.5)
		p10 := topPrecision(1.0)
		printTable("ablation-beta", fmt.Sprintf(
			"Ablation: F-measure beta\n  beta=0.5 (paper): top-predictor precision %.2f\n  beta=1.0:         top-predictor precision %.2f\n",
			p05, p10))
		b.ReportMetric(p05, "beta0.5-precision")
		b.ReportMetric(p10, "beta1.0-precision")
	}
}

// BenchmarkAblationAliasFreeSlicing quantifies the paper's no-alias-
// analysis design: how many sketch statements had to be discovered by
// runtime data flow because the static slice could not see them.
func BenchmarkAblationAliasFreeSlicing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var refined, sliceSizes []float64
		for _, bug := range bugs.All() {
			res, err := experiments.Diagnose(bug, core.AllFeatures(), 0)
			if err != nil {
				b.Fatal(err)
			}
			refined = append(refined, float64(len(res.Sketch.AddedByRefinement)))
			sliceSizes = append(sliceSizes, float64(res.Slice.InstrCount()))
		}
		printTable("ablation-alias", fmt.Sprintf(
			"Ablation: alias-free slicing\n  statements recovered by data-flow refinement: %.1f avg/bug\n  (final slice size %.1f IR instructions avg)\n",
			stats.Mean(refined), stats.Mean(sliceSizes)))
		b.ReportMetric(stats.Mean(refined), "refined-instrs/bug")
	}
}

// BenchmarkAblationExtendedPT compares data flow via hardware watchpoints
// (the shipping design) with the §6 extended-PT hardware extension
// (PTWRITE-style data packets, tracing always on): the extension removes
// the debug-register budget at the price of full-trace overhead.
func BenchmarkAblationExtendedPT(b *testing.B) {
	suite := experiments.Suite("pbzip2", "memcached", "apache-3")
	for i := 0; i < b.N; i++ {
		rows, err := experiments.ExtendedPT(suite)
		if err != nil {
			b.Fatal(err)
		}
		printTable("ablation-extpt", experiments.RenderExtPT(rows))
		var wpOv, extOv, wpAcc, extAcc []float64
		for _, r := range rows {
			wpOv = append(wpOv, r.WPOverhead)
			extOv = append(extOv, r.ExtOverhead)
			wpAcc = append(wpAcc, r.WPAccuracy)
			extAcc = append(extAcc, r.ExtAccuracy)
		}
		b.ReportMetric(stats.Mean(wpOv), "watchpoint-overhead-%")
		b.ReportMetric(stats.Mean(extOv), "extpt-overhead-%")
		b.ReportMetric(stats.Mean(wpAcc), "watchpoint-accuracy-%")
		b.ReportMetric(stats.Mean(extAcc), "extpt-accuracy-%")
	}
}

// BenchmarkSingleDiagnosis measures the end-to-end cost of one complete
// pbzip2 diagnosis (the pipeline a Gist server executes per failure).
func BenchmarkSingleDiagnosis(b *testing.B) {
	bug := bugs.ByName("pbzip2")
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Diagnose(bug, core.AllFeatures(), 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFleetScaling runs the pbzip2 diagnosis at increasing fleet
// worker-pool widths. Output is byte-identical at every width (the
// determinism tests assert that); this measures only the wall-clock
// effect, which is bounded by GOMAXPROCS.
func BenchmarkFleetScaling(b *testing.B) {
	bug := bugs.ByName("pbzip2")
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := bug.GistConfig()
				cfg.Features = core.AllFeatures()
				cfg.Workers = workers
				cfg.StopWhen = bugs.DeveloperOracle(bug)
				res, err := core.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.TotalRuns+res.DiscoveryRuns), "runs/diagnosis")
			}
		})
	}
}
