// Package repro's root benchmarks are the measurements gist-bench does
// not make. The paper's tables and figures have one door,
// `go run ./cmd/gist-bench -exp all`; these sit beside it:
//
//	BenchmarkAblation*         — design-choice ablations called out in DESIGN.md
//	BenchmarkSingleDiagnosis   — one complete pbzip2 diagnosis, end to end
//	BenchmarkFleetScaling      — the same diagnosis at fleet widths 1, 2, 4, 8
//
// Each ablation prints its comparison once and reports its headline
// numbers as custom benchmark metrics. Run with:
//
//	go test -run '^$' -bench . .
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
