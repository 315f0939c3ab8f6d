// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) against the bug suite:
//
//	Table 1  — per-bug slice/sketch sizes, failure recurrences, latency
//	Figs 1/7/8 — the rendered failure sketches
//	Fig 9    — relevance / ordering / overall sketch accuracy
//	Fig 10   — accuracy contribution of slicing, control flow, data flow
//	Fig 11   — client overhead vs. tracked slice size
//	Fig 12   — initial σ vs. accuracy and latency
//	Fig 13   — full-tracing overhead: record/replay vs. Intel PT
//	§5.3     — overhead breakdown (control flow vs. data flow, σ=2)
//	§4       — hardware PT vs. software (PIN-style) control-flow tracing
//
// Absolute numbers differ from the paper (the substrate is a simulator
// with an explicit cost model); the shapes are what must match.
package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/bugs"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/hw/pt"
	"repro/internal/ir"
	"repro/internal/replay"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/vm"
)

// Workers is the fan-out width of the per-bug experiment drivers and
// the fleet width handed to every diagnosis they launch
// (core.Config.Workers). 0 means GOMAXPROCS. gist-bench's -workers
// flag sets it; diagnoses are byte-identical for any value, so the
// knob trades only wall-clock time.
var Workers int

// Telemetry, when set (gist-bench's -trace-out/-metrics-json flags),
// receives phase spans and counters from every diagnosis the experiment
// drivers launch. Results are byte-identical with it nil or set.
var Telemetry *telemetry.Tracer

func experimentWorkers() int {
	if Workers > 0 {
		return Workers
	}
	return runtime.GOMAXPROCS(0)
}

// fanOut evaluates f(0..n-1) on up to `workers` goroutines, results in
// index order — the experiments-side twin of core's fleet pool, used to
// spread suite sweeps across bugs.
func fanOut[T any](n, workers int, f func(int) T) []T {
	out := make([]T, n)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			out[i] = f(i)
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i] = f(i)
			}
		}()
	}
	wg.Wait()
	return out
}

// forEachBug evaluates fn on every bug of the suite concurrently while
// keeping results in suite order. Error semantics match the historical
// serial drivers: the rows of every bug before the first failing one
// (in suite order) are returned together with that bug's error.
func forEachBug[T any](suite []*bugs.Bug, fn func(*bugs.Bug) (T, error)) ([]T, error) {
	type outcome struct {
		row T
		err error
	}
	results := fanOut(len(suite), experimentWorkers(), func(i int) outcome {
		row, err := fn(suite[i])
		return outcome{row, err}
	})
	rows := make([]T, 0, len(suite))
	for _, r := range results {
		if r.err != nil {
			return rows, r.err
		}
		rows = append(rows, r.row)
	}
	return rows, nil
}

// Suite returns the bugs to evaluate: all 11 by default, or the named
// subset.
func Suite(names ...string) []*bugs.Bug {
	if len(names) == 0 {
		return bugs.All()
	}
	var out []*bugs.Bug
	for _, n := range names {
		if b := bugs.ByName(n); b != nil {
			out = append(out, b)
		}
	}
	return out
}

// Diagnose runs the full Gist pipeline on one bug with the developer
// oracle, the given feature set, and initial window size sigma0 (0 = the
// paper's default of 2).
func Diagnose(b *bugs.Bug, feats core.Features, sigma0 int) (*core.Result, error) {
	cfg := b.GistConfig()
	cfg.Features = feats
	cfg.Sigma0 = sigma0
	cfg.Workers = Workers
	cfg.Telemetry = Telemetry
	cfg.StopWhen = bugs.DeveloperOracle(b)
	return core.Run(cfg)
}

// ------------------------------------------------------------- Table 1

// Table1Row is one row of Table 1.
type Table1Row struct {
	Bug      string
	Software string
	Version  string
	BugID    string
	RealLOC  int

	SliceLOC    int
	SliceInstrs int
	IdealLOC    int
	IdealInstrs int
	SketchLOC   int
	SketchInstr int

	Recurrences   int
	TotalRuns     int
	DiscoveryRuns int

	AvgOverheadPct float64
	// AnalysisTime is the offline static analysis time (TICFG + slice +
	// instrumentation plan).
	AnalysisTime time.Duration
	// DiagnosisTime is the wall time of the whole simulated diagnosis.
	DiagnosisTime time.Duration
}

// Table1 regenerates Table 1 for the given bugs (nil = all), fanning
// the per-bug diagnoses out across the experiment worker pool.
func Table1(suite []*bugs.Bug) ([]Table1Row, error) {
	if suite == nil {
		suite = bugs.All()
	}
	return forEachBug(suite, func(b *bugs.Bug) (Table1Row, error) {
		row, err := table1Row(b)
		if err != nil {
			return row, fmt.Errorf("%s: %w", b.Name, err)
		}
		return row, nil
	})
}

func table1Row(b *bugs.Bug) (Table1Row, error) {
	row := Table1Row{
		Bug: b.Name, Software: b.Software, Version: b.Version,
		BugID: b.BugID, RealLOC: b.RealLOC,
	}
	gcfg := b.GistConfig()
	gcfg.Workers = Workers
	gcfg.Telemetry = Telemetry

	// Offline analysis: what the Gist server does before instrumenting.
	// The artifacts are memoized process-wide, so the first diagnosis of
	// a program pays the build and later sweeps measure the cache hit.
	report, disc, err := core.FirstFailure(gcfg)
	if err != nil {
		return row, err
	}
	t0 := time.Now()
	g := analysis.Graph(b.Program())
	sl := analysis.Slice(b.Program(), report.InstrID)
	core.BuildPlan(g, sl.Window(2), core.AllFeatures())
	row.AnalysisTime = time.Since(t0)
	row.SliceLOC = sl.LineCount()
	row.SliceInstrs = sl.InstrCount()

	ideal := b.Ideal()
	row.IdealLOC = len(ideal.Lines)
	row.IdealInstrs = instrsOnLines(b.Program(), ideal.Lines)

	t1 := time.Now()
	gcfg.StopWhen = bugs.DeveloperOracle(b)
	res, err := core.RunFromReport(gcfg, report, disc)
	if err != nil {
		return row, err
	}
	row.DiagnosisTime = time.Since(t1)
	row.SketchLOC = len(res.Sketch.Lines())
	row.SketchInstr = len(res.Sketch.InstrSet)
	row.Recurrences = res.FailureRecurrences
	row.TotalRuns = res.TotalRuns
	row.DiscoveryRuns = res.DiscoveryRuns
	row.AvgOverheadPct = res.AvgOverheadPct
	return row, nil
}

func instrsOnLines(p *ir.Program, lines []int) int {
	want := make(map[int]bool)
	for _, ln := range lines {
		want[ln] = true
	}
	n := 0
	for _, in := range p.Instrs {
		if want[in.Pos.Line] {
			n++
		}
	}
	return n
}

// ------------------------------------------------------------- Fig 9

// Fig9Row is one bar group of Fig. 9.
type Fig9Row struct {
	Bug                          string
	Relevance, Ordering, Overall float64
}

// Fig9 regenerates the accuracy figure.
func Fig9(suite []*bugs.Bug) ([]Fig9Row, error) {
	if suite == nil {
		suite = bugs.All()
	}
	return forEachBug(suite, func(b *bugs.Bug) (Fig9Row, error) {
		res, err := Diagnose(b, core.AllFeatures(), 0)
		if err != nil {
			return Fig9Row{}, fmt.Errorf("%s: %w", b.Name, err)
		}
		rel, ord, overall := res.Sketch.Accuracy(b.Ideal())
		return Fig9Row{Bug: b.Name, Relevance: rel, Ordering: ord, Overall: overall}, nil
	})
}

// Fig9Averages returns the mean relevance/ordering/overall accuracy.
func Fig9Averages(rows []Fig9Row) (rel, ord, overall float64) {
	var rs, os, as []float64
	for _, r := range rows {
		rs = append(rs, r.Relevance)
		os = append(os, r.Ordering)
		as = append(as, r.Overall)
	}
	return stats.Mean(rs), stats.Mean(os), stats.Mean(as)
}

// ------------------------------------------------------------- Fig 10

// Fig10Row is one bar group of Fig. 10: overall accuracy as tracking
// techniques are enabled cumulatively.
type Fig10Row struct {
	Bug        string
	StaticOnly float64
	PlusCF     float64
	PlusDF     float64
}

// Fig10 regenerates the technique-contribution figure.
func Fig10(suite []*bugs.Bug) ([]Fig10Row, error) {
	if suite == nil {
		suite = bugs.All()
	}
	confs := []core.Features{
		{Static: true},
		{Static: true, ControlFlow: true},
		{Static: true, ControlFlow: true, DataFlow: true},
	}
	return forEachBug(suite, func(b *bugs.Bug) (Fig10Row, error) {
		var acc [3]float64
		for i, f := range confs {
			res, err := Diagnose(b, f, 0)
			if err != nil {
				// Without data flow some bugs cannot converge to the
				// oracle; use whatever sketch the run ended with.
				if res == nil || res.Sketch == nil {
					return Fig10Row{}, fmt.Errorf("%s (features %+v): %w", b.Name, f, err)
				}
			}
			_, _, overall := res.Sketch.Accuracy(b.Ideal())
			acc[i] = overall
		}
		return Fig10Row{Bug: b.Name, StaticOnly: acc[0], PlusCF: acc[1], PlusDF: acc[2]}, nil
	})
}

// ------------------------------------------------------------- Fig 11

// Fig11Point is one x-position of Fig. 11: mean client overhead across
// the suite when tracking a slice window of the given size.
type Fig11Point struct {
	SliceSize      int
	AvgOverheadPct float64
	PerBug         map[string]float64
}

// Fig11 regenerates overhead-vs-tracked-slice-size for the given window
// sizes (in source statements).
func Fig11(suite []*bugs.Bug, sizes []int, runsPerPoint int) ([]Fig11Point, error) {
	if suite == nil {
		suite = bugs.All()
	}
	if len(sizes) == 0 {
		sizes = []int{2, 4, 8, 12, 16, 22, 28, 32}
	}
	if runsPerPoint == 0 {
		runsPerPoint = 12
	}
	var points []Fig11Point
	for _, size := range sizes {
		pt := Fig11Point{SliceSize: size, PerBug: make(map[string]float64)}
		ovs, err := forEachBug(suite, func(b *bugs.Bug) (float64, error) {
			ov, err := windowOverhead(b, size, runsPerPoint)
			if err != nil {
				return 0, fmt.Errorf("%s size %d: %w", b.Name, size, err)
			}
			return ov, nil
		})
		if err != nil {
			return points, err
		}
		for i, b := range suite {
			pt.PerBug[b.Name] = ovs[i]
		}
		pt.AvgOverheadPct = stats.Mean(ovs)
		points = append(points, pt)
	}
	return points, nil
}

// windowOverhead measures mean client overhead when tracking the first
// `size` statements of the bug's slice.
func windowOverhead(b *bugs.Bug, size, runs int) (float64, error) {
	gcfg := b.GistConfig()
	gcfg.Workers = Workers
	gcfg.Telemetry = Telemetry
	report, _, err := core.FirstFailure(gcfg)
	if err != nil {
		return 0, err
	}
	g := analysis.Graph(b.Program())
	sl := analysis.Slice(b.Program(), report.InstrID)
	plan := core.BuildPlan(g, sl.Window(size), core.AllFeatures())
	var ovs []float64
	pm := b.PreemptMean
	if pm == 0 {
		pm = 3
	}
	for seed := int64(0); seed < int64(runs); seed++ {
		spec := core.RunSpec{
			EndpointID:  int(seed),
			Seed:        10_000 + seed,
			Workload:    workloadFor(b, int(seed)),
			PreemptMean: pm,
			MaxSteps:    300_000,
		}
		rt := core.RunInstrumented(plan, spec)
		ovs = append(ovs, rt.Meter.OverheadPct())
	}
	return stats.Mean(ovs), nil
}

func workloadFor(b *bugs.Bug, k int) vm.Workload {
	if len(b.Workloads) == 0 {
		return vm.Workload{}
	}
	return b.Workloads[k%len(b.Workloads)]
}

// ------------------------------------------------------------- Fig 12

// Fig12Row is one x-position of Fig. 12: starting window size σ0 against
// resulting accuracy and diagnosis latency (failure recurrences).
type Fig12Row struct {
	Sigma0      int
	AvgAccuracy float64
	AvgLatency  float64
}

// Fig12 regenerates the σ tradeoff.
func Fig12(suite []*bugs.Bug, sigmas []int) ([]Fig12Row, error) {
	if suite == nil {
		suite = bugs.All()
	}
	if len(sigmas) == 0 {
		sigmas = []int{2, 4, 8, 16, 23, 32}
	}
	var rows []Fig12Row
	for _, s0 := range sigmas {
		type cell struct{ acc, lat float64 }
		cells, err := forEachBug(suite, func(b *bugs.Bug) (cell, error) {
			res, err := Diagnose(b, core.AllFeatures(), s0)
			if err != nil {
				return cell{}, fmt.Errorf("%s sigma0=%d: %w", b.Name, s0, err)
			}
			_, _, overall := res.Sketch.Accuracy(b.Ideal())
			return cell{acc: overall, lat: float64(res.FailureRecurrences)}, nil
		})
		if err != nil {
			return rows, err
		}
		var accs, lats []float64
		for _, c := range cells {
			accs = append(accs, c.acc)
			lats = append(lats, c.lat)
		}
		rows = append(rows, Fig12Row{Sigma0: s0, AvgAccuracy: stats.Mean(accs), AvgLatency: stats.Mean(lats)})
	}
	return rows, nil
}

// ------------------------------------------------------------- Fig 13

// Fig13Row is one bar pair of Fig. 13: full-program tracing overhead of
// software record/replay vs. hardware Intel PT.
type Fig13Row struct {
	Bug          string
	IntelPTPct   float64
	MozillaRRPct float64
	// Ratio is rr/PT (the paper reports up to "orders of magnitude").
	Ratio float64
}

// Fig13 regenerates the full-tracing comparison.
func Fig13(suite []*bugs.Bug, runsPerBug int) ([]Fig13Row, error) {
	if suite == nil {
		suite = bugs.All()
	}
	if runsPerBug == 0 {
		runsPerBug = 10
	}
	return forEachBug(suite, func(b *bugs.Bug) (Fig13Row, error) {
		ptPct := fullPTOverhead(b, runsPerBug, pt.Hardware)
		rrPct := rrOverhead(b, runsPerBug)
		row := Fig13Row{Bug: b.Name, IntelPTPct: ptPct, MozillaRRPct: rrPct}
		if ptPct > 0 {
			row.Ratio = rrPct / ptPct
		}
		return row, nil
	})
}

// SWPTRow is the §4 comparison: hardware PT vs. a software (PIN-style)
// control-flow tracer.
type SWPTRow struct {
	Bug              string
	HardwarePct      float64
	SoftwarePct      float64
	SlowdownVsHWOnce float64
}

// SoftwarePT regenerates the §4 hardware-vs-software tracing comparison.
func SoftwarePT(suite []*bugs.Bug, runsPerBug int) []SWPTRow {
	if suite == nil {
		suite = bugs.All()
	}
	if runsPerBug == 0 {
		runsPerBug = 8
	}
	rows, _ := forEachBug(suite, func(b *bugs.Bug) (SWPTRow, error) {
		hw := fullPTOverhead(b, runsPerBug, pt.Hardware)
		sw := fullPTOverhead(b, runsPerBug, pt.Software)
		row := SWPTRow{Bug: b.Name, HardwarePct: hw, SoftwarePct: sw}
		if hw > 0 {
			row.SlowdownVsHWOnce = sw / hw
		}
		return row, nil
	})
	return rows
}

// fullPTOverhead measures full-program control-flow tracing: every thread
// traced from its first instruction to its last.
func fullPTOverhead(b *bugs.Bug, runs int, mode pt.Mode) float64 {
	bp, _ := analysis.Bytecode(b.Program())
	pm := b.PreemptMean
	if pm == 0 {
		pm = 3
	}
	var ovs []float64
	for seed := int64(0); seed < int64(runs); seed++ {
		meter := &cost.Meter{}
		tr := pt.NewTracer(pt.Config{Mode: mode}, meter)
		hooks := vm.Hooks{
			OnStep: func(t *vm.Thread, in *ir.Instr, clock int64) {
				meter.AddInstr(1)
				if !tr.Enabled(t.ID) {
					tr.Enable(t.ID, in.ID)
				}
				tr.InstrRetired(t.ID)
			},
			OnBranch: func(t *vm.Thread, in *ir.Instr, taken bool, clock int64) {
				tr.Branch(t.ID, in.ID, taken)
			},
			OnIndirect: func(t *vm.Thread, in *ir.Instr, target *ir.Instr, clock int64) {
				if in.Op == ir.OpCall || in.Op == ir.OpRet {
					tr.TIP(t.ID, in.ID, target.ID)
				}
			},
		}
		bp.Run(vm.Config{
			Seed: 20_000 + seed, PreemptMean: pm, MaxSteps: 300_000,
			Workload: workloadFor(b, int(seed)), Hooks: hooks,
		})
		ovs = append(ovs, meter.OverheadPct())
	}
	return stats.Mean(ovs)
}

// rrOverhead measures full-program record/replay recording overhead.
func rrOverhead(b *bugs.Bug, runs int) float64 {
	prog := b.Program()
	pm := b.PreemptMean
	if pm == 0 {
		pm = 3
	}
	var ovs []float64
	for seed := int64(0); seed < int64(runs); seed++ {
		ovs = append(ovs, replay.OverheadPct(prog, vm.Config{
			Seed: 20_000 + seed, PreemptMean: pm, MaxSteps: 300_000,
			Workload: workloadFor(b, int(seed)),
		}))
	}
	return stats.Mean(ovs)
}

// ------------------------------------------------------------- §5.3

// BreakdownRow decomposes Gist's σ=2 overhead into its control-flow and
// data-flow components (§5.3's 2.01–3.43% and 0.87–1.04% ranges).
type BreakdownRow struct {
	Bug       string
	CFOnlyPct float64
	DFOnlyPct float64
	FullPct   float64
}

// Breakdown regenerates the §5.3 overhead decomposition.
func Breakdown(suite []*bugs.Bug, runsPerBug int) ([]BreakdownRow, error) {
	if suite == nil {
		suite = bugs.All()
	}
	if runsPerBug == 0 {
		runsPerBug = 12
	}
	return forEachBug(suite, func(b *bugs.Bug) (BreakdownRow, error) {
		row := BreakdownRow{Bug: b.Name}
		var err error
		for _, c := range []struct {
			feats core.Features
			dst   *float64
		}{
			{core.Features{Static: true, ControlFlow: true}, &row.CFOnlyPct},
			{core.Features{Static: true, DataFlow: true}, &row.DFOnlyPct},
			{core.AllFeatures(), &row.FullPct},
		} {
			*c.dst, err = featureOverhead(b, c.feats, runsPerBug)
			if err != nil {
				return row, fmt.Errorf("%s: %w", b.Name, err)
			}
		}
		return row, nil
	})
}

func featureOverhead(b *bugs.Bug, feats core.Features, runs int) (float64, error) {
	gcfg := b.GistConfig()
	gcfg.Workers = Workers
	gcfg.Telemetry = Telemetry
	report, _, err := core.FirstFailure(gcfg)
	if err != nil {
		return 0, err
	}
	g := analysis.Graph(b.Program())
	sl := analysis.Slice(b.Program(), report.InstrID)
	plan := core.BuildPlan(g, sl.Window(2), feats)
	pm := b.PreemptMean
	if pm == 0 {
		pm = 3
	}
	var ovs []float64
	for seed := int64(0); seed < int64(runs); seed++ {
		rt := core.RunInstrumented(plan, core.RunSpec{
			EndpointID: int(seed), Seed: 30_000 + seed,
			Workload: workloadFor(b, int(seed)), PreemptMean: pm, MaxSteps: 300_000,
		})
		ovs = append(ovs, rt.Meter.OverheadPct())
	}
	return stats.Mean(ovs), nil
}

// ------------------------------------------------------------- §6

// ExtPTRow compares the shipping design (watchpoint data flow) with the
// §6 hardware extension (extended PT carrying data): overhead, accuracy,
// and latency per bug.
type ExtPTRow struct {
	Bug         string
	WPOverhead  float64
	WPAccuracy  float64
	ExtOverhead float64
	ExtAccuracy float64
}

// ExtendedPT regenerates the §6 what-if comparison.
func ExtendedPT(suite []*bugs.Bug) ([]ExtPTRow, error) {
	if suite == nil {
		suite = bugs.All()
	}
	return forEachBug(suite, func(b *bugs.Bug) (ExtPTRow, error) {
		wp, err := Diagnose(b, core.AllFeatures(), 0)
		if err != nil {
			return ExtPTRow{}, fmt.Errorf("%s (watchpoints): %w", b.Name, err)
		}
		ext, err := Diagnose(b, core.Features{Static: true, ControlFlow: true, DataFlow: true, ExtendedPT: true}, 0)
		if err != nil {
			return ExtPTRow{}, fmt.Errorf("%s (extended PT): %w", b.Name, err)
		}
		_, _, wpAcc := wp.Sketch.Accuracy(b.Ideal())
		_, _, extAcc := ext.Sketch.Accuracy(b.Ideal())
		return ExtPTRow{
			Bug:        b.Name,
			WPOverhead: wp.AvgOverheadPct, WPAccuracy: wpAcc,
			ExtOverhead: ext.AvgOverheadPct, ExtAccuracy: extAcc,
		}, nil
	})
}

// ------------------------------------------------------------- sketches

// SketchFigures renders the three failure sketches the paper prints
// (Fig. 1 pbzip2, Fig. 7 curl, Fig. 8 apache-3).
func SketchFigures() (map[string]string, error) {
	out := make(map[string]string)
	for _, name := range []string{"pbzip2", "curl", "apache-3"} {
		b := bugs.ByName(name)
		res, err := Diagnose(b, core.AllFeatures(), 0)
		if err != nil {
			return out, fmt.Errorf("%s: %w", name, err)
		}
		out[name] = res.Sketch.Render()
	}
	return out, nil
}
