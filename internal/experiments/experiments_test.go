package experiments

import (
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/bugs"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/ir"
	"repro/internal/vm"
)

// fastSuite is a 3-bug subset (one concurrency UAF, one sequential, one
// atomicity violation) that keeps the unit tests quick; the full 12-bug
// sweep is gist-bench's.
func fastSuite() []*bugs.Bug { return Suite("pbzip2", "curl", "apache-1") }

func TestSuiteSelection(t *testing.T) {
	if got := len(Suite()); got != 12 {
		t.Fatalf("full suite: %d", got)
	}
	if got := len(Suite("pbzip2", "nope", "curl")); got != 2 {
		t.Fatalf("subset: %d", got)
	}
}

func TestTable1Subset(t *testing.T) {
	rows, err := Table1(fastSuite())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows: %d", len(rows))
	}
	for _, r := range rows {
		if r.SliceLOC <= 0 || r.SliceInstrs < r.SliceLOC {
			t.Errorf("%s: slice sizes LOC=%d instrs=%d", r.Bug, r.SliceLOC, r.SliceInstrs)
		}
		if r.SketchLOC <= 0 || r.SketchInstr <= 0 {
			t.Errorf("%s: sketch sizes LOC=%d instrs=%d", r.Bug, r.SketchLOC, r.SketchInstr)
		}
		if r.Recurrences < 1 || r.Recurrences > 8 {
			t.Errorf("%s: recurrences %d out of the paper's 2-5 ballpark", r.Bug, r.Recurrences)
		}
		if r.AvgOverheadPct <= 0 || r.AvgOverheadPct > 25 {
			t.Errorf("%s: overhead %.2f%% out of ballpark", r.Bug, r.AvgOverheadPct)
		}
		if r.DiscoveryRuns < 1 {
			t.Errorf("%s: no discovery runs", r.Bug)
		}
	}
	out := RenderTable1(rows)
	for _, frag := range []string{"pbzip2", "curl", "apache-1", "Static slice"} {
		if !strings.Contains(out, frag) {
			t.Errorf("render missing %q", frag)
		}
	}
}

func TestFig9Subset(t *testing.T) {
	rows, err := Fig9(fastSuite())
	if err != nil {
		t.Fatal(err)
	}
	rel, ord, overall := fig9Averages(rows)
	if rel < 50 || ord < 75 || overall < 60 {
		t.Errorf("accuracy averages too low: rel=%.1f ord=%.1f overall=%.1f", rel, ord, overall)
	}
	for _, r := range rows {
		if r.Ordering < 50 {
			t.Errorf("%s: ordering accuracy %.1f", r.Bug, r.Ordering)
		}
	}
	if out := RenderFig9(rows); !strings.Contains(out, "average") {
		t.Error("render missing average row")
	}
}

func TestFig10ShowsTechniqueContribution(t *testing.T) {
	rows, err := Fig10(Suite("pbzip2"))
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	// The full system must beat static-only for this bug (the null store
	// is invisible without data flow).
	if r.PlusDF < r.StaticOnly {
		t.Errorf("full system (%.1f) worse than static-only (%.1f)", r.PlusDF, r.StaticOnly)
	}
	if r.PlusDF < 60 {
		t.Errorf("full-system accuracy %.1f too low", r.PlusDF)
	}
	if out := RenderFig10(rows); !strings.Contains(out, "+data-flow") {
		t.Error("render header missing")
	}
}

func TestFig11OverheadGrowsWithSliceSize(t *testing.T) {
	points, err := Fig11(Suite("pbzip2", "apache-1"), []int{2, 8, 32}, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("points: %d", len(points))
	}
	if points[0].AvgOverheadPct <= 0 {
		t.Error("sigma=2 overhead should be positive")
	}
	if points[len(points)-1].AvgOverheadPct < points[0].AvgOverheadPct {
		t.Errorf("overhead should not shrink with slice size: %v", points)
	}
	if points[0].AvgOverheadPct > 15 {
		t.Errorf("sigma=2 overhead %.2f%% out of the paper's ballpark", points[0].AvgOverheadPct)
	}
	if out := RenderFig11(points); !strings.Contains(out, "slice size") {
		t.Error("render header missing")
	}
}

func TestFig12LatencyDropsWithLargerSigma(t *testing.T) {
	rows, err := Fig12(Suite("pbzip2"), []int{2, 16})
	if err != nil {
		t.Fatal(err)
	}
	small, large := rows[0], rows[1]
	if large.AvgLatency > small.AvgLatency {
		t.Errorf("larger sigma0 should not need more recurrences: sigma=2 %.1f vs sigma=16 %.1f",
			small.AvgLatency, large.AvgLatency)
	}
	if out := RenderFig12(rows); !strings.Contains(out, "sigma0") {
		t.Error("render header missing")
	}
}

func TestFig13ShapeHolds(t *testing.T) {
	rows, err := Fig13(fastSuite(), 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.IntelPTPct <= 0 || r.IntelPTPct > 40 {
			t.Errorf("%s: full PT tracing %.2f%% out of ballpark", r.Bug, r.IntelPTPct)
		}
		b := bugs.ByName(r.Bug)
		if b.Concurrency {
			// Threaded programs: rr loses the parallelism — orders of
			// magnitude worse than PT (the paper's Transmission/SQLite
			// bars go to infinity on this ratio).
			if r.MozillaRRPct < 10*r.IntelPTPct {
				t.Errorf("%s: record/replay (%.1f%%) should dwarf PT (%.2f%%)", r.Bug, r.MozillaRRPct, r.IntelPTPct)
			}
			if r.MozillaRRPct < 100 {
				t.Errorf("%s: record/replay %.1f%% suspiciously cheap for a parallel program", r.Bug, r.MozillaRRPct)
			}
		}
		// Single-threaded programs: rr is comparable to PT (the paper's
		// Cppcheck bar), so no lower bound there.
	}
	if out := RenderFig13(rows); !strings.Contains(out, "record/replay") {
		t.Error("render header missing")
	}
}

// TestRRRecordMeter pins the Fig. 13 rr cost model charge for charge:
// each logged event costs RREventMC, each instruction retired while
// another thread is runnable costs RRSerializeMC, and nothing else is
// charged beyond the base instruction cost.
func TestRRRecordMeter(t *testing.T) {
	// steps and events are what rrRecord must charge for: a plain run of
	// prog under cfg counting the steps and the loggable hook events.
	count := func(prog *ir.Program, cfg vm.Config) (steps, events int64) {
		event := func() { events++ }
		cfg.Hooks = vm.Hooks{
			OnAccess:   func(*vm.Thread, *ir.Instr, int64, int64, int64, bool, int64) { event() },
			OnSchedule: func(int, int, int64) { event() },
			OnSpawn:    func(int, int, *ir.Func, int64) { event() },
		}
		bp, _ := analysis.Bytecode(prog)
		out, _ := bp.Run(cfg)
		return out.Steps, events
	}

	// One thread, one shared store and one shared load: the loop's stack
	// traffic is not logged and nothing is serialized.
	single := ir.MustCompile("single.mc", `
global int g;
int main() {
	int local = 0;
	for (int i = 0; i < 50; i++) { local = local + i; }
	g = local;
	return g;
}`)
	cfg := vm.Config{Seed: 1}
	steps, events := count(single, cfg)
	if events != 2 {
		t.Fatalf("single-thread program logged %d events, want 2", events)
	}
	base, extra := rrRecord(single, cfg).MC()
	if base != steps*cost.InstrMC || extra != 2*cost.RREventMC {
		t.Errorf("single thread: base %d extra %d mc, want %d and exactly 2 events (%d)",
			base, extra, steps*cost.InstrMC, 2*cost.RREventMC)
	}

	// Two racing workers: serialization is charged on top of the events,
	// in whole instructions.
	racy := ir.MustCompile("racy.mc", `
global int m = 0;
global int counter = 0;
void worker(int n) {
	for (int i = 0; i < n; i++) {
		lock(&m);
		counter = counter + 1;
		unlock(&m);
	}
}
int main() {
	int t1 = spawn(worker, 10);
	int t2 = spawn(worker, 10);
	join(t1);
	join(t2);
	return counter;
}`)
	for seed := int64(0); seed < 10; seed++ {
		cfg := vm.Config{Seed: seed, PreemptMean: 2}
		steps, events := count(racy, cfg)
		m := rrRecord(racy, cfg)
		base, extra := m.MC()
		serialized := extra - events*cost.RREventMC
		if base != steps*cost.InstrMC || serialized <= 0 || serialized%cost.RRSerializeMC != 0 {
			t.Errorf("seed %d: base %d extra %d mc over %d steps and %d events: serialization %d mc, want > 0 in units of %d",
				seed, base, extra, steps, events, serialized, cost.RRSerializeMC)
		}
		if again := rrRecord(racy, cfg); *again != *m {
			t.Errorf("seed %d: same seed, different meters: %+v vs %+v", seed, *m, *again)
		}
	}
}

func TestSoftwarePTIsMuchSlower(t *testing.T) {
	rows := SoftwarePT(Suite("pbzip2"), 3)
	r := rows[0]
	if r.SoftwarePct < 20*r.HardwarePct {
		t.Errorf("software tracing (%.1f%%) should be far slower than hardware (%.2f%%)", r.SoftwarePct, r.HardwarePct)
	}
	if out := RenderSWPT(rows); !strings.Contains(out, "hardware") {
		t.Error("render header missing")
	}
}

func TestBreakdownShape(t *testing.T) {
	rows, err := Breakdown(Suite("pbzip2", "apache-1"), 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.FullPct <= 0 {
			t.Errorf("%s: zero full overhead", r.Bug)
		}
		// Full tracking costs at least as much as each component alone
		// (small tolerance: schedules differ slightly between configs).
		if r.FullPct+1 < r.CFOnlyPct || r.FullPct+1 < r.DFOnlyPct {
			t.Errorf("%s: full (%.2f) below components (cf=%.2f df=%.2f)", r.Bug, r.FullPct, r.CFOnlyPct, r.DFOnlyPct)
		}
	}
	if out := RenderBreakdown(rows); !strings.Contains(out, "ctrl-flow") {
		t.Error("render header missing")
	}
}

func TestSketchFigures(t *testing.T) {
	figs, err := SketchFigures()
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 3 {
		t.Fatalf("figures: %d", len(figs))
	}
	for name, text := range figs {
		if !strings.Contains(text, "Failure Sketch for") {
			t.Errorf("%s: malformed sketch:\n%s", name, text)
		}
	}
	// Fig. 8's defining content: the double free and the refcount.
	if !strings.Contains(figs["apache-3"], "free(obj->data);") {
		t.Errorf("apache-3 sketch missing the double free:\n%s", figs["apache-3"])
	}
	// Fig. 1's defining content: the unlock of the freed mutex.
	if !strings.Contains(figs["pbzip2"], "unlock(f->mut);") {
		t.Errorf("pbzip2 sketch missing the unlock:\n%s", figs["pbzip2"])
	}
	// Fig. 7's defining content: strlen of the nulled pointer.
	if !strings.Contains(figs["curl"], "strlen(current)") {
		t.Errorf("curl sketch missing strlen:\n%s", figs["curl"])
	}
}

func TestDeveloperOracleStopsEarly(t *testing.T) {
	// With the oracle, the pbzip2 diagnosis should stop before exhausting
	// every AsT iteration, and the final sketch must satisfy the oracle.
	b := bugs.ByName("pbzip2")
	res, err := Diagnose(b, core.AllFeatures(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bugs.DeveloperOracle(b)(res.Sketch) {
		t.Error("final sketch does not satisfy the developer oracle")
	}
	noOracle := b.GistConfig()
	full, err := core.Run(noOracle)
	if err != nil {
		t.Fatal(err)
	}
	if res.FailureRecurrences > full.FailureRecurrences {
		t.Errorf("oracle run used more recurrences (%d) than the full run (%d)",
			res.FailureRecurrences, full.FailureRecurrences)
	}
}
