package core

import (
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/vm"
)

// pbzipProg mirrors the structure of Pbzip2 bug #1 (Fig. 1): the main
// thread frees and nulls the queue's mutex while the consumer thread may
// still unlock it.
// The compress workers model pbzip2's real work: most cycles go to
// compression, the bug sits in teardown — which is also what keeps
// tracking overhead realistic.
const pbzipProg = `struct queue { int* mut; int size; };
global struct queue* fifo;
int compress(int n) {
	int acc = 0;
	for (int i = 0; i < n; i++) {
		acc = acc + (i * 7 + 3) % 11;
	}
	return acc;
}
void worker(int n) {
	int r = compress(n);
}
void cons(int arg) {
	struct queue* f = fifo;
	unlock(f->mut);
}
int main() {
	int w1 = spawn(worker, 1500);
	int w2 = spawn(worker, 1500);
	join(w1);
	join(w2);
	fifo = malloc(sizeof(queue));
	fifo->mut = malloc(8);
	fifo->size = 7;
	int t = spawn(cons, 0);
	free(fifo->mut);
	fifo->mut = null;
	join(t);
	return 0;
}`

// curlProg mirrors Curl bug #965 (Fig. 7): unbalanced braces in the URL
// leave current null, and strlen(null) crashes.
const curlProg = `global string current;
int next_url(string urls) {
	int depth = 0;
	int i = 0;
	int c = urls[0];
	while (c != 0) {
		if (c == 123) { depth = depth + 1; }
		if (c == 125) { depth = depth - 1; }
		i = i + 1;
		c = urls[i];
	}
	if (depth > 0) {
		current = null;
	}
	return strlen(current);
}
int main() {
	string url = input_str(0);
	current = url;
	int n = next_url(url);
	return n;
}`

func pbzipConfig(t *testing.T) Config {
	t.Helper()
	return Config{
		Prog:        ir.MustCompile("pbzip2.mc", pbzipProg),
		Title:       "pbzip2 bug #1",
		Endpoints:   30,
		PreemptMean: 3,
		SeedBase:    1,
	}
}

func TestGistEndToEndPbzip(t *testing.T) {
	res, err := Run(pbzipConfig(t))
	if err != nil {
		t.Fatalf("gist run: %v", err)
	}
	sk := res.Sketch
	if sk == nil {
		t.Fatal("no sketch")
	}
	if res.FailureRecurrences < 1 {
		t.Error("no failure recurrences recorded")
	}
	if len(sk.Threads) < 2 {
		t.Errorf("sketch should show both threads, got %v", sk.Threads)
	}
	// The failing statement (unlock in cons, line 5) must be the last step.
	last := sk.Steps[len(sk.Steps)-1]
	if !last.IsFailure {
		t.Errorf("last step is not the failure: %+v", last)
	}
	// The sketch must include the consumer's statements.
	lines := map[int]bool{}
	for _, s := range sk.Steps {
		lines[s.Line] = true
	}
	for _, want := range []int{14, 15} { // f = fifo; unlock(f->mut)
		if !lines[want] {
			t.Errorf("sketch missing consumer line %d; lines: %v", want, lines)
		}
	}
	// Refinement must have discovered the pointer stores (fifo->mut = ...)
	// that the alias-free slice missed.
	if len(sk.AddedByRefinement) == 0 {
		t.Error("data-flow refinement added nothing; expected the fifo->mut stores")
	}
	var addedLines []int
	for _, id := range sk.AddedByRefinement {
		addedLines = append(addedLines, sk.Prog.Instrs[id].Pos.Line)
	}
	foundNullStore := false
	for _, ln := range addedLines {
		if ln == 27 { // fifo->mut = null;
			foundNullStore = true
		}
	}
	if !foundNullStore {
		t.Errorf("refinement did not find the null store (line 27); added lines: %v", addedLines)
	}
	// The best order predictor should be a cross-thread pattern on f->mut
	// involving main's store and cons's read.
	var bestOrder *Ranked
	for i := range sk.Predictors {
		if sk.Predictors[i].Kind == PredOrder {
			bestOrder = &sk.Predictors[i]
			break
		}
	}
	if bestOrder == nil {
		t.Fatal("no order predictor")
	}
	if bestOrder.P < 0.5 {
		t.Errorf("best order predictor precision too low: %+v", bestOrder)
	}
	// A value predictor should say the mutex pointer was 0/dead.
	var bestVal *Ranked
	for i := range sk.Predictors {
		if sk.Predictors[i].Kind == PredValue {
			bestVal = &sk.Predictors[i]
			break
		}
	}
	if bestVal == nil {
		t.Fatal("no value predictor")
	}
	// Rendering smoke test.
	out := sk.Render()
	for _, frag := range []string{"Failure Sketch for pbzip2 bug #1", "Thread T0", "Thread T3", "FAILURE", "predictors"} {
		if !strings.Contains(out, frag) {
			t.Errorf("render missing %q:\n%s", frag, out)
		}
	}
}

func TestGistOverheadIsLow(t *testing.T) {
	res, err := Run(pbzipConfig(t))
	if err != nil {
		t.Fatalf("gist run: %v", err)
	}
	if res.AvgOverheadPct <= 0 {
		t.Fatalf("overhead should be positive, got %f", res.AvgOverheadPct)
	}
	if res.AvgOverheadPct > 20 {
		t.Errorf("slice tracking overhead out of the paper's ballpark: %.2f%%", res.AvgOverheadPct)
	}
}

func TestGistDeterminism(t *testing.T) {
	a, err := Run(pbzipConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(pbzipConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if a.FailureRecurrences != b.FailureRecurrences || a.TotalRuns != b.TotalRuns {
		t.Fatalf("nondeterministic run counts: %d/%d vs %d/%d",
			a.FailureRecurrences, a.TotalRuns, b.FailureRecurrences, b.TotalRuns)
	}
	if len(a.Sketch.Steps) != len(b.Sketch.Steps) {
		t.Fatalf("nondeterministic sketches: %d vs %d steps", len(a.Sketch.Steps), len(b.Sketch.Steps))
	}
	for i := range a.Sketch.Steps {
		sa, sb := a.Sketch.Steps[i], b.Sketch.Steps[i]
		if sa.Line != sb.Line || sa.Thread != sb.Thread {
			t.Fatalf("step %d differs: %+v vs %+v", i, sa, sb)
		}
	}
	if a.Sketch.Render() != b.Sketch.Render() {
		t.Error("renders differ")
	}
}

func TestGistSequentialBug(t *testing.T) {
	cfg := Config{
		Prog:      ir.MustCompile("curl.mc", curlProg),
		Title:     "curl bug #965",
		Endpoints: 20,
		SeedBase:  1,
		WorkloadPool: []vm.Workload{
			{Strs: []string{"{a}{b}"}},
			{Strs: []string{"{}{"}}, // unbalanced: fails
			{Strs: []string{"{x}"}},
			{Strs: []string{"plain"}},
		},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("gist run: %v", err)
	}
	sk := res.Sketch
	if sk.Report.Kind != vm.FaultNullDeref {
		t.Fatalf("expected null deref, got %v", sk.Report.Kind)
	}
	// The best value predictor must pin current == 0.
	var val *Ranked
	for i := range sk.Predictors {
		if sk.Predictors[i].Kind == PredValue {
			val = &sk.Predictors[i]
			break
		}
	}
	if val == nil {
		t.Fatal("no value predictor for the sequential bug")
	}
	if val.Value != 0 || val.P < 0.99 {
		t.Errorf("best value predictor should be current==0 with high precision: %+v", val)
	}
	// A branch predictor should implicate the depth>0 path.
	var br *Ranked
	for i := range sk.Predictors {
		if sk.Predictors[i].Kind == PredBranch {
			br = &sk.Predictors[i]
			break
		}
	}
	if br == nil {
		t.Fatal("no branch predictor for the sequential bug")
	}
	if br.P < 0.6 {
		t.Errorf("branch predictor precision too low: %+v", br)
	}
}

func TestGistStopWhenOracle(t *testing.T) {
	stops := 0
	cfg := pbzipConfig(t)
	cfg.StopWhen = func(sk *Sketch) bool {
		stops++
		return true // stop at the first sketch
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stops != 1 || len(res.Iters) != 1 {
		t.Errorf("oracle should stop after first iteration: stops=%d iters=%d", stops, len(res.Iters))
	}
}

func TestGistAblationAccuracyOrdering(t *testing.T) {
	ideal := IdealSketch{
		Lines: []int{14, 15, 22, 23, 27},
		Order: [][2]int{{27, 15}, {14, 15}, {23, 27}},
	}
	run := func(f Features) float64 {
		cfg := pbzipConfig(t)
		cfg.Features = f
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("features %+v: %v", f, err)
		}
		_, _, overall := res.Sketch.Accuracy(ideal)
		return overall
	}
	full := run(AllFeatures())
	static := run(Features{Static: true})
	if full < static-5 { // full system should not be (meaningfully) worse
		t.Errorf("full system accuracy %.1f%% below static-only %.1f%%", full, static)
	}
	if full < 50 {
		t.Errorf("full system accuracy suspiciously low: %.1f%%", full)
	}
}

func TestRankPredictorsFavorsPrecision(t *testing.T) {
	// A synthetic check of the beta=0.5 ranking: a predictor with
	// precision 1.0 and recall 0.5 must outrank one with precision 0.5
	// and recall 1.0.
	prog := ir.MustCompile("t.mc", "int main() { return 0; }")
	mk := func(key string) Predictor { return Predictor{Kind: PredValue, Key: key} }
	_ = prog
	_ = mk
	// Direct formula check via stats is in internal/stats tests; here we
	// verify bestPerKind skips kinds with no failing support.
	ranked := []Ranked{
		{Predictor: Predictor{Kind: PredBranch, Key: "b"}, Fail: 0, Succ: 3, F: 0},
		{Predictor: Predictor{Kind: PredValue, Key: "v"}, Fail: 2, Succ: 0, F: 0.9},
	}
	best := bestPerKind(ranked)
	for _, r := range best {
		if r.Fail == 0 {
			t.Errorf("BestPerKind returned unsupported predictor %+v", r)
		}
	}
}
