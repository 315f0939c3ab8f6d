package core

import (
	"strings"
	"testing"

	"repro/internal/cfg"
	"repro/internal/ir"
)

// buildFixture runs the pbzip2-like program until it fails under full
// tracking and returns the pieces a sketch needs.
func buildFixture(t *testing.T) (*Plan, *RunTrace, []Ranked) {
	t.Helper()
	prog := ir.MustCompile("pbzip2.mc", pbzipProg)
	g := cfg.BuildTICFG(prog)
	// Track every shared-memory touching line plus the failing region.
	var tracked []int
	for _, in := range prog.Instrs {
		if in.Blk.Fn.Name == "cons" || in.Blk.Fn.Name == "main" {
			tracked = append(tracked, in.ID)
		}
	}
	plan := BuildPlan(g, tracked, AllFeatures())
	var failing, successful []*RunTrace
	for seed := int64(0); seed < 200 && (len(failing) == 0 || len(successful) == 0); seed++ {
		rt := RunInstrumented(plan, RunSpec{Seed: seed, PreemptMean: 3, MaxSteps: 300_000})
		if rt.Failed() {
			if len(failing) == 0 {
				failing = append(failing, rt)
			}
		} else if len(successful) < 6 {
			successful = append(successful, rt)
		}
	}
	if len(failing) == 0 || len(successful) == 0 {
		t.Fatal("fixture needs both outcomes")
	}
	ranked := RankPredictors(prog, failing, successful, 0.5)
	return plan, failing[0], ranked
}

func TestSketchStepInvariants(t *testing.T) {
	plan, failing, ranked := buildFixture(t)
	sk := BuildSketch("fixture", plan, failing, ranked, nil)

	if len(sk.Steps) == 0 {
		t.Fatal("empty sketch")
	}
	// Steps are numbered 1..n in order.
	for i, s := range sk.Steps {
		if s.Step != i+1 {
			t.Errorf("step %d numbered %d", i, s.Step)
		}
	}
	// Exactly one failure row, and it is last.
	failures := 0
	for _, s := range sk.Steps {
		if s.IsFailure {
			failures++
		}
	}
	if failures != 1 || !sk.Steps[len(sk.Steps)-1].IsFailure {
		t.Errorf("failure rows: %d, last=%v", failures, sk.Steps[len(sk.Steps)-1].IsFailure)
	}
	// Every step's thread is declared, and per-thread flow order is
	// preserved (steps of one thread appear in increasing step order by
	// construction; verify lines are coherent with the program).
	declared := make(map[int]bool)
	for _, tid := range sk.Threads {
		declared[tid] = true
	}
	for _, s := range sk.Steps {
		if !declared[s.Thread] {
			t.Errorf("step %d uses undeclared thread %d", s.Step, s.Thread)
		}
		if s.Line <= 0 || s.Text == "" {
			t.Errorf("step %d has no source: %+v", s.Step, s)
		}
	}
}

func TestSketchCrossThreadOrderFromTraps(t *testing.T) {
	plan, failing, ranked := buildFixture(t)
	sk := BuildSketch("fixture", plan, failing, ranked, nil)

	// In a failing run the null store (main) must be ordered before the
	// consumer's unlock — the WR race the watchpoints witnessed.
	storeStep, unlockStep := 0, 0
	for _, s := range sk.Steps {
		if strings.Contains(s.Text, "fifo->mut = null") {
			storeStep = s.Step
		}
		if s.IsFailure {
			unlockStep = s.Step
		}
	}
	if storeStep == 0 {
		t.Skip("this failing schedule did not include the null store in the traced window")
	}
	if storeStep >= unlockStep {
		t.Errorf("null store (step %d) must precede the failing unlock (step %d)", storeStep, unlockStep)
	}
}

func TestSketchValueAnnotations(t *testing.T) {
	plan, failing, ranked := buildFixture(t)
	sk := BuildSketch("fixture", plan, failing, ranked, nil)
	if len(failing.Traps) == 0 {
		t.Fatal("fixture has no traps")
	}
	annotated := 0
	for _, s := range sk.Steps {
		if s.HasValue {
			annotated++
		}
	}
	if annotated == 0 {
		t.Error("no value annotations despite watchpoint traps")
	}
	// The failing unlock must be annotated with the dead value 0.
	last := sk.Steps[len(sk.Steps)-1]
	if !last.HasValue || last.Value != 0 {
		t.Errorf("failing step should carry the value 0: %+v", last)
	}
}

func TestSketchRenderLayout(t *testing.T) {
	plan, failing, ranked := buildFixture(t)
	sk := BuildSketch("fixture title", plan, failing, ranked, nil)
	out := sk.Render()
	lines := strings.Split(out, "\n")
	if !strings.HasPrefix(lines[0], "Failure Sketch for fixture title") {
		t.Errorf("title line: %q", lines[0])
	}
	// Thread columns: a step of thread k is indented to column k.
	if len(sk.Threads) >= 2 {
		var col1Seen bool
		for _, l := range lines {
			// A second-column row: step number, then an empty first
			// column (50 spaces), then text.
			if len(l) > 55 && strings.TrimSpace(l[5:55]) == "" && strings.TrimSpace(l[55:]) != "" {
				col1Seen = true
			}
		}
		if !col1Seen {
			t.Error("no second-column rows in a two-thread sketch")
		}
	}
	if !strings.Contains(out, "<-- FAILURE") {
		t.Error("missing failure marker")
	}
}

func TestAccuracyBoundsAndMonotonicity(t *testing.T) {
	plan, failing, ranked := buildFixture(t)
	sk := BuildSketch("fixture", plan, failing, ranked, nil)

	// Perfect ideal = the sketch's own lines with no order constraints.
	var own IdealSketch
	seen := map[int]bool{}
	for _, s := range sk.Steps {
		if !seen[s.Line] {
			seen[s.Line] = true
			own.Lines = append(own.Lines, s.Line)
		}
	}
	rel, ord, overall := sk.Accuracy(own)
	if rel != 100 || ord != 100 || overall != 100 {
		t.Errorf("self-accuracy should be perfect: %f %f %f", rel, ord, overall)
	}

	// A disjoint ideal scores zero relevance.
	rel2, _, _ := sk.Accuracy(IdealSketch{Lines: []int{9999}})
	if rel2 != 0 {
		t.Errorf("disjoint ideal relevance: %f", rel2)
	}

	// Reversed order pairs score zero ordering.
	first, last := sk.Steps[0].Line, sk.Steps[len(sk.Steps)-1].Line
	if first != last {
		_, ord3, _ := sk.Accuracy(IdealSketch{Lines: own.Lines, Order: [][2]int{{last, first}}})
		if ord3 != 0 {
			t.Errorf("reversed pair ordering accuracy: %f", ord3)
		}
	}
}

func TestStaticOnlySketchSingleColumn(t *testing.T) {
	prog := ir.MustCompile("pbzip2.mc", pbzipProg)
	g := cfg.BuildTICFG(prog)
	var tracked []int
	for _, in := range prog.Instrs {
		if in.Blk.Fn.Name == "cons" {
			tracked = append(tracked, in.ID)
		}
	}
	plan := BuildPlan(g, tracked, Features{Static: true})
	var failing *RunTrace
	for seed := int64(0); seed < 200; seed++ {
		rt := RunInstrumented(plan, RunSpec{Seed: seed, PreemptMean: 3, MaxSteps: 300_000})
		if rt.Failed() {
			failing = rt
			break
		}
	}
	if failing == nil {
		t.Fatal("no failing run")
	}
	sk := BuildSketch("static", plan, failing, nil, nil)
	if len(sk.Threads) != 1 {
		t.Errorf("static-only sketch should have one column, got %v", sk.Threads)
	}
	if len(sk.Steps) == 0 || !sk.Steps[len(sk.Steps)-1].IsFailure {
		t.Error("static-only sketch malformed")
	}
}
