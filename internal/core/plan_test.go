package core

import (
	"testing"

	"repro/internal/cfg"
	"repro/internal/hw/watch"
	"repro/internal/ir"
)

const planProg = `global int g = 0;
global int h = 0;
int main() {
	int x = input(0);
	g = x;
	if (x > 2) {
		h = g + 1;
	}
	g = h;
	return g;
}`

// trackedOnLines returns the instr IDs on the given source lines.
func trackedOnLines(p *ir.Program, lines ...int) []int {
	want := make(map[int]bool)
	for _, ln := range lines {
		want[ln] = true
	}
	var ids []int
	for _, in := range p.Instrs {
		if want[in.Pos.Line] {
			ids = append(ids, in.ID)
		}
	}
	return ids
}

func TestPlanStartStopPlacement(t *testing.T) {
	p := ir.MustCompile("t.mc", planProg)
	g := cfg.BuildTICFG(p)
	tracked := trackedOnLines(p, 5, 7, 9) // g = x; h = g + 1; g = h
	plan := BuildPlan(g, tracked, AllFeatures())

	if len(plan.StartAt) == 0 {
		t.Fatal("no start points")
	}
	if len(plan.StopAfter) == 0 {
		t.Fatal("no stop points")
	}
	// The earliest tracked statement sits in the entry block, so its
	// start anchor must be a tracked entry-block instruction (the
	// statement itself, not the whole function).
	main := p.FuncByName["main"]
	foundEntryAnchor := false
	for id := range plan.StartAt {
		in := p.Instrs[id]
		if in.Blk == main.Entry() && plan.IsTracked(id) {
			foundEntryAnchor = true
		}
	}
	if !foundEntryAnchor {
		t.Errorf("expected a start anchored at a tracked entry-block statement; starts: %v", plan.StartAt)
	}
}

func TestPlanStopUsesSdomOptimization(t *testing.T) {
	// Straight-line tracked statements: earlier ones strictly dominate
	// later ones, so only the last should stop tracing.
	src := `global int a; global int b; global int c;
int main() {
	a = 1;
	b = 2;
	c = 3;
	return c;
}`
	p := ir.MustCompile("t.mc", src)
	g := cfg.BuildTICFG(p)
	tracked := trackedOnLines(p, 3, 4, 5)
	plan := BuildPlan(g, tracked, AllFeatures())
	// Exactly one stop: after the last tracked instruction.
	if len(plan.StopAfter) != 1 {
		t.Fatalf("straight-line window should have exactly 1 stop, got %v", plan.StopAfter)
	}
	var maxTracked int
	for _, id := range tracked {
		if id > maxTracked {
			maxTracked = id
		}
	}
	if !plan.StopAfter[maxTracked] {
		t.Errorf("stop should be after the last tracked instruction %%%d, got %v", maxTracked, plan.StopAfter)
	}
	// And exactly one start: the first tracked statement (sdom covers the
	// rest).
	if len(plan.StartAt) != 1 {
		t.Errorf("straight-line window should have exactly 1 start, got %v", plan.StartAt)
	}
	var minTracked = 1 << 30
	for _, id := range tracked {
		if id < minTracked {
			minTracked = id
		}
	}
	if !plan.StartAt[minTracked] {
		t.Errorf("start should anchor at the first tracked instruction %%%d, got %v", minTracked, plan.StartAt)
	}
}

func TestPlanWatchesOnlySharedAccesses(t *testing.T) {
	src := `global int g;
int main() {
	int local = 1;
	local = local + 1;
	g = local;
	return g;
}`
	p := ir.MustCompile("t.mc", src)
	g := cfg.BuildTICFG(p)
	tracked := trackedOnLines(p, 3, 4, 5, 6)
	plan := BuildPlan(g, tracked, AllFeatures())
	for id := range plan.WatchAccesses {
		in := p.Instrs[id]
		if !in.IsMemAccess() {
			t.Errorf("watch target %%%d is not a memory access", id)
		}
		if in.Pos.Line == 3 || in.Pos.Line == 4 {
			t.Errorf("stack-only line %d must not be watched", in.Pos.Line)
		}
	}
	found := false
	for id := range plan.WatchAccesses {
		if p.Instrs[id].Pos.Line == 5 || p.Instrs[id].Pos.Line == 6 {
			found = true
		}
	}
	if !found {
		t.Error("global accesses on lines 5/6 should be watched")
	}
}

func TestPlanCooperativePartitioning(t *testing.T) {
	// More shared accesses than debug registers: the plan must split them
	// into groups of at most NumRegisters.
	src := `global int a; global int b; global int c; global int d; global int e; global int f;
int main() {
	a = 1; b = 2; c = 3; d = 4; e = 5; f = 6;
	return a + b + c + d + e + f;
}`
	p := ir.MustCompile("t.mc", src)
	g := cfg.BuildTICFG(p)
	tracked := trackedOnLines(p, 3, 4)
	plan := BuildPlan(g, tracked, AllFeatures())
	if len(plan.WatchAccesses) <= watch.NumRegisters {
		t.Fatalf("test needs >%d accesses, got %d", watch.NumRegisters, len(plan.WatchAccesses))
	}
	if len(plan.WatchGroups) < 2 {
		t.Fatalf("expected cooperative partitioning, got %d group(s)", len(plan.WatchGroups))
	}
	seen := make(map[int]bool)
	for _, grp := range plan.WatchGroups {
		classes := map[string]bool{}
		for _, id := range grp {
			classes[plan.Classes[id]] = true
		}
		if len(classes) > watch.NumRegisters {
			t.Errorf("group has %d location classes, over the register budget: %v", len(classes), grp)
		}
		for _, id := range grp {
			if seen[id] {
				t.Errorf("instruction %%%d in two groups", id)
			}
			seen[id] = true
		}
	}
	if len(seen) != len(plan.WatchAccesses) {
		t.Errorf("groups cover %d of %d accesses", len(seen), len(plan.WatchAccesses))
	}
	// Different endpoints get different groups.
	g0 := plan.WatchGroupFor(0)
	g1 := plan.WatchGroupFor(1)
	same := len(g0) == len(g1)
	if same {
		for id := range g0 {
			if !g1[id] {
				same = false
			}
		}
	}
	if same {
		t.Error("endpoints 0 and 1 should watch different groups")
	}
}

func TestFeatureGates(t *testing.T) {
	p := ir.MustCompile("t.mc", planProg)
	g := cfg.BuildTICFG(p)
	tracked := trackedOnLines(p, 5, 7, 9)

	staticOnly := BuildPlan(g, tracked, Features{Static: true})
	if len(staticOnly.StartAt) != 0 || len(staticOnly.WatchAccesses) != 0 {
		t.Error("static-only plan must not instrument")
	}
	cfOnly := BuildPlan(g, tracked, Features{Static: true, ControlFlow: true})
	if len(cfOnly.StartAt) == 0 || len(cfOnly.WatchAccesses) != 0 {
		t.Error("control-flow-only plan wrong")
	}
	dfOnly := BuildPlan(g, tracked, Features{Static: true, DataFlow: true})
	if len(dfOnly.StartAt) != 0 || len(dfOnly.WatchAccesses) == 0 {
		t.Error("data-flow-only plan wrong")
	}
}

// TestPlanTablesAgreeWithMaps checks the compiled form of a plan against
// the maps it was compiled from, instruction by instruction: the step
// flags against StartAt/StopAfter, and the per-instruction watch class
// against every watch group, including when there are more location
// classes than debug registers.
func TestPlanTablesAgreeWithMaps(t *testing.T) {
	manyClasses := `global int a; global int b; global int c; global int d; global int e; global int f;
global int g2; global int h2; global int i2; global int j2;
int main() {
	a = 1; b = 2; c = 3; d = 4; e = 5; f = 6; g2 = 7; h2 = 8; i2 = 9; j2 = 10;
	if (a + b > 2) { c = d; }
	return a + b + c + d + e + f + g2 + h2 + i2 + j2;
}`
	cases := []struct {
		name, src  string
		lines      []int
		wantGroups int
	}{
		{"plan", planProg, []int{5, 6, 7, 9}, 1},
		{"client", clientProg, []int{10, 11, 12, 13}, 1},
		{"many-classes", manyClasses, []int{4, 5, 6}, 3},
	}
	feats := []Features{
		AllFeatures(),
		{Static: true, ControlFlow: true},
		{Static: true, DataFlow: true},
		{Static: true, ControlFlow: true, DataFlow: true, ExtendedPT: true},
		{Static: true},
	}
	for _, tc := range cases {
		p := ir.MustCompile(tc.name+".mc", tc.src)
		g := cfg.BuildTICFG(p)
		for _, f := range feats {
			plan := BuildPlan(g, trackedOnLines(p, tc.lines...), f)
			if (plan.stepFlags != nil) != f.ControlFlow {
				t.Fatalf("%s %+v: step flags present=%v", tc.name, f, plan.stepFlags != nil)
			}
			if f.ControlFlow {
				if len(plan.stepFlags) != len(p.Instrs) {
					t.Fatalf("%s %+v: %d step flags for %d instructions", tc.name, f, len(plan.stepFlags), len(p.Instrs))
				}
				if len(plan.StartAt) == 0 || len(plan.StopAfter) == 0 {
					t.Fatalf("%s %+v: no starts or no stops; the case checks nothing", tc.name, f)
				}
				for id, flags := range plan.stepFlags {
					if got, want := flags&planStart != 0, plan.StartAt[id]; got != want {
						t.Errorf("%s %+v: instruction %%%d start flag %v, StartAt %v", tc.name, f, id, got, want)
					}
					if got, want := flags&planStopAfter != 0, plan.StopAfter[id]; got != want {
						t.Errorf("%s %+v: instruction %%%d stop flag %v, StopAfter %v", tc.name, f, id, got, want)
					}
				}
			}
			if !f.DataFlow {
				if plan.watchClass != nil || len(plan.WatchGroups) != 0 {
					t.Fatalf("%s %+v: watch tables without data-flow tracking", tc.name, f)
				}
				continue
			}
			if len(plan.WatchGroups) != tc.wantGroups {
				t.Fatalf("%s %+v: %d watch groups, want %d", tc.name, f, len(plan.WatchGroups), tc.wantGroups)
			}
			for id := range p.Instrs {
				if got, want := plan.watchClass[id] >= 0, plan.WatchAccesses[id]; got != want {
					t.Errorf("%s %+v: instruction %%%d has a watch class=%v, WatchAccesses %v", tc.name, f, id, got, want)
				}
				for other := range p.Instrs {
					if plan.WatchAccesses[id] && plan.WatchAccesses[other] &&
						(plan.Classes[id] == plan.Classes[other]) != (plan.watchClass[id] == plan.watchClass[other]) {
						t.Errorf("%s %+v: %%%d (%s) and %%%d (%s) have watch classes %d and %d", tc.name, f,
							id, plan.Classes[id], other, plan.Classes[other], plan.watchClass[id], plan.watchClass[other])
					}
				}
				for grp := range plan.WatchGroups {
					// Endpoint grp's group is grp; a register index below
					// NumRegisters means "this endpoint watches it".
					if got, want := plan.watchRegister(id, grp) < watch.NumRegisters, plan.WatchGroupFor(grp)[id]; got != want {
						t.Errorf("%s %+v: instruction %%%d in group %d: table says %v, WatchGroups says %v", tc.name, f, id, grp, got, want)
					}
				}
			}
		}
	}
}
