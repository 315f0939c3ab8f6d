package core

import (
	"slices"
	"testing"

	"repro/internal/cfg"
	"repro/internal/hw/watch"
	"repro/internal/ir"
	"repro/internal/slicer"
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

// flagged returns, in ID order, the instructions whose step flags carry
// bit.
func flagged(p *Plan, bit uint8) []int {
	var ids []int
	for id, f := range p.stepFlags {
		if f&bit != 0 {
			ids = append(ids, id)
		}
	}
	return ids
}

// watched returns, in ID order, the accesses the plan watches.
func watched(p *Plan) []int {
	var ids []int
	for id, k := range p.watchClass {
		if k >= 0 {
			ids = append(ids, id)
		}
	}
	return ids
}

// watchGroup returns the accesses endpoint e arms watchpoints for.
func watchGroup(p *Plan, e int) map[int]bool {
	grp := p.groupOf(e)
	if grp < 0 {
		return nil
	}
	m := make(map[int]bool)
	for _, id := range watched(p) {
		if p.watchRegister(id, grp) < watch.NumRegisters {
			m[id] = true
		}
	}
	return m
}

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

	starts := flagged(plan, planStart)
	if len(starts) == 0 {
		t.Fatal("no start points")
	}
	if len(flagged(plan, planStopAfter)) == 0 {
		t.Fatal("no stop points")
	}
	// The earliest tracked statement sits in the entry block, so its
	// start anchor must be a tracked entry-block instruction (the
	// statement itself, not the whole function).
	main := p.FuncByName["main"]
	foundEntryAnchor := false
	for _, id := range starts {
		in := p.Instrs[id]
		if in.Blk == main.Entry() && slices.Contains(tracked, id) {
			foundEntryAnchor = true
		}
	}
	if !foundEntryAnchor {
		t.Errorf("expected a start anchored at a tracked entry-block statement; starts: %v", starts)
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
	if stops, last := flagged(plan, planStopAfter), slices.Max(tracked); len(stops) != 1 || stops[0] != last {
		t.Errorf("straight-line window should stop only after the last tracked instruction %%%d, got %v", last, stops)
	}
	// And exactly one start: the first tracked statement (sdom covers the
	// rest).
	if starts, first := flagged(plan, planStart), slices.Min(tracked); len(starts) != 1 || starts[0] != first {
		t.Errorf("straight-line window should start only at the first tracked instruction %%%d, got %v", first, starts)
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
	for _, id := range watched(plan) {
		in := p.Instrs[id]
		if !in.IsMemAccess() {
			t.Errorf("watch target %%%d is not a memory access", id)
		}
		if in.Pos.Line == 3 || in.Pos.Line == 4 {
			t.Errorf("stack-only line %d must not be watched", in.Pos.Line)
		}
	}
	found := false
	for _, id := range watched(plan) {
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
	accesses := watched(plan)
	if len(accesses) <= watch.NumRegisters {
		t.Fatalf("test needs >%d accesses, got %d", watch.NumRegisters, len(accesses))
	}
	if plan.groups < 2 {
		t.Fatalf("expected cooperative partitioning, got %d group(s)", plan.groups)
	}
	seen := make(map[int]bool)
	for e := 0; e < plan.groups; e++ {
		grp := watchGroup(plan, e)
		classes := map[int32]bool{}
		for id := range grp {
			classes[plan.watchClass[id]] = true
		}
		if len(classes) > watch.NumRegisters {
			t.Errorf("group has %d location classes, over the register budget: %v", len(classes), grp)
		}
		for id := range grp {
			if seen[id] {
				t.Errorf("instruction %%%d in two groups", id)
			}
			seen[id] = true
		}
	}
	if len(seen) != len(accesses) {
		t.Errorf("groups cover %d of %d accesses", len(seen), len(accesses))
	}
	// Different endpoints get different groups.
	g0 := watchGroup(plan, 0)
	g1 := watchGroup(plan, 1)
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
	if len(flagged(staticOnly, planStart)) != 0 || len(watched(staticOnly)) != 0 {
		t.Error("static-only plan must not instrument")
	}
	cfOnly := BuildPlan(g, tracked, Features{Static: true, ControlFlow: true})
	if len(flagged(cfOnly, planStart)) == 0 || len(watched(cfOnly)) != 0 {
		t.Error("control-flow-only plan wrong")
	}
	dfOnly := BuildPlan(g, tracked, Features{Static: true, DataFlow: true})
	if len(flagged(dfOnly, planStart)) != 0 || len(watched(dfOnly)) == 0 {
		t.Error("data-flow-only plan wrong")
	}
}

// TestPlanTablesAgreeWithMaps checks the invariants of a plan's two
// tables, instruction by instruction: step flags exist exactly with
// control-flow tracking; every location class gets one class index;
// class k belongs to group k/NumRegisters and to no other; and there are
// ⌈classes / NumRegisters⌉ groups — including when there are more
// location classes than debug registers.
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
		tracked := trackedOnLines(p, tc.lines...)
		for _, f := range feats {
			plan := BuildPlan(g, tracked, f)
			if (plan.stepFlags != nil) != f.ControlFlow {
				t.Fatalf("%s %+v: step flags present=%v", tc.name, f, plan.stepFlags != nil)
			}
			if f.ControlFlow {
				if len(plan.stepFlags) != len(p.Instrs) {
					t.Fatalf("%s %+v: %d step flags for %d instructions", tc.name, f, len(plan.stepFlags), len(p.Instrs))
				}
				if len(flagged(plan, planStart)) == 0 || len(flagged(plan, planStopAfter)) == 0 {
					t.Fatalf("%s %+v: no starts or no stops; the case checks nothing", tc.name, f)
				}
			}
			if !f.DataFlow {
				if plan.watchClass != nil || plan.groups != 0 {
					t.Fatalf("%s %+v: watch tables without data-flow tracking", tc.name, f)
				}
				continue
			}
			if plan.groups != tc.wantGroups {
				t.Fatalf("%s %+v: %d watch groups, want %d", tc.name, f, plan.groups, tc.wantGroups)
			}
			// Exactly the tracked shared accesses are watched, and each
			// location class, named the way planDataFlow names it, has one
			// class index.
			var roots slicer.Roots
			class := make(map[int32]string)
			for id, in := range p.Instrs {
				shared := slices.Contains(tracked, id) && in.IsMemAccess() && roots.Of(in).Shared()
				if got := plan.watchClass[id] >= 0; got != shared {
					t.Errorf("%s %+v: instruction %%%d watched=%v, tracked shared access=%v", tc.name, f, id, got, shared)
				}
				if !shared {
					continue
				}
				cls := addrClass(&roots, roots.Of(in), in)
				if prev, ok := class[plan.watchClass[id]]; ok && prev != cls {
					t.Errorf("%s %+v: class index %d stands for both %s and %s", tc.name, f, plan.watchClass[id], prev, cls)
				}
				class[plan.watchClass[id]] = cls
			}
			names := make(map[string]bool)
			for k, cls := range class {
				if names[cls] {
					t.Errorf("%s %+v: location class %s has more than one index (one is %d)", tc.name, f, cls, k)
				}
				names[cls] = true
				if k < 0 || int(k) >= len(class) {
					t.Errorf("%s %+v: class index %d outside 0..%d", tc.name, f, k, len(class)-1)
				}
			}
			if want := (len(class) + watch.NumRegisters - 1) / watch.NumRegisters; plan.groups != want {
				t.Errorf("%s %+v: %d watch groups for %d classes, want %d", tc.name, f, plan.groups, len(class), want)
			}
			for _, id := range watched(plan) {
				for grp := 0; grp < plan.groups; grp++ {
					// Endpoint grp's group is grp; a register index below
					// NumRegisters means "this endpoint watches it".
					if got, want := plan.watchRegister(id, grp) < watch.NumRegisters, int(plan.watchClass[id])/watch.NumRegisters == grp; got != want {
						t.Errorf("%s %+v: instruction %%%d (class %d) in group %d: %v, want %v", tc.name, f, id, plan.watchClass[id], grp, got, want)
					}
				}
			}
		}
	}
}
