package slicer

import (
	"testing"

	"repro/internal/cfg"
	"repro/internal/ir"
	"repro/internal/vm"
	"repro/internal/vm/interp"
)

// failingInstr runs the program until it fails and returns the failing
// instruction ID (the root of the slice, as reported in production).
func failingInstr(t *testing.T, p *ir.Program, wl vm.Workload, seeds ...int64) int {
	t.Helper()
	if len(seeds) == 0 {
		seeds = []int64{1}
	}
	for _, seed := range seeds {
		out := interp.Run(p, vm.Config{Seed: seed, PreemptMean: 3, MaxSteps: 100_000, Workload: wl})
		if out.Failed {
			return out.Report.InstrID
		}
	}
	t.Fatal("program did not fail under any seed")
	return -1
}

// linesOf maps slice instruction IDs to distinct source lines.
func linesOf(p *ir.Program, ids []int) map[int]bool {
	lines := make(map[int]bool)
	for _, id := range ids {
		lines[p.Instrs[id].Pos.Line] = true
	}
	return lines
}

func TestSliceSequentialDataFlow(t *testing.T) {
	// Only the chain feeding the failing division should be in the slice:
	// the unrelated computation must be excluded.
	src := `int main() {
	int unrelated = 5;
	unrelated = unrelated * 3;
	int d = input(0);
	int d2 = d - 1;
	int r = 100 / d2;
	return r + unrelated;
}`
	p := ir.MustCompile("t.mc", src)
	g := cfg.BuildTICFG(p)
	fail := failingInstr(t, p, vm.Workload{Ints: []int64{1}}) // division by zero when input(0) == 1
	s := Compute(g, fail)
	lines := linesOf(p, s.IDs)
	for _, want := range []int{4, 5, 6} { // d, d2, r lines
		if !lines[want] {
			t.Errorf("slice missing line %d; got lines %v", want, lines)
		}
	}
	for _, not := range []int{2, 3} { // unrelated lines
		if lines[not] {
			t.Errorf("slice should not contain unrelated line %d; got %v", not, lines)
		}
	}
}

func TestSliceFollowsControlDependence(t *testing.T) {
	src := `int main() {
	int x = input(0);
	int y = 0;
	if (x > 3) {
		y = 1;
	}
	int z = 10 / y;
	return z;
}`
	p := ir.MustCompile("t.mc", src)
	g := cfg.BuildTICFG(p)
	fail := failingInstr(t, p, vm.Workload{})
	s := Compute(g, fail)
	lines := linesOf(p, s.IDs)
	// The if-condition (line 4) controls whether y=1 executes; it must be
	// in the slice, and so must x's def.
	for _, want := range []int{2, 4, 5, 7} {
		if !lines[want] {
			t.Errorf("slice missing line %d; got %v", want, lines)
		}
	}
}

func TestSliceInterprocedural(t *testing.T) {
	src := `int deref(int* p) {
	return *p;
}
int* make(int which) {
	if (which == 1) { return null; }
	return malloc(8);
}
int main() {
	int* q = make(input(0));
	return deref(q);
}`
	p := ir.MustCompile("t.mc", src)
	g := cfg.BuildTICFG(p)
	fail := failingInstr(t, p, vm.Workload{Ints: []int64{1}}) // null deref inside deref()
	s := Compute(g, fail)
	lines := linesOf(p, s.IDs)
	// The slice must cross deref -> main (argument q) -> make (return
	// values) and include the null return and its guard.
	for _, want := range []int{2, 5, 6, 9, 10} {
		if !lines[want] {
			t.Errorf("slice missing line %d; got %v", want, lines)
		}
	}
}

const pbzipSrc = `struct queue { int* mut; int size; };
global struct queue* fifo;
global int unrelated = 0;
void cons(int arg) {
	struct queue* f = fifo;
	unlock(f->mut);
}
int main() {
	fifo = malloc(sizeof(queue));
	fifo->mut = malloc(8);
	int t = spawn(cons, 0);
	unrelated = unrelated + 1;
	free(fifo->mut);
	fifo->mut = null;
	join(t);
	return 0;
}`

func TestSliceCrossesThreadCreation(t *testing.T) {
	p := ir.MustCompile("t.mc", pbzipSrc)
	g := cfg.BuildTICFG(p)
	fail := failingInstr(t, p, vm.Workload{}, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12)
	s := Compute(g, fail)
	lines := linesOf(p, s.IDs)
	// cons's statements and the globals feeding them.
	for _, want := range []int{5, 6, 9} { // f = fifo; unlock(f->mut); fifo = malloc(...)
		if !lines[want] {
			t.Errorf("slice missing line %d; got %v", want, lines)
		}
	}
	if lines[12] {
		t.Errorf("slice should not contain the unrelated counter (line 12); got %v", lines)
	}
}

func TestNoAliasAnalysisByDesign(t *testing.T) {
	// Stores through a struct-field pointer must NOT be statically
	// connected to loads of the same field: that is exactly the
	// imprecision hardware watchpoints repair at runtime (§3.2.3).
	p := ir.MustCompile("t.mc", pbzipSrc)
	g := cfg.BuildTICFG(p)
	fail := failingInstr(t, p, vm.Workload{}, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12)
	s := Compute(g, fail)
	lines := linesOf(p, s.IDs)
	// Line 14 (fifo->mut = null) is a store through a pointer; without
	// alias analysis it must be absent from the static slice.
	if lines[14] {
		t.Errorf("static slice contains pointer store line 14 — alias analysis crept in: %v", lines)
	}
	// But runtime refinement can add it.
	var storeNull *ir.Instr
	for _, in := range p.Instrs {
		if in.Op == ir.OpStore && in.Pos.Line == 14 {
			storeNull = in
		}
	}
	if storeNull == nil {
		t.Fatal("no store at line 14")
	}
	if !s.Add(storeNull.ID) {
		t.Fatal("Add reported existing instruction")
	}
	if !s.Contains(storeNull.ID) {
		t.Fatal("Add did not insert")
	}
	if s.Add(storeNull.ID) {
		t.Fatal("double Add reported new")
	}
}

func TestWindowGrowsMonotonically(t *testing.T) {
	p := ir.MustCompile("t.mc", pbzipSrc)
	g := cfg.BuildTICFG(p)
	fail := failingInstr(t, p, vm.Workload{}, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12)
	s := Compute(g, fail)
	prev := 0
	for sigma := 1; sigma <= s.LineCount()+2; sigma *= 2 {
		w := s.Window(sigma)
		if len(w) < prev {
			t.Fatalf("window shrank at sigma=%d: %d < %d", sigma, len(w), prev)
		}
		prev = len(w)
		// Window instructions are always slice members.
		for _, id := range w {
			if !s.Contains(id) {
				t.Fatalf("window instr %%%d not in slice", id)
			}
		}
	}
	// The full window covers the whole slice.
	if got := len(s.Window(s.LineCount())); got != s.InstrCount() {
		t.Errorf("full window has %d instrs, slice has %d", got, s.InstrCount())
	}
}

func TestWindowContainsFailingStatement(t *testing.T) {
	p := ir.MustCompile("t.mc", pbzipSrc)
	g := cfg.BuildTICFG(p)
	fail := failingInstr(t, p, vm.Workload{}, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12)
	s := Compute(g, fail)
	failLine := p.Instrs[fail].Pos.Line
	w := s.Window(1)
	if !linesOf(p, w)[failLine] {
		t.Errorf("sigma=1 window %v does not contain the failing line %d", linesOf(p, w), failLine)
	}
}

func TestDiscoveryOrderStartsAtFailure(t *testing.T) {
	p := ir.MustCompile("t.mc", pbzipSrc)
	g := cfg.BuildTICFG(p)
	fail := failingInstr(t, p, vm.Workload{}, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12)
	s := Compute(g, fail)
	if len(s.Discovery) == 0 || s.Discovery[0] != fail {
		t.Errorf("discovery order must start at the failing instruction")
	}
	if !s.Contains(fail) {
		t.Error("slice must contain the failing instruction")
	}
}

func TestSharedAccessClassification(t *testing.T) {
	src := `global int g;
struct s { int f; };
int main() {
	int local = 1;
	g = local;
	struct s* p = malloc(sizeof(s));
	p->f = 2;
	int a = g;
	int b = p->f;
	int c = local;
	return a + b + c;
}`
	p := ir.MustCompile("t.mc", src)
	g := cfg.BuildTICFG(p)
	byLine := map[int][]bool{}
	for _, in := range p.Instrs {
		if in.IsMemAccess() {
			byLine[in.Pos.Line] = append(byLine[in.Pos.Line], SharedAccess(g, in))
		}
	}
	anyShared := func(line int) bool {
		for _, v := range byLine[line] {
			if v {
				return true
			}
		}
		return false
	}
	if !anyShared(5) { // g = local  (global store)
		t.Error("global store not classified shared")
	}
	if !anyShared(7) { // p->f = 2  (heap store)
		t.Error("heap field store not classified shared")
	}
	if anyShared(4) { // int local = 1 (stack only)
		t.Error("stack store classified shared")
	}
}
