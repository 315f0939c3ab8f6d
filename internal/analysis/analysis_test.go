package analysis

import (
	"sync"
	"testing"

	"repro/internal/ir"
	"repro/internal/slicer"
)

const testProg = `global int g;
int f(int x) {
	int y = x * 2;
	g = y;
	return y;
}
int main() {
	int a = input(0);
	int b = f(a);
	assert(b < 100);
	return b;
}`

func compile(t *testing.T) *ir.Program {
	t.Helper()
	return ir.MustCompile("analysis_test.mc", testProg)
}

func TestGraphMemoized(t *testing.T) {
	Reset()
	p := compile(t)
	g1 := Graph(p)
	g2 := Graph(p)
	if g1 != g2 {
		t.Fatalf("Graph returned distinct graphs for the same program")
	}
	if g1.Prog != p {
		t.Fatalf("Graph built for the wrong program")
	}
	s := Snapshot()
	if s.GraphBuilds != 1 || s.GraphHits != 1 {
		t.Fatalf("want 1 build + 1 hit, got %+v", s)
	}
	// A different program gets its own graph.
	p2 := compile(t)
	if Graph(p2) == g1 {
		t.Fatalf("distinct programs share a graph")
	}
}

func TestSliceClonesAreIndependent(t *testing.T) {
	Reset()
	p := compile(t)
	root := findAssert(t, p)
	s1 := Slice(p, root)
	s2 := Slice(p, root)
	if s1 == s2 {
		t.Fatalf("Slice returned the same object twice")
	}
	if len(s1.IDs) != len(s2.IDs) {
		t.Fatalf("clones differ: %v vs %v", s1.IDs, s2.IDs)
	}
	// Refining one clone must not leak into the next caller's view.
	novel := -1
	for id := range p.Instrs {
		if !s1.Contains(id) {
			novel = id
			break
		}
	}
	if novel == -1 {
		t.Skip("slice covers whole program; nothing to refine")
	}
	if !s1.Add(novel) {
		t.Fatalf("Add(%d) reported already-present", novel)
	}
	s3 := Slice(p, root)
	if s3.Contains(novel) {
		t.Fatalf("refinement of one clone contaminated the cache")
	}
	s := Snapshot()
	if s.SliceBuilds != 1 || s.SliceHits != 2 {
		t.Fatalf("want 1 build + 2 hits, got %+v", s)
	}
}

func TestSliceMatchesDirectCompute(t *testing.T) {
	Reset()
	p := compile(t)
	root := findAssert(t, p)
	got := Slice(p, root)
	want := slicer.Compute(Graph(p), root)
	if len(got.IDs) != len(want.IDs) {
		t.Fatalf("cached slice differs from direct compute: %v vs %v", got.IDs, want.IDs)
	}
	for i := range got.IDs {
		if got.IDs[i] != want.IDs[i] {
			t.Fatalf("cached slice differs at %d: %v vs %v", i, got.IDs, want.IDs)
		}
	}
}

func TestBytecodeMemoized(t *testing.T) {
	Reset()
	p := compile(t)
	bp1, hit1 := Bytecode(p)
	bp2, hit2 := Bytecode(p)
	if bp1 != bp2 {
		t.Fatalf("Bytecode returned distinct programs for the same IR")
	}
	if hit1 || !hit2 {
		t.Fatalf("want miss then hit, got hit1=%v hit2=%v", hit1, hit2)
	}
	if bp1.NumInstrs() != len(p.Instrs) {
		t.Fatalf("Bytecode compiled the wrong program")
	}
	s := Snapshot()
	if s.BytecodeBuilds != 1 || s.BytecodeHits != 1 {
		t.Fatalf("want 1 build + 1 hit, got %+v", s)
	}
	// A different program gets its own compilation.
	p2 := compile(t)
	if bp, _ := Bytecode(p2); bp == bp1 {
		t.Fatalf("distinct programs share a bytecode compilation")
	}
}

func TestConcurrentSingleFlight(t *testing.T) {
	Reset()
	p := compile(t)
	root := findAssert(t, p)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			Graph(p)
			Slice(p, root)
			Bytecode(p)
		}()
	}
	wg.Wait()
	s := Snapshot()
	if s.GraphBuilds != 1 {
		t.Errorf("graph built %d times under concurrency", s.GraphBuilds)
	}
	if s.SliceBuilds != 1 {
		t.Errorf("slice built %d times under concurrency", s.SliceBuilds)
	}
	if s.BytecodeBuilds != 1 {
		t.Errorf("bytecode built %d times under concurrency", s.BytecodeBuilds)
	}
}

// findAssert returns the ID of the assert callsite — a realistic slice
// root (the failing instruction of an assert failure).
func findAssert(t *testing.T, p *ir.Program) int {
	t.Helper()
	for _, in := range p.Instrs {
		if in.Op == ir.OpCallB && in.Callee == "assert" {
			return in.ID
		}
	}
	t.Fatal("no assert in test program")
	return -1
}
