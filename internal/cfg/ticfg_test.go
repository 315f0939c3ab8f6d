package cfg

import (
	"testing"

	"repro/internal/ir"
)

const threaded = `
global int shared = 0;
int helper(int x) { return x + 1; }
void worker(int arg) {
	shared = helper(arg);
}
int main() {
	int t1 = spawn(worker, 1);
	int t2 = spawn(worker, 2);
	shared = helper(0);
	join(t1);
	join(t2);
	return shared;
}`

func TestTICFGEdges(t *testing.T) {
	p := compile(t, threaded)
	g := BuildTICFG(p)

	worker := p.FuncByName["worker"]
	helper := p.FuncByName["helper"]

	if len(g.SpawnEdges) != 2 {
		t.Fatalf("spawn edges: got %d, want 2", len(g.SpawnEdges))
	}
	for _, f := range g.SpawnEdges {
		if f != worker {
			t.Errorf("spawn edge target: %s", f.Name)
		}
	}
	if len(g.CallEdges) != 2 { // helper called from worker and from main
		t.Errorf("call edges: got %d, want 2", len(g.CallEdges))
	}
	for _, f := range g.CallEdges {
		if f != helper {
			t.Errorf("call edge target: %s", f.Name)
		}
	}
	// Join edges overapproximate to all spawned routines.
	if len(g.JoinEdges) != 2 {
		t.Fatalf("join edges: got %d, want 2", len(g.JoinEdges))
	}
	for _, fs := range g.JoinEdges {
		if len(fs) == 0 || fs[0] != worker {
			t.Errorf("join edge targets: %v", fs)
		}
	}
	// worker has 2 callsites (the spawns); helper has 2 (the calls).
	if len(g.Callsites[worker]) != 2 {
		t.Errorf("worker callsites: %v", g.Callsites[worker])
	}
	if len(g.Callsites[helper]) != 2 {
		t.Errorf("helper callsites: %v", g.Callsites[helper])
	}
}

func TestRetAndArgValues(t *testing.T) {
	p := compile(t, threaded)
	g := BuildTICFG(p)
	helper := p.FuncByName["helper"]
	worker := p.FuncByName["worker"]

	// The slicer's getRetValues step reads the operands of Rets.
	rets := g.Rets[helper]
	if len(rets) != 1 || rets[0].A.Kind != ir.ValReg {
		t.Errorf("helper rets: %v", rets)
	}

	// worker's parameter 0 receives the spawn payloads 1 and 2.
	args := g.ArgValues(worker, 0)
	if len(args) != 2 {
		t.Fatalf("worker arg values: %v", args)
	}
	got := map[int64]bool{}
	for _, a := range args {
		if a.Val.Kind == ir.ValConst {
			got[a.Val.Int] = true
		}
	}
	if !got[1] || !got[2] {
		t.Errorf("spawn payloads: %v", got)
	}

	// helper's parameter 0 receives one const (0 from main) and one
	// register (arg from worker).
	hargs := g.ArgValues(helper, 0)
	if len(hargs) != 2 {
		t.Fatalf("helper arg values: %v", hargs)
	}
}

func TestDomTreesBuiltPerFunction(t *testing.T) {
	p := compile(t, threaded)
	g := BuildTICFG(p)
	for _, f := range p.Funcs {
		if g.Dom[f] == nil || g.PDom[f] == nil {
			t.Errorf("missing dominance trees for %s", f.Name)
		}
	}
}

func TestTICFGStringSmoke(t *testing.T) {
	p := compile(t, threaded)
	g := BuildTICFG(p)
	if s := g.String(); len(s) == 0 {
		t.Error("empty TICFG dump")
	}
}
