package cfg

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/ir"
)

func compile(t *testing.T, src string) *ir.Program {
	t.Helper()
	p, err := ir.Compile("t.mc", src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return p
}

const diamond = `
int main() {
	int x = input(0);
	int y = 0;
	if (x > 0) { y = 1; } else { y = 2; }
	return y;
}`

func TestDominatorsDiamond(t *testing.T) {
	p := compile(t, diamond)
	f := p.FuncByName["main"]
	d := dominators(f)
	entry := f.Entry()
	// Entry dominates every reachable block.
	for _, b := range f.Blocks {
		if len(b.Preds) == 0 && b != entry {
			continue // unreachable filler
		}
		if !d.dominates(entry, b) {
			t.Errorf("entry should dominate bb%d", b.ID)
		}
	}
	// The two branch arms do not dominate the join block.
	var branch *ir.Block
	for _, b := range f.Blocks {
		if tm := b.Terminator(); tm != nil && tm.Op == ir.OpBr {
			branch = b
		}
	}
	if branch == nil {
		t.Fatal("no branch block")
	}
	thenB, elseB := branch.Succs()[0], branch.Succs()[1]
	// Find the join: a block with 2 preds.
	var join *ir.Block
	for _, b := range f.Blocks {
		if len(b.Preds) == 2 {
			join = b
		}
	}
	if join == nil {
		t.Fatal("no join block")
	}
	if d.dominates(thenB, join) || d.dominates(elseB, join) {
		t.Error("branch arms must not dominate the join")
	}
	if !d.dominates(branch, join) {
		t.Error("branch block must dominate the join")
	}
	if id := d.idom[join.ID]; id == -1 || id == join.ID || !d.dominates(branch, f.Blocks[id]) {
		t.Errorf("idom(join) = bb%d", id)
	}
}

func TestPostDominatorsDiamond(t *testing.T) {
	p := compile(t, diamond)
	f := p.FuncByName["main"]
	pd := postDominators(f)
	var branch, join *ir.Block
	for _, b := range f.Blocks {
		if tm := b.Terminator(); tm != nil && tm.Op == ir.OpBr {
			branch = b
		}
		if len(b.Preds) == 2 {
			join = b
		}
	}
	if !postDominates(pd, join, branch) {
		t.Error("join must postdominate the branch")
	}
	if got := pd.IPDom(branch); got != join {
		t.Errorf("ipdom(branch) = %v, want join bb%d", got, join.ID)
	}
	// The block ending in ret has no ipdom (virtual exit).
	for _, b := range f.Blocks {
		if tm := b.Terminator(); tm != nil && tm.Op == ir.OpRet {
			if pd.IPDom(b) != nil {
				t.Errorf("ret block bb%d should have nil ipdom", b.ID)
			}
		}
	}
}

func TestInstrSDomSameBlock(t *testing.T) {
	p := compile(t, "int main() { int a = 1; int b = 2; return a + b; }")
	f := p.FuncByName["main"]
	d := dominators(f)
	blk := f.Entry()
	if len(blk.Instrs) < 3 {
		t.Fatal("expected several instructions in entry")
	}
	a, b := blk.Instrs[0], blk.Instrs[2]
	if !d.InstrSDom(a, b) {
		t.Error("earlier instruction should strictly dominate later one in same block")
	}
	if d.InstrSDom(b, a) {
		t.Error("later instruction must not dominate earlier one")
	}
	if d.InstrSDom(a, a) {
		t.Error("sdom is irreflexive")
	}
}

func TestDominatorsLoop(t *testing.T) {
	p := compile(t, `
int main() {
	int s = 0;
	for (int i = 0; i < 10; i++) { s = s + i; }
	return s;
}`)
	f := p.FuncByName["main"]
	d := dominators(f)
	pd := postDominators(f)
	// The loop condition block dominates the body and the exit.
	var cond *ir.Block
	for _, b := range f.Blocks {
		if len(b.Preds) >= 2 {
			cond = b // condition: entered from init and from post
		}
	}
	if cond == nil {
		t.Fatal("no loop condition block found")
	}
	for _, s := range cond.Succs() {
		if !d.dominates(cond, s) {
			t.Errorf("loop condition should dominate successor bb%d", s.ID)
		}
	}
	// The exit block postdominates the condition.
	tm := cond.Terminator()
	if tm.Op == ir.OpBr {
		exit := tm.Else
		if !postDominates(pd, exit, cond) {
			t.Error("loop exit should postdominate the condition")
		}
	}
}

// randomCFG builds a random function shape directly in IR to
// property-test dominance: entry is block 0; every block gets a
// terminator leading to random later-or-earlier blocks.
func randomCFG(rng *rand.Rand, nBlocks int) *ir.Func {
	f := &ir.Func{Name: "rand"}
	for i := 0; i < nBlocks; i++ {
		f.Blocks = append(f.Blocks, &ir.Block{ID: i, Fn: f})
	}
	for i, b := range f.Blocks {
		switch rng.Intn(3) {
		case 0: // ret
			b.Instrs = append(b.Instrs, &ir.Instr{Op: ir.OpRet, Dst: -1, A: ir.Value{Kind: ir.ValConst}})
		case 1: // jmp
			t := f.Blocks[rng.Intn(nBlocks)]
			b.Instrs = append(b.Instrs, &ir.Instr{Op: ir.OpJmp, Dst: -1, Then: t})
		default: // br
			t1 := f.Blocks[rng.Intn(nBlocks)]
			t2 := f.Blocks[rng.Intn(nBlocks)]
			b.Instrs = append(b.Instrs, &ir.Instr{Op: ir.OpBr, Dst: -1, A: ir.Value{Kind: ir.ValReg}, Then: t1, Else: t2})
		}
		_ = i
	}
	// Fill preds the way the IR builder does.
	for _, b := range f.Blocks {
		for _, s := range b.Succs() {
			s.Preds = append(s.Preds, b)
		}
	}
	return f
}

// reachable computes the blocks reachable from start.
func reachable(start *ir.Block) map[*ir.Block]bool {
	seen := make(map[*ir.Block]bool)
	var visit func(b *ir.Block)
	visit = func(b *ir.Block) {
		if seen[b] {
			return
		}
		seen[b] = true
		for _, s := range b.Succs() {
			visit(s)
		}
	}
	visit(start)
	return seen
}

// dominatesBrute checks "a dom b" by exhaustive path enumeration: b is
// reachable from entry, and unreachable when a is removed.
func dominatesBrute(f *ir.Func, a, b *ir.Block) bool {
	seen := make(map[*ir.Block]bool)
	var visit func(x *ir.Block) bool
	visit = func(x *ir.Block) bool {
		if x == b {
			return true
		}
		if x == a || seen[x] {
			return false
		}
		seen[x] = true
		for _, s := range x.Succs() {
			if visit(s) {
				return true
			}
		}
		return false
	}
	if a == b {
		return true
	}
	return !visit(f.Entry())
}

// Property: on random CFGs, the iterative dominator tree agrees with
// brute-force path-based dominance for all reachable block pairs.
func TestDominatorsMatchBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		fn := randomCFG(rng, 2+rng.Intn(7))
		reach := reachable(fn.Entry())
		d := dominators(fn)
		for _, a := range fn.Blocks {
			for _, b := range fn.Blocks {
				if !reach[a] || !reach[b] {
					continue
				}
				want := dominatesBrute(fn, a, b)
				got := d.dominates(a, b)
				if got != want {
					t.Logf("seed %d: dom(bb%d, bb%d) = %v, want %v", seed, a.ID, b.ID, got, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// reachesExit reports, per block, whether some path leads from it to a
// block without successors (a return) — to the virtual exit.
func reachesExit(f *ir.Func) map[*ir.Block]bool {
	exits := make(map[*ir.Block]bool)
	for changed := true; changed; {
		changed = false
		for _, b := range f.Blocks {
			if exits[b] {
				continue
			}
			ss := b.Succs()
			ok := len(ss) == 0
			for _, s := range ss {
				ok = ok || exits[s]
			}
			if ok {
				exits[b] = true
				changed = true
			}
		}
	}
	return exits
}

// postDominatesBrute checks "a postdom b" by exhaustive path
// enumeration on the reverse graph: no path leads from b to the virtual
// exit once a is removed. b must reach the exit.
func postDominatesBrute(a, b *ir.Block) bool {
	seen := make(map[*ir.Block]bool)
	var visit func(x *ir.Block) bool // x reaches the exit avoiding a
	visit = func(x *ir.Block) bool {
		if x == a || seen[x] {
			return false
		}
		seen[x] = true
		ss := x.Succs()
		if len(ss) == 0 {
			return true
		}
		for _, s := range ss {
			if visit(s) {
				return true
			}
		}
		return false
	}
	return a == b || !visit(b)
}

// Property: on random CFGs, the postdominator tree agrees with
// brute-force path-based postdominance for every pair of blocks that
// reach the exit, and ipdom(b) is immediate: a strict postdominator of
// b that every other strict postdominator of b postdominates. A block
// that cannot reach the exit has no ipdom.
func TestIPDomIsPostDominator(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		fn := randomCFG(rng, 2+rng.Intn(7))
		exits := reachesExit(fn)
		pd := postDominators(fn)
		for _, b := range fn.Blocks {
			ip := pd.IPDom(b)
			if !exits[b] {
				if ip != nil {
					t.Logf("seed %d: bb%d cannot reach the exit, ipdom = bb%d", seed, b.ID, ip.ID)
					return false
				}
				continue
			}
			if ip == b || ip != nil && !postDominatesBrute(ip, b) {
				t.Logf("seed %d: ipdom(bb%d) = bb%d is no strict postdominator", seed, b.ID, ip.ID)
				return false
			}
			for _, a := range fn.Blocks {
				if !exits[a] {
					continue
				}
				want := postDominatesBrute(a, b)
				if got := postDominates(pd, a, b); got != want {
					t.Logf("seed %d: pdom(bb%d, bb%d) = %v, want %v", seed, a.ID, b.ID, got, want)
					return false
				}
				if a != b && want && (ip == nil || !postDominatesBrute(a, ip)) {
					t.Logf("seed %d: bb%d strictly postdominates bb%d but not its ipdom %v", seed, a.ID, b.ID, ip)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// reducible reports whether f's reachable CFG is acyclic once its back
// edges (u→v where v dominates u) are removed: every loop is entered
// through its header, as in every CFG MiniC's structured control flow
// produces.
func reducible(f *ir.Func, reach map[*ir.Block]bool) bool {
	indeg := make(map[*ir.Block]int)
	for b := range reach {
		for _, s := range b.Succs() {
			if !dominatesBrute(f, s, b) {
				indeg[s]++
			}
		}
	}
	ready := []*ir.Block{f.Entry()}
	n := 0
	for ; len(ready) > 0; n++ {
		b := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		for _, s := range b.Succs() {
			if !dominatesBrute(f, s, b) {
				if indeg[s]--; indeg[s] == 0 {
					ready = append(ready, s)
				}
			}
		}
	}
	return n == len(reach)
}

// Property: on random CFGs, Order gives the entry 0, every reachable
// block its own number and every unreachable block a number after them
// all, and it is a reverse postorder: an edge u→v with u not before v
// closes a cycle (v reaches u), and on a reducible CFG it is a back edge
// (v dominates u). The numbers need not be contiguous: the virtual exit
// takes one of them.
func TestOrderIsReversePostorder(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		fn := randomCFG(rng, 2+rng.Intn(7))
		reach := reachable(fn.Entry())
		red := reducible(fn, reach)
		d := dominators(fn)
		nums := make(map[int]*ir.Block)
		last := -1
		for _, u := range fn.Blocks {
			if !reach[u] {
				continue
			}
			if prev, dup := nums[d.Order(u)]; dup {
				t.Logf("seed %d: bb%d and bb%d both order at %d", seed, prev.ID, u.ID, d.Order(u))
				return false
			}
			nums[d.Order(u)] = u
			last = max(last, d.Order(u))
			for _, v := range u.Succs() {
				if d.Order(u) < d.Order(v) {
					continue
				}
				if !reachable(v)[u] || red && !dominatesBrute(fn, v, u) {
					t.Logf("seed %d: edge bb%d→bb%d orders %d→%d", seed, u.ID, v.ID, d.Order(u), d.Order(v))
					return false
				}
			}
		}
		for _, u := range fn.Blocks {
			if !reach[u] && d.Order(u) <= last {
				t.Logf("seed %d: unreachable bb%d orders at %d, not after reachable %d", seed, u.ID, d.Order(u), last)
				return false
			}
		}
		return d.Order(fn.Entry()) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// postDominates reports whether a postdominates b (reflexively), by
// walking b's immediate-postdominator chain the way the slicer does.
func postDominates(pd *PostDomTree, a, b *ir.Block) bool {
	for ; b != nil; b = pd.IPDom(b) {
		if a == b {
			return true
		}
	}
	return false
}
