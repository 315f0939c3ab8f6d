// Package cfg provides the control-flow analyses Gist's static phase is
// built on: dominator and postdominator trees for each function, and the
// thread interprocedural control flow graph (TICFG) of §3.1 — the ICFG
// augmented with thread creation and join edges — which the backward
// slicer and the instrumentation planner both traverse. Both trees come
// from one implementation of the Cooper–Harvey–Kennedy algorithm, run
// forward from the entry and on the reverse CFG from a virtual exit.
package cfg

import "repro/internal/ir"

// DomTree is a dominator tree for one function.
type DomTree struct {
	fn   *ir.Func
	idom []int // idom[block ID] = immediate dominator's block ID; entry maps to itself; -1 = unreachable
	rpo  []int // rpo[block ID] = reverse-postorder number; -1 = unreachable
}

// dominators computes the dominator tree of f.
func dominators(f *ir.Func) *DomTree {
	succs, preds := adjacency(f)
	idom, rpo := idoms(f.Entry().ID, succs, preds)
	return &DomTree{fn: f, idom: idom, rpo: rpo}
}

// adjacency returns f's CFG as successor and predecessor lists indexed
// by block ID, plus node len(f.Blocks): a virtual exit that every block
// without successors flows into. The exit is a sink, so it changes no
// block's dominator and no block's place in reverse postorder relative
// to another; only the postdominator tree, rooted there, needs it.
func adjacency(f *ir.Func) (succs, preds [][]int) {
	n := len(f.Blocks)
	succs = make([][]int, n+1)
	preds = make([][]int, n+1)
	for _, b := range f.Blocks {
		ss := b.Succs()
		if len(ss) == 0 {
			succs[b.ID] = append(succs[b.ID], n)
			preds[n] = append(preds[n], b.ID)
		}
		for _, s := range ss {
			succs[b.ID] = append(succs[b.ID], s.ID)
			preds[s.ID] = append(preds[s.ID], b.ID)
		}
	}
	return succs, preds
}

// idoms runs the iterative dominator algorithm of Cooper, Harvey and
// Kennedy over a reverse postorder of the graph rooted at root. It
// returns each node's immediate dominator (root maps to itself) and
// reverse-postorder number, both -1 for nodes root cannot reach.
func idoms(root int, succs, preds [][]int) (idom, rpo []int) {
	var order []int // postorder, root last
	seen := make([]bool, len(succs))
	var visit func(u int)
	visit = func(u int) {
		if seen[u] {
			return
		}
		seen[u] = true
		for _, s := range succs[u] {
			visit(s)
		}
		order = append(order, u)
	}
	visit(root)

	idom = make([]int, len(succs))
	rpo = make([]int, len(succs))
	for i := range idom {
		idom[i], rpo[i] = -1, -1
	}
	for i, u := range order {
		rpo[u] = len(order) - 1 - i
	}
	idom[root] = root

	intersect := func(a, b int) int {
		for a != b {
			for rpo[a] > rpo[b] {
				a = idom[a]
			}
			for rpo[b] > rpo[a] {
				b = idom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		// Process in reverse postorder (skip root).
		for i := len(order) - 2; i >= 0; i-- {
			u := order[i]
			newIdom := -1
			for _, p := range preds[u] {
				if idom[p] == -1 {
					continue // unreachable or not yet processed
				}
				if newIdom == -1 {
					newIdom = p
				} else {
					newIdom = intersect(newIdom, p)
				}
			}
			if newIdom != -1 && idom[u] != newIdom {
				idom[u] = newIdom
				changed = true
			}
		}
	}
	return idom, rpo
}

// Order returns b's reverse-postorder number. Every unreachable block
// gets the same number, after every reachable one.
func (d *DomTree) Order(b *ir.Block) int {
	if n := d.rpo[b.ID]; n >= 0 {
		return n
	}
	return len(d.rpo)
}

// dominates reports whether a dominates b (reflexively).
func (d *DomTree) dominates(a, b *ir.Block) bool {
	if d.rpo[b.ID] == -1 {
		return false // b unreachable
	}
	for {
		if a.ID == b.ID {
			return true
		}
		next := d.idom[b.ID]
		if next == -1 || next == b.ID {
			return false
		}
		b = d.fn.Blocks[next]
	}
}

// strictlyDominates reports whether a dominates b and a != b.
func (d *DomTree) strictlyDominates(a, b *ir.Block) bool {
	return a != b && d.dominates(a, b)
}

// InstrSDom reports whether instruction a strictly dominates instruction b
// (§3.2.2): every path from function entry to b passes through a, a != b.
// Both instructions must belong to the same function.
func (d *DomTree) InstrSDom(a, b *ir.Instr) bool {
	if a == b {
		return false
	}
	if a.Blk == b.Blk {
		return a.Idx < b.Idx
	}
	return d.strictlyDominates(a.Blk, b.Blk)
}

// PostDomTree is a postdominator tree for one function, computed on the
// reverse CFG with a virtual exit node joining all returning blocks.
type PostDomTree struct {
	fn    *ir.Func
	ipdom []int // ipdom[block ID] = immediate postdominator; -1 = virtual exit or unreachable
}

// postDominators computes the postdominator tree of f: the dominator
// tree of the reverse CFG, rooted at the virtual exit.
func postDominators(f *ir.Func) *PostDomTree {
	n := len(f.Blocks)
	succs, preds := adjacency(f)
	idom, _ := idoms(n, preds, succs)
	for i, id := range idom[:n] {
		if id == n {
			idom[i] = -1
		}
	}
	return &PostDomTree{fn: f, ipdom: idom[:n]}
}

// IPDom returns the immediate postdominator block of b, or nil if it is
// the virtual exit (i.e. b reaches function return directly).
func (p *PostDomTree) IPDom(b *ir.Block) *ir.Block {
	id := p.ipdom[b.ID]
	if id == -1 {
		return nil
	}
	return p.fn.Blocks[id]
}
