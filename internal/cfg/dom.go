// Package cfg provides the control-flow analyses Gist's static phase is
// built on: dominator and postdominator trees for each function, and the
// thread interprocedural control flow graph (TICFG) of §3.1 — the ICFG
// augmented with thread creation and join edges — which the backward
// slicer and the instrumentation planner both traverse.
package cfg

import "repro/internal/ir"

// DomTree is a dominator tree for one function, computed with the
// iterative algorithm of Cooper, Harvey and Kennedy over a reverse
// postorder of the CFG.
type DomTree struct {
	fn   *ir.Func
	idom []int // idom[block ID] = immediate dominator's block ID; entry maps to itself; -1 = unreachable
	rpo  []int // rpo[block ID] = reverse-postorder number
}

// dominators computes the dominator tree of f.
func dominators(f *ir.Func) *DomTree {
	order := postorder(f.Entry(), func(b *ir.Block) []*ir.Block { return b.Succs() })
	return &DomTree{fn: f, idom: buildIdom(len(f.Blocks), order, blockPreds)}
}

// blockPreds adapts ir.Block predecessor lists.
func blockPreds(b *ir.Block) []*ir.Block { return b.Preds }

// postorder returns blocks in postorder of the graph rooted at entry,
// following succ for edges.
func postorder(entry *ir.Block, succ func(*ir.Block) []*ir.Block) []*ir.Block {
	var order []*ir.Block
	seen := make(map[*ir.Block]bool)
	var visit func(b *ir.Block)
	visit = func(b *ir.Block) {
		if seen[b] {
			return
		}
		seen[b] = true
		for _, s := range succ(b) {
			visit(s)
		}
		order = append(order, b)
	}
	visit(entry)
	return order
}

// buildIdom runs the CHK iterative dominator algorithm.
// order is a postorder of reachable blocks (entry last).
func buildIdom(numBlocks int, order []*ir.Block, preds func(*ir.Block) []*ir.Block) []int {
	idom := make([]int, numBlocks)
	for i := range idom {
		idom[i] = -1
	}
	if len(order) == 0 {
		return idom
	}
	// Reverse postorder numbering.
	rpoNum := make([]int, numBlocks)
	for i := range rpoNum {
		rpoNum[i] = -1
	}
	for i, b := range order {
		rpoNum[b.ID] = len(order) - 1 - i
	}
	entry := order[len(order)-1]
	idom[entry.ID] = entry.ID

	intersect := func(a, b int) int {
		for a != b {
			for rpoNum[a] > rpoNum[b] {
				a = idom[a]
			}
			for rpoNum[b] > rpoNum[a] {
				b = idom[b]
			}
		}
		return a
	}

	changed := true
	for changed {
		changed = false
		// Process in reverse postorder (skip entry).
		for i := len(order) - 2; i >= 0; i-- {
			b := order[i]
			newIdom := -1
			for _, p := range preds(b) {
				if idom[p.ID] == -1 {
					continue // unreachable or not yet processed
				}
				if newIdom == -1 {
					newIdom = p.ID
				} else {
					newIdom = intersect(newIdom, p.ID)
				}
			}
			if newIdom != -1 && idom[b.ID] != newIdom {
				idom[b.ID] = newIdom
				changed = true
			}
		}
	}
	return idom
}

// dominates reports whether a dominates b (reflexively).
func (d *DomTree) dominates(a, b *ir.Block) bool {
	if d.idom[b.ID] == -1 && b.ID != d.fn.Entry().ID {
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

// postDominators computes the postdominator tree of f.
func postDominators(f *ir.Func) *PostDomTree {
	n := len(f.Blocks)
	// Virtual exit is node n. Build reverse graph adjacency.
	succs := make([][]int, n+1)
	preds := make([][]int, n+1)
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
	// Postorder of the *reverse* graph rooted at virtual exit: edges are
	// preds.
	var order []int
	seen := make([]bool, n+1)
	var visit func(u int)
	visit = func(u int) {
		if seen[u] {
			return
		}
		seen[u] = true
		for _, p := range preds[u] {
			visit(p)
		}
		order = append(order, u)
	}
	visit(n)

	idom := make([]int, n+1)
	for i := range idom {
		idom[i] = -1
	}
	rpoNum := make([]int, n+1)
	for i := range rpoNum {
		rpoNum[i] = -1
	}
	for i, u := range order {
		rpoNum[u] = len(order) - 1 - i
	}
	idom[n] = n
	intersect := func(a, b int) int {
		for a != b {
			for rpoNum[a] > rpoNum[b] {
				a = idom[a]
			}
			for rpoNum[b] > rpoNum[a] {
				b = idom[b]
			}
		}
		return a
	}
	changed := true
	for changed {
		changed = false
		for i := len(order) - 2; i >= 0; i-- {
			u := order[i]
			newIdom := -1
			// "preds" in the reverse graph are the successors in the
			// forward graph.
			for _, s := range succs[u] {
				if idom[s] == -1 {
					continue
				}
				if newIdom == -1 {
					newIdom = s
				} else {
					newIdom = intersect(newIdom, s)
				}
			}
			if newIdom != -1 && idom[u] != newIdom {
				idom[u] = newIdom
				changed = true
			}
		}
	}
	pt := &PostDomTree{fn: f, ipdom: make([]int, n)}
	for i := 0; i < n; i++ {
		if idom[i] == -1 || idom[i] == n {
			pt.ipdom[i] = -1
		} else {
			pt.ipdom[i] = idom[i]
		}
	}
	return pt
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
