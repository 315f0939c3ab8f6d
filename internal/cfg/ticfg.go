package cfg

import (
	"fmt"
	"strings"

	"repro/internal/ir"
	"repro/internal/lang/sema"
)

// TICFG is the thread interprocedural control flow graph of §3.1: the
// per-function CFGs connected by call/return edges (ICFG), further
// augmented with thread-creation and thread-join edges. A thread-creation
// edge is treated like a callsite whose target is the thread start
// routine; a join edge connects the routine's returns back to the join
// site. The TICFG overapproximates all dynamic control flow the program
// can exhibit.
type TICFG struct {
	Prog *ir.Program

	// CallEdges maps a call instruction ID to its callee.
	CallEdges map[int]*ir.Func
	// SpawnEdges maps a spawn instruction ID to the thread start routine.
	SpawnEdges map[int]*ir.Func
	// JoinEdges maps a join instruction ID to the routines whose
	// termination it may observe. Without value tracking for thread IDs
	// this is the set of all spawned routines — the same
	// overapproximation the paper accepts statically and later corrects
	// with runtime information.
	JoinEdges map[int][]*ir.Func
	// Callsites lists, per function, the call/spawn instruction IDs that
	// can transfer control into it.
	Callsites map[*ir.Func][]int
	// Rets lists, per function, its return instructions.
	Rets map[*ir.Func][]*ir.Instr

	// Dom and PDom are per-function dominator and postdominator trees,
	// shared by the slicer and the instrumentation planner.
	Dom  map[*ir.Func]*DomTree
	PDom map[*ir.Func]*PostDomTree
}

// BuildTICFG computes the TICFG and the per-function dominance trees.
func BuildTICFG(p *ir.Program) *TICFG {
	g := &TICFG{
		Prog:       p,
		CallEdges:  make(map[int]*ir.Func),
		SpawnEdges: make(map[int]*ir.Func),
		JoinEdges:  make(map[int][]*ir.Func),
		Callsites:  make(map[*ir.Func][]int),
		Rets:       make(map[*ir.Func][]*ir.Instr),
		Dom:        make(map[*ir.Func]*DomTree),
		PDom:       make(map[*ir.Func]*PostDomTree),
	}
	var spawned []*ir.Func
	for _, in := range p.Instrs {
		switch in.Op {
		case ir.OpCall:
			callee := p.FuncByName[in.Callee]
			if callee != nil {
				g.CallEdges[in.ID] = callee
				g.Callsites[callee] = append(g.Callsites[callee], in.ID)
			}
		case ir.OpCallB:
			if in.Builtin == sema.BuiltinSpawn {
				target := p.FuncByName[p.SpawnTargets[in.ID]]
				if target != nil {
					g.SpawnEdges[in.ID] = target
					g.Callsites[target] = append(g.Callsites[target], in.ID)
					spawned = append(spawned, target)
				}
			}
		case ir.OpRet:
			g.Rets[in.Blk.Fn] = append(g.Rets[in.Blk.Fn], in)
		}
	}
	for _, in := range p.Instrs {
		if in.Op == ir.OpCallB && in.Builtin == sema.BuiltinJoin {
			g.JoinEdges[in.ID] = append([]*ir.Func(nil), spawned...)
		}
	}
	for _, f := range p.Funcs {
		g.Dom[f] = Dominators(f)
		g.PDom[f] = PostDominators(f)
	}
	return g
}

// RetValues returns the operands that a call to f may return — the
// getRetValues step of Algorithm 1 (intraprocedural: collect the returned
// operands of every ret in f).
func (g *TICFG) RetValues(f *ir.Func) []ir.Value {
	var vals []ir.Value
	for _, ret := range g.Rets[f] {
		if !ret.A.IsNil() {
			vals = append(vals, ret.A)
		}
	}
	return vals
}

// ArgValues returns, for parameter index argIdx of f, the operand passed
// at every callsite (and spawn site) of f — the getArgValues step of
// Algorithm 1. For spawn sites, parameter 0 of the start routine receives
// the spawn call's second argument.
func (g *TICFG) ArgValues(f *ir.Func, argIdx int) []struct {
	Site *ir.Instr
	Val  ir.Value
} {
	var out []struct {
		Site *ir.Instr
		Val  ir.Value
	}
	for _, siteID := range g.Callsites[f] {
		site := g.Prog.Instrs[siteID]
		var v ir.Value
		switch site.Op {
		case ir.OpCall:
			if argIdx < len(site.Args) {
				v = site.Args[argIdx]
			}
		case ir.OpCallB: // spawn
			if argIdx == 0 && len(site.Args) == 2 {
				v = site.Args[1]
			}
		}
		if !v.IsNil() {
			out = append(out, struct {
				Site *ir.Instr
				Val  ir.Value
			}{site, v})
		}
	}
	return out
}

// String summarizes the graph for diagnostics.
func (g *TICFG) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "TICFG of %s:\n", g.Prog.Name)
	for id, f := range g.CallEdges {
		fmt.Fprintf(&b, "  call %%%d -> %s\n", id, f.Name)
	}
	for id, f := range g.SpawnEdges {
		fmt.Fprintf(&b, "  spawn %%%d -> %s\n", id, f.Name)
	}
	for id, fs := range g.JoinEdges {
		names := make([]string, len(fs))
		for i, f := range fs {
			names[i] = f.Name
		}
		fmt.Fprintf(&b, "  join %%%d <- {%s}\n", id, strings.Join(names, ", "))
	}
	return b.String()
}
