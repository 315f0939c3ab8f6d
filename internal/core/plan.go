// Package core implements Gist, the failure-sketching engine — the
// paper's primary contribution. It combines the static backward slice
// (package slicer) with cooperative, adaptive runtime tracking:
//
//   - plan.go places Intel PT start/stop instrumentation around the
//     tracked slice portion using predecessor-block analysis with the
//     strict-dominator and immediate-postdominator optimizations of
//     §3.2.2, and selects the shared-memory accesses to watch (§3.2.3);
//   - client.go is the endpoint runtime that applies a plan to a
//     production run and returns compressed traces;
//   - predict.go extracts failure predictors from failing and successful
//     runs and ranks them statistically (§3.3);
//   - sketch.go assembles and renders failure sketches and computes the
//     accuracy metrics of §5.2;
//   - gist.go is the server: failure matching, adaptive slice tracking
//     (σ doubling, §3.2.1), refinement, and the overall loop of Fig. 2.
package core

import (
	"fmt"
	"sort"

	"repro/internal/cfg"
	"repro/internal/hw/watch"
	"repro/internal/ir"
	"repro/internal/slicer"
	"repro/internal/telemetry"
)

// Features gates Gist's three tracking techniques, enabling the Fig. 10
// ablation (static slicing only / + control flow / + data flow).
//
// ExtendedPT switches data-flow tracking from hardware watchpoints to the
// hypothetical PT extension of §6 that carries data addresses and values
// in the trace (the shape Intel later shipped as PTWRITE): every shared
// access inside a traced region is logged as a PTW packet with a TSC for
// cross-core order. There is no debug-register budget and hence no
// cooperative partitioning; the per-event cost is a packet write instead
// of a ptrace trap. It requires ControlFlow (data packets exist only
// within traced regions).
type Features struct {
	Static      bool
	ControlFlow bool
	DataFlow    bool
	ExtendedPT  bool
}

// AllFeatures enables the full system.
func AllFeatures() Features { return Features{Static: true, ControlFlow: true, DataFlow: true} }

// Plan is the instrumentation a client applies to one production run.
// Runs share a plan across goroutines, and it is read-only once
// BuildPlan returns.
type Plan struct {
	Prog    *ir.Program
	Feats   Features
	Tracked []int // tracked slice-window instruction IDs

	// A plan is two tables indexed by instruction ID (the bytecode compiler
	// guarantees ID == code index), which is what the client and the
	// engine's step mask read: the software stand-in for PT address
	// filters and debug registers costing nothing outside the tracked
	// window (§3.2.2–3.2.3).
	//
	// stepFlags[id] has planStart set where PT is enabled on reaching the
	// instruction (instrumentation inserted in each predecessor basic
	// block, or at the statement itself for entry-block statements), and
	// planStopAfter where PT is disabled right after it retires and before
	// its immediate postdominator (the FUP anchor is the instruction
	// itself); nil without control-flow tracking.
	stepFlags []uint8
	// watchClass[id] is, for a tracked shared-memory access, the rank of
	// its static location class among the plan's sorted class names, and
	// -1 for every other instruction: when such an access executes, the
	// client arms a hardware watchpoint on the accessed address, one debug
	// register per class (a watchpoint watches "the variable", not every
	// address a walk touches). Classes are packed into watch groups in
	// that order, NumRegisters to a group, so class k belongs to group
	// k/NumRegisters and arms that endpoint's debug register
	// k%NumRegisters. Nil without watched accesses.
	watchClass []int32
	// groups is the number of watch groups: endpoint k uses group
	// k mod groups, the cooperative case where the tracked accesses need
	// more than the available debug registers.
	groups int

	// Telemetry, when set by the server, receives the client-side phase
	// spans (run execution, PT decode, trap collection) of every run
	// executed under this plan. Purely observational; nil is fine and
	// costs nothing.
	Telemetry *telemetry.Tracer

	// exec is Config.exec, copied here by the campaign: the test-only
	// engine seam (see exec in engine.go).
	exec execFunc
}

// stepFlags bits.
const (
	planStart     uint8 = 1 << iota // enable PT on reaching the instruction
	planStopAfter                   // disable PT once the instruction has retired
)

// BuildPlan computes the instrumentation plan for the tracked window.
func BuildPlan(g *cfg.TICFG, tracked []int, feats Features) *Plan {
	p := &Plan{
		Prog:    g.Prog,
		Feats:   feats,
		Tracked: append([]int(nil), tracked...),
	}
	if feats.ControlFlow {
		p.stepFlags = make([]uint8, len(p.Prog.Instrs))
		p.planControlFlow(g)
	}
	if feats.DataFlow {
		p.planDataFlow()
	}
	return p
}

// planControlFlow places PT start/stop points (§3.2.2, Fig. 4).
func (p *Plan) planControlFlow(g *cfg.TICFG) {
	// Group tracked instructions by function, in flow order (reverse
	// postorder of blocks, then index within block).
	byFn := make(map[*ir.Func][]*ir.Instr)
	for _, id := range p.Tracked {
		in := p.Prog.Instrs[id]
		byFn[in.Blk.Fn] = append(byFn[in.Blk.Fn], in)
	}
	for fn, instrs := range byFn {
		dom := g.Dom[fn]
		sort.Slice(instrs, func(i, j int) bool {
			a, b := instrs[i], instrs[j]
			if a.Blk != b.Blk {
				return dom.Order(a.Blk) < dom.Order(b.Blk)
			}
			return a.Idx < b.Idx
		})
		for i, s := range instrs {
			// Optimization I (sdom): if the previously processed tracked
			// statement strictly dominates s, tracing — which only stops
			// when the previous statement fails to dominate its successor
			// (optimization II below) — is still on when execution reaches
			// s, so no start instrumentation is needed. Looking only at
			// the immediately preceding statement is what keeps the
			// coverage claim sound: a stop can never sit between a
			// dominating predecessor and s.
			covered := i > 0 && dom.InstrSDom(instrs[i-1], s) && p.stepFlags[instrs[i-1].ID]&planStopAfter == 0
			if !covered {
				p.addStarts(g, s)
			}
			// Optimization II (ipdom): stop tracking right after s unless
			// s strictly dominates the next tracked statement, in which
			// case tracking must stay on through it.
			stop := true
			if i+1 < len(instrs) && dom.InstrSDom(s, instrs[i+1]) {
				stop = false
			}
			if stop {
				p.stepFlags[s.ID] |= planStopAfter
			}
		}
	}
}

// addStarts registers trace-enable points for statement s: the terminator
// of each predecessor basic block (the branch into s's block is then the
// first recorded event). Entry-block statements have no intra-function
// predecessors (their predecessors are callsites/spawn sites); tracing is
// anchored at the statement itself — the tightest point that still
// captures its execution — so unrelated work earlier in the function
// (calls, warm-up loops) stays untraced.
func (p *Plan) addStarts(g *cfg.TICFG, s *ir.Instr) {
	blk := s.Blk
	if blk == blk.Fn.Entry() || len(blk.Preds) == 0 {
		p.stepFlags[s.ID] |= planStart
		return
	}
	for _, pred := range blk.Preds {
		if t := pred.Terminator(); t != nil {
			p.stepFlags[t.ID] |= planStart
		}
	}
	// A block reached by fallthrough from a call return inside it is not
	// possible in this IR (calls are not terminators), so predecessor
	// terminators cover all intra-function entries.
}

// planDataFlow selects the shared-memory accesses to watch and builds the
// cooperative partition (§3.2.3).
//
// Accesses are first grouped into static *location classes* — a cheap
// approximation of "same memory location": accesses to the same global,
// or through the same struct-field offset. Classes, not individual
// instructions, are then packed into watch groups of at most
// watch.NumRegisters, because all accesses in a class share debug
// registers at runtime. Only when there are more classes than registers
// does cooperative partitioning split the work across endpoints (the
// paper notes it never hit this case in practice).
func (p *Plan) planDataFlow() {
	var roots slicer.Roots
	classes := make(map[string][]int)
	for _, id := range p.Tracked {
		in := p.Prog.Instrs[id]
		if !in.IsMemAccess() {
			continue
		}
		root := roots.Of(in)
		if !root.Shared() {
			continue
		}
		cls := addrClass(&roots, root, in)
		classes[cls] = append(classes[cls], id)
	}
	if len(classes) == 0 {
		return
	}
	var names []string
	for cls := range classes {
		names = append(names, cls)
	}
	sort.Strings(names)
	p.watchClass = make([]int32, len(p.Prog.Instrs))
	for id := range p.watchClass {
		p.watchClass[id] = -1
	}
	for k, cls := range names {
		for _, id := range classes[cls] {
			p.watchClass[id] = int32(k)
		}
	}
	p.groups = (len(names) + watch.NumRegisters - 1) / watch.NumRegisters
}

// addrClass names the static location class of a shared access with the
// given root: the global it touches, or the field offset / element shape
// it goes through.
func addrClass(roots *slicer.Roots, root slicer.AddrRoot, in *ir.Instr) string {
	if root.Kind == slicer.RootGlobal {
		return fmt.Sprintf("g:%d", root.Global)
	}
	// Dynamic: classify by the address-producing instruction.
	if in.A.Kind == ir.ValReg {
		if def := roots.SingleDef(in.Blk.Fn, in.A.Reg); def != nil {
			switch def.Op {
			case ir.OpFieldAddr:
				return fmt.Sprintf("fld:%d", def.Offset)
			case ir.OpIndexAddr:
				return fmt.Sprintf("idx:%d", def.ElemSz)
			}
		}
	}
	return "dyn"
}

// groupOf returns the watch-group index endpoint k is assigned to, or
// -1 when the plan has no watch groups. A replacement run re-seeded for
// a lost endpoint keeps the endpoint's ID and therefore its group, so
// cooperative partitioning coverage survives fleet losses.
func (p *Plan) groupOf(endpoint int) int {
	if p.groups == 0 {
		return -1
	}
	return endpoint % p.groups
}

// watchRegister returns which of watch group grp's debug registers
// instruction id's location class arms, or a value >= watch.NumRegisters
// when id is not one of that group's watched accesses. Only meaningful
// on a plan with watch groups.
func (p *Plan) watchRegister(id, grp int) uint32 {
	return uint32(p.watchClass[id] - int32(grp*watch.NumRegisters))
}
