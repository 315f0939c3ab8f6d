// Package slicer implements Gist's interprocedural, path-insensitive,
// flow-sensitive static backward slicing (Algorithm 1 of the paper).
//
// Given the failing instruction, the slicer computes the set of program
// instructions that may affect it, walking:
//
//   - register def-use chains within functions,
//   - named-memory def-use chains (globals and locals, purely syntactic),
//   - interprocedural edges of the TICFG: return values of called
//     functions (getRetValues) and arguments at callsites, including
//     spawn sites for thread start routines (getArgValues),
//   - control dependences (the branches that decide whether an
//     instruction executes).
//
// Exactly like the paper (§3.1), the slicer uses *no alias analysis*:
// loads and stores through pointers (heap fields, array elements) are not
// connected statically; the pointer's computation enters the slice, but
// matching stores do not. Runtime data-flow tracking with hardware
// watchpoints discovers those statements and refinement adds them to the
// slice (§3.2.3) — that division of labor is the heart of the design.
package slicer

import (
	"sort"

	"repro/internal/cfg"
	"repro/internal/ir"
)

// Slice is a static backward slice rooted at a failing instruction.
type Slice struct {
	Prog      *ir.Program
	FailingID int

	// IDs holds the slice's instruction IDs in ascending (program text)
	// order — the flow-sensitive presentation order.
	IDs []int
	// Discovery holds the same instructions in worklist discovery order:
	// dependence-wise closest to the failure first. Adaptive slice
	// tracking windows are taken in this order.
	Discovery []int

	member map[int]bool
}

// Contains reports whether instruction id is in the slice.
func (s *Slice) Contains(id int) bool { return s.member[id] }

// InstrCount returns the slice size in IR instructions.
func (s *Slice) InstrCount() int { return len(s.IDs) }

// SourceLines returns the distinct source lines of the slice in discovery
// order (closest to the failure first).
func (s *Slice) SourceLines() []int {
	var lines []int
	seen := make(map[int]bool)
	for _, id := range s.Discovery {
		ln := s.Prog.Instrs[id].Pos.Line
		if ln > 0 && !seen[ln] {
			seen[ln] = true
			lines = append(lines, ln)
		}
	}
	return lines
}

// LineCount returns the slice size in source lines.
func (s *Slice) LineCount() int { return len(s.SourceLines()) }

// Window returns the instruction IDs of the first sigma source lines of
// the slice in discovery order — the portion adaptive slice tracking
// monitors at runtime (§3.2.1). The failing statement's line is always
// part of the window.
func (s *Slice) Window(sigma int) []int {
	lines := s.SourceLines()
	if sigma > len(lines) {
		sigma = len(lines)
	}
	want := make(map[int]bool, sigma)
	for _, ln := range lines[:sigma] {
		want[ln] = true
	}
	var ids []int
	for _, id := range s.IDs {
		if want[s.Prog.Instrs[id].Pos.Line] {
			ids = append(ids, id)
		}
	}
	return ids
}

// Clone returns an independent copy of the slice. The analysis cache
// hands out clones because refinement (§3.2.3) mutates the slice a
// diagnosis works on, and the memoized master must stay pristine.
func (s *Slice) Clone() *Slice {
	c := &Slice{
		Prog:      s.Prog,
		FailingID: s.FailingID,
		IDs:       append([]int(nil), s.IDs...),
		Discovery: append([]int(nil), s.Discovery...),
		member:    make(map[int]bool, len(s.member)),
	}
	for id := range s.member {
		c.member[id] = true
	}
	return c
}

// Add inserts an instruction discovered at runtime (refinement, §3.2.3)
// into the slice. It reports whether the instruction was new.
func (s *Slice) Add(id int) bool {
	if s.member[id] {
		return false
	}
	s.member[id] = true
	s.Discovery = append(s.Discovery, id)
	s.IDs = append(s.IDs, id)
	sort.Ints(s.IDs)
	return true
}

// ---------------------------------------------------------------- items

// Items mirror Algorithm 1's work-set elements.
type regItem struct {
	fn  *ir.Func
	reg int
}

type localItem struct {
	fn   *ir.Func
	slot int
}

type globalItem struct{ idx int }

// AddrRootKind classifies what a memory access's address resolves to
// statically.
type AddrRootKind int

// Address root kinds.
const (
	RootDynamic AddrRootKind = iota // pointer-based: unresolvable without alias analysis
	RootGlobal
	RootLocal
)

// AddrRoot is the static resolution of an access's address operand.
type AddrRoot struct {
	Kind   AddrRootKind
	Global int // for RootGlobal
	Fn     *ir.Func
	Slot   int // for RootLocal
}

type slicerState struct {
	g    *cfg.TICFG
	prog *ir.Program

	slice *Slice

	// defs[fn][reg] = instructions defining reg in fn.
	defs map[*ir.Func]map[int][]*ir.Instr
	// ctrlDeps[block] = branch instructions the block is control-dependent on.
	ctrlDeps map[*ir.Block][]*ir.Instr
	// storesTo indexes Store instructions by their static address root.
	globalStores map[int][]*ir.Instr
	localStores  map[*ir.Func]map[int][]*ir.Instr

	work     []any
	inWork   map[any]bool
	maxItems int
}

// Compute builds the backward slice of the program rooted at failingID.
func Compute(g *cfg.TICFG, failingID int) *Slice {
	st := &slicerState{
		g:            g,
		prog:         g.Prog,
		slice:        &Slice{Prog: g.Prog, FailingID: failingID, member: make(map[int]bool)},
		defs:         make(map[*ir.Func]map[int][]*ir.Instr),
		ctrlDeps:     make(map[*ir.Block][]*ir.Instr),
		globalStores: make(map[int][]*ir.Instr),
		localStores:  make(map[*ir.Func]map[int][]*ir.Instr),
		inWork:       make(map[any]bool),
		maxItems:     1 << 20,
	}
	st.buildIndexes()
	failing := st.prog.Instrs[failingID]
	st.addInstr(failing)
	st.pushInstrDeps(failing)
	for len(st.work) > 0 && st.maxItems > 0 {
		st.maxItems--
		item := st.work[len(st.work)-1]
		st.work = st.work[:len(st.work)-1]
		st.processItem(item)
	}
	sort.Ints(st.slice.IDs)
	return st.slice
}

func (st *slicerState) buildIndexes() {
	for _, f := range st.prog.Funcs {
		st.defs[f] = make(map[int][]*ir.Instr)
		st.localStores[f] = make(map[int][]*ir.Instr)
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Dst >= 0 {
					st.defs[f][in.Dst] = append(st.defs[f][in.Dst], in)
				}
				if in.Op == ir.OpStore {
					root := st.RootOf(in)
					switch root.Kind {
					case RootGlobal:
						st.globalStores[root.Global] = append(st.globalStores[root.Global], in)
					case RootLocal:
						st.localStores[f][root.Slot] = append(st.localStores[f][root.Slot], in)
					}
				}
			}
		}
		st.buildCtrlDeps(f)
	}
}

// buildCtrlDeps computes classic control dependence: block B is control
// dependent on branch A iff A has a successor S from which B is reachable
// with B postdominating S, while B does not postdominate A itself.
func (st *slicerState) buildCtrlDeps(f *ir.Func) {
	pdom := st.g.PDom[f]
	for _, a := range f.Blocks {
		term := a.Terminator()
		if term == nil || term.Op != ir.OpBr {
			continue
		}
		for _, s := range a.Succs() {
			// Walk the postdominator tree from s up to (exclusive)
			// ipdom(a); every block on the way is control dependent on a.
			runner := s
			stop := pdom.IPDom(a)
			for runner != nil && runner != stop {
				st.ctrlDeps[runner] = append(st.ctrlDeps[runner], term)
				runner = pdom.IPDom(runner)
			}
		}
	}
}

// RootOf statically resolves the address operand of a Load/Store. The
// address register is always a fresh temporary with a single definition
// in our IR, so a one-step walk suffices.
func (st *slicerState) RootOf(in *ir.Instr) AddrRoot {
	return rootOf(st.defs[in.Blk.Fn], in)
}

// rootOf resolves in's address against its function's definitions
// (register -> defining instructions).
func rootOf(defs map[int][]*ir.Instr, in *ir.Instr) AddrRoot {
	if in.A.Kind != ir.ValReg {
		return AddrRoot{Kind: RootDynamic}
	}
	d := defs[in.A.Reg]
	if len(d) != 1 {
		return AddrRoot{Kind: RootDynamic}
	}
	switch d[0].Op {
	case ir.OpGlobalAddr:
		return AddrRoot{Kind: RootGlobal, Global: d[0].Global}
	case ir.OpLocalAddr:
		return AddrRoot{Kind: RootLocal, Fn: in.Blk.Fn, Slot: d[0].Slot}
	default:
		return AddrRoot{Kind: RootDynamic}
	}
}

// funcDefs indexes fn's instructions by the register they define.
func funcDefs(fn *ir.Func) map[int][]*ir.Instr {
	defs := make(map[int][]*ir.Instr)
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			if in.Dst >= 0 {
				defs[in.Dst] = append(defs[in.Dst], in)
			}
		}
	}
	return defs
}

// Roots resolves address roots for the planner, which needs the same
// resolution as the slicer to decide which accesses are shared-memory
// accesses. It indexes a function's definitions the first time one of
// that function's instructions is asked about, so classifying a whole
// tracked window costs one pass per function, not one per instruction.
// The zero value is ready to use.
type Roots struct {
	defs map[*ir.Func]map[int][]*ir.Instr
}

func (r *Roots) funcDefs(fn *ir.Func) map[int][]*ir.Instr {
	defs, ok := r.defs[fn]
	if !ok {
		if r.defs == nil {
			r.defs = make(map[*ir.Func]map[int][]*ir.Instr)
		}
		defs = funcDefs(fn)
		r.defs[fn] = defs
	}
	return defs
}

// Of resolves the address operand of a Load/Store.
func (r *Roots) Of(in *ir.Instr) AddrRoot { return rootOf(r.funcDefs(in.Blk.Fn), in) }

// SingleDef returns the unique instruction defining reg in fn, or nil.
func (r *Roots) SingleDef(fn *ir.Func, reg int) *ir.Instr {
	if d := r.funcDefs(fn)[reg]; len(d) == 1 {
		return d[0]
	}
	return nil
}

// RootOf resolves one instruction's address root.
func RootOf(g *cfg.TICFG, in *ir.Instr) AddrRoot {
	var r Roots
	return r.Of(in)
}

func (st *slicerState) push(item any) {
	if st.inWork[item] {
		return
	}
	st.inWork[item] = true
	st.work = append(st.work, item)
}

func (st *slicerState) pushVal(fn *ir.Func, v ir.Value) {
	if v.Kind == ir.ValReg {
		st.push(regItem{fn, v.Reg})
	}
}

// addInstr admits an instruction into the slice and pulls in the branches
// it is control-dependent on.
func (st *slicerState) addInstr(in *ir.Instr) {
	if st.slice.member[in.ID] {
		return
	}
	st.slice.member[in.ID] = true
	st.slice.Discovery = append(st.slice.Discovery, in.ID)
	st.slice.IDs = append(st.slice.IDs, in.ID)
	for _, br := range st.ctrlDeps[in.Blk] {
		if !st.slice.member[br.ID] {
			st.addInstr(br)
			st.pushInstrDeps(br)
		}
	}
}

// pushInstrDeps pushes the work-set items feeding an instruction —
// Algorithm 1's getItems/isSource step.
func (st *slicerState) pushInstrDeps(in *ir.Instr) {
	fn := in.Blk.Fn
	switch in.Op {
	case ir.OpLoad:
		root := st.RootOf(in)
		switch root.Kind {
		case RootGlobal:
			st.push(globalItem{root.Global})
		case RootLocal:
			st.push(localItem{root.Fn, root.Slot})
		}
		// The address computation itself is always relevant (for dynamic
		// roots it is all we have — the pointer's provenance).
		st.pushVal(fn, in.A)
	case ir.OpStore:
		st.pushVal(fn, in.A)
		st.pushVal(fn, in.B)
	case ir.OpCall:
		callee := st.g.CallEdges[in.ID]
		if callee != nil {
			for _, ret := range st.g.Rets[callee] {
				st.addInstr(ret)
				st.pushInstrDeps(ret)
			}
		}
		for _, a := range in.Args {
			st.pushVal(fn, a)
		}
	case ir.OpCallB:
		for _, a := range in.Args {
			st.pushVal(fn, a)
		}
	case ir.OpBr, ir.OpRet, ir.OpMov, ir.OpNot, ir.OpNeg, ir.OpJmp:
		st.pushVal(fn, in.A)
	case ir.OpBin, ir.OpIndexAddr:
		st.pushVal(fn, in.A)
		st.pushVal(fn, in.B)
	case ir.OpFieldAddr:
		st.pushVal(fn, in.A)
	case ir.OpLocalAddr, ir.OpGlobalAddr, ir.OpStrAddr:
		// Leaves: no inputs.
	}
}

func (st *slicerState) processItem(item any) {
	switch it := item.(type) {
	case regItem:
		for _, def := range st.defs[it.fn][it.reg] {
			st.addInstr(def)
			st.pushInstrDeps(def)
		}
	case localItem:
		for _, store := range st.localStores[it.fn][it.slot] {
			st.addInstr(store)
			st.pushInstrDeps(store)
		}
		if it.slot < it.fn.Params {
			// Parameter: flow in from every callsite (and spawn site).
			for _, av := range st.g.ArgValues(it.fn, it.slot) {
				st.addInstr(av.Site)
				st.pushVal(av.Site.Blk.Fn, av.Val)
				// Spawn payloads: the spawn's own operands are pulled in
				// by pushInstrDeps at the site.
				st.pushInstrDeps(av.Site)
			}
		}
	case globalItem:
		for _, store := range st.globalStores[it.idx] {
			st.addInstr(store)
			st.pushInstrDeps(store)
		}
	}
}

// SharedAccess reports whether a Load/Store instruction touches
// potentially shared memory: a global, or anything reached through a
// pointer (heap). Stack slots are excluded, as Gist never watches the
// stack (§3.2.3, §6).
func SharedAccess(g *cfg.TICFG, in *ir.Instr) bool {
	return in.IsMemAccess() && RootOf(g, in).Shared()
}

// Shared reports whether the root is potentially shared memory (see
// SharedAccess).
func (r AddrRoot) Shared() bool { return r.Kind != RootLocal }
