package bytecode

import (
	"encoding/binary"
	"slices"
	"sync"

	"repro/internal/vm"
)

// Pure leaf calls. A pure function (isPure) reads and writes nothing but
// its own frame, so what a call of it does — the steps from its entry
// through its return, the value it returns and the bytes its frame holds
// at the return — depends on its arguments alone: not on the thread, the
// frame's base or anything another thread does. A program records that
// once per (callee, arguments), by running the call as the only thread of
// a silent run (record), and a later call that nothing can watch inside
// the callee takes the record instead of executing it (skipCall): the
// frame bytes land where the callee's frame would have been, the return
// value in the caller's register, and the callee's steps are banked as
// run-ahead credit for the scheduler to charge decision by decision.
// Memory stays byte-identical to the interpreter's, which leaves a
// returned frame's bytes in place, and so does every hook and the clock.

const (
	leafArgs    = 4       // arguments a recorded call may take
	leafEntries = 256     // recorded calls per program
	leafSteps   = 1 << 20 // steps a recording may take
)

// leafKey names one call: the callee and its arguments, zero-padded.
type leafKey struct {
	fn   int32
	args [leafArgs]int64
}

// leafRun is what one call did: its steps, from the callee's entry
// through its return, the value it returned, and its frame's bytes.
type leafRun struct {
	steps, ret int64
	frame      []byte
}

// leaves is a program's record of pure calls. A nil run marks a call
// that faults or takes more than leafSteps steps: it executes as code.
type leaves struct {
	mu   sync.Mutex
	runs map[leafKey]*leafRun
}

// isPure reports whether code, one function's, touches nothing but its
// own frame of nLocals slots: it calls nothing and uses no builtin, and
// every load and store is addressed by a register that only LocalAddr
// writes, with a slot inside the frame, and that nothing
// else reads — so no slot's address is stored, compared, computed with
// or returned, and the frame's bytes are the same at any base. Division
// by zero is left to the recording.
func isPure(code []instr, numRegs, nLocals int32) bool {
	if !frameFits(0, nLocals) {
		return false // the recording's frame must fit
	}
	slot := make([]bool, numRegs) // the register holds a slot's address
	for _, in := range code {
		if in.op == opLocalAddr {
			if in.imm < 0 || in.imm >= int64(nLocals) || in.dst >= numRegs {
				return false
			}
			slot[in.dst] = true
		}
	}
	isSlot := func(ref int32) bool { return ref >= 0 && ref < numRegs && slot[ref] }
	for _, in := range code {
		switch in.op {
		case opLocalAddr:
			continue
		case opLoad:
			if !isSlot(in.a) {
				return false
			}
		case opStore:
			if !isSlot(in.a) || isSlot(in.b) {
				return false
			}
		case opMov, opNot, opNeg, opFieldAddr, opBr:
			if isSlot(in.a) {
				return false
			}
		case opIndexAddr, opAdd, opSub, opMul, opDiv, opMod, opEq, opNe, opLt, opLe, opGt, opGe:
			if isSlot(in.a) || isSlot(in.b) {
				return false
			}
		case opRet:
			if in.sz == 1 && isSlot(in.a) {
				return false
			}
		case opJmp:
		default:
			return false
		}
		if in.dst >= numRegs || isSlot(in.dst) {
			return false
		}
	}
	return true
}

// skipCall makes t's call of funcs[fn] with args, at clk, without
// executing the callee, where nothing can tell: the callee is pure, the
// thread's step test is clear (the caller checks that, and that no
// OnBranch or OnIndirect consumer is installed unless a mask silences
// them), no mask flag falls inside the callee, the run is neither a
// silent re-run nor a recording (which never run ahead), the frame fits,
// and the callee's steps keep the clock plus all credit below the step
// limit. It writes the callee's frame bytes where its frame would be and
// returns the callee's steps and return value; ok is false when the call
// must execute.
func (m *Machine) skipCall(t *thread, fn int32, args []int64, clk int64, stepMask []uint8) (steps, ret int64, ok bool) {
	fi := &m.prog.funcs[fn]
	if !fi.pure || m.noSkip || len(args) > leafArgs || len(args) > int(fi.params) ||
		!frameFits(t.stackTop, fi.nLocals) ||
		slices.ContainsFunc(stepMask[fi.entry:fi.end], func(f uint8) bool { return f != 0 }) {
		return 0, 0, false
	}
	r := m.prog.leaf(fn, args)
	if r == nil || clk+r.steps+m.ahead >= m.cfg.MaxSteps {
		return 0, 0, false
	}
	copy(t.stack[int(t.stackTop)*8:], r.frame)
	m.skips++
	return r.steps, r.ret, true
}

// leaf returns what the call of funcs[fn] with args does, recording it
// on a miss, or nil when the call must execute: it faults or runs too
// long, or the record is full and it is not in it.
func (p *Program) leaf(fn int32, args []int64) *leafRun {
	k := leafKey{fn: fn}
	copy(k.args[:], args)
	l := &p.leaves
	l.mu.Lock()
	r, ok := l.runs[k]
	full := len(l.runs) >= leafEntries
	l.mu.Unlock()
	if ok || full {
		return r
	}
	r = p.record(fn, args) // outside the lock: a recording may take 2²⁰ steps
	l.mu.Lock()
	if l.runs == nil {
		l.runs = make(map[leafKey]*leafRun)
	}
	if len(l.runs) < leafEntries {
		l.runs[k] = r
	}
	l.mu.Unlock()
	return r
}

// record runs funcs[fn] with args as the only thread of a silent run on
// a spare machine, never ahead, and returns what it did, or nil if it
// faulted or hit leafSteps.
func (p *Program) record(fn int32, args []int64) *leafRun {
	r, _ := acquire(p)
	defer r.release()
	r.reset(vm.Config{MaxSteps: leafSteps, PreemptMean: leafSteps}, fn)
	r.noSkip = true
	stack := r.mem.Stack(0)
	for k, a := range args {
		binary.LittleEndian.PutUint64(stack[k*8:], uint64(a))
	}
	r.run()
	if r.fault != nil {
		return nil
	}
	return &leafRun{
		steps: r.clock,
		ret:   r.threads[0].result,
		frame: slices.Clone(stack[:p.funcs[fn].nLocals*8]),
	}
}
