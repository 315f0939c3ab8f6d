package bytecode

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/ir"
	"repro/internal/vm"
)

// frame is one activation record. Registers live in the thread's flat
// regs array at [base, base+numRegs); locals live in the thread's stack
// memory at word [memBase, memBase+nLocals). callSite is the code index
// (== ir.Instr.ID) of the call, -1 for the bottom frame: a call is never
// a terminator, so the caller resumes at callSite+1, and the return
// value goes to code[callSite].dst.
type frame struct {
	fn       int32
	base     int32
	memBase  int32
	callSite int32
}

// thread is one VM thread. All slices are reused across runs: a reset
// truncates, it never reallocates.
type thread struct {
	vm.Thread // the hooks' view: ID and the consumer's Traced bit

	state      vm.ThreadState
	blockMutex int64 // nonzero: waiting to lock this address
	blockJoin  int   // >= 0: waiting for this thread to finish
	pc         int32
	frames     []frame
	regs       []int64
	regsTop    int32
	stack      []byte // this thread's region of the address space, whole
	stackTop   int32  // words in use on this thread's stack
	result     int64
	retrying   bool
	credit     int64 // steps run ahead of the clock (see runThread)
}

// Machine executes one run at a time of a compiled program. It is NOT
// safe for concurrent use; Program.Run hands each caller a spare
// Machine. All per-run state is reset, not reallocated, so a warm
// Machine's hot loop allocates only what the program itself demands
// (heap growth, print strings).
type Machine struct {
	prog *Program
	mem  *vm.Memory
	cfg  vm.Config

	// The scheduler's randomness and the constants of its two draws (see
	// sched.go): Intn(2*PreemptMean) for a quantum, and pick[n-1] for the
	// Intn(n) among n runnable threads, for every n this machine has seen.
	rng     alfg
	preempt intnConsts
	pick    []intnConsts

	threads    []*thread
	threadPool []*thread
	runnable   []*thread // the runnable threads, by ascending ID
	cur        int
	quantum    int // the interpreter's quantum: steps of cur's decision after the next
	clock      int64
	ahead      int64 // the threads' credit, summed
	noSkip     bool  // a silent re-run or a recording: never skip

	prints        []string
	workloadAddrs []int64
	args          []int64 // call-argument scratch (consumed before any reentry)
	fault         *vm.FailureReport
	skips         int // calls of pure functions this run did not execute (skipCall)
}

// NewMachine returns a cold machine for p. Its address space comes
// with its first run, and it keeps it for the next.
func NewMachine(p *Program) *Machine {
	return &Machine{prog: p}
}

// reset prepares the machine for a fresh run under cfg, producing a
// state indistinguishable from a newly built interpreter VM: zeroed
// globals with initializers reapplied, the program string blob, workload
// strings appended in order, the seeded RNG, and thread 0 entering
// funcs[entry] — main, except in a recording of a pure call.
func (m *Machine) reset(cfg vm.Config, entry int32) {
	m.cfg = cfg.Normalized()
	m.rng.seed(cfg.Seed)
	m.preempt = newIntn(2 * m.cfg.PreemptMean)
	if m.mem == nil {
		m.mem = vm.NewMemory(m.prog.nGlobals)
	} else {
		m.mem.Reset(m.prog.nGlobals)
	}
	m.mem.SetStringBlob(m.prog.strBlob)
	m.workloadAddrs = m.workloadAddrs[:0]
	for _, s := range cfg.Workload.Strs {
		m.workloadAddrs = append(m.workloadAddrs, m.mem.AddString(s))
	}
	for _, gi := range m.prog.inits {
		if f := m.mem.Store(gi.addr, 8, gi.val); f != nil {
			panic(fmt.Sprintf("global init: %v", f))
		}
	}
	m.threadPool = append(m.threadPool, m.threads...)
	m.threads = m.threads[:0]
	m.runnable = m.runnable[:0]
	m.cur = 0
	m.quantum = 0
	m.clock = 0
	m.ahead = 0
	m.noSkip = false
	m.prints = m.prints[:0]
	m.fault = nil
	m.skips = 0
	m.spawnThread(entry, nil, -1)
}

// Run resets the machine and executes to completion.
func (m *Machine) Run(cfg vm.Config) *vm.Outcome {
	m.reset(cfg, m.prog.mainIdx)
	return m.run()
}

func (m *Machine) getThread() *thread {
	if n := len(m.threadPool); n > 0 {
		t := m.threadPool[n-1]
		m.threadPool = m.threadPool[:n-1]
		return t
	}
	return &thread{}
}

// spawnThread creates a thread running funcs[fnIdx]; arg, if non-nil, is
// stored into parameter slot 0. Hook order matches the interpreter:
// OnSpawn fires here, the caller's setReg/OnIndirect follow.
func (m *Machine) spawnThread(fnIdx int32, arg *int64, parent int) *thread {
	t := m.getThread()
	tid := len(m.threads)
	m.mem.EnsureStack(tid)
	*t = thread{
		Thread:    vm.Thread{ID: tid, Traced: true}, // first step always reaches OnStep
		state:     vm.ThreadRunnable,
		blockJoin: -1,
		frames:    t.frames[:0],
		regs:      t.regs[:0],
		stack:     m.mem.Stack(tid),
	}
	m.threads = append(m.threads, t)
	m.runnable = append(m.runnable, t) // the highest ID so far
	if len(m.pick) < len(m.threads) {
		m.pick = append(m.pick, newIntn(len(m.threads)))
	}
	m.pushFrame(t, fnIdx, -1)
	fi := &m.prog.funcs[fnIdx]
	if arg != nil && fi.params > 0 {
		addr := vm.StackAddr(tid, 0, 0)
		if f := m.mem.Store(addr, 8, *arg); f != nil {
			panic(fmt.Sprintf("spawn arg store: %v", f))
		}
	}
	if m.cfg.Hooks.OnSpawn != nil && parent >= 0 {
		m.cfg.Hooks.OnSpawn(parent, tid, fi.ir, m.clock)
	}
	return t
}

// frameFits is the interpreter's overflow pre-check: whether a frame of
// nLocals slots fits on a stack stackTop words deep.
func frameFits(stackTop, nLocals int32) bool {
	return (int(stackTop)+int(nLocals)+8)*8 < vm.StackStride
}

// pushFrame enters funcs[fnIdx] on t. The overflow pre-check guarantees
// the local-zeroing cannot fault.
func (m *Machine) pushFrame(t *thread, fnIdx, callSite int32) *vm.Fault {
	fi := &m.prog.funcs[fnIdx]
	if !frameFits(t.stackTop, fi.nLocals) {
		return &vm.Fault{Kind: vm.FaultStackOverflow}
	}
	base := t.regsTop
	need := int(base) + int(fi.numRegs)
	if need <= cap(t.regs) {
		t.regs = t.regs[:need]
		clear(t.regs[base:])
	} else {
		grown := make([]int64, need, need*2+16)
		copy(grown, t.regs[:base])
		t.regs = grown
	}
	t.regsTop = int32(need)
	if fi.nLocals > 0 {
		m.mem.ZeroStackWords(t.ID, int(t.stackTop), int(fi.nLocals))
	}
	t.frames = append(t.frames, frame{fn: fnIdx, base: base, memBase: t.stackTop, callSite: callSite})
	t.stackTop += fi.nLocals
	t.pc = fi.entry
	return nil
}

// stackTrace is nil, as on the interpreter, for a thread with no frames:
// a hang is pinned on the current thread even when it has just exited.
func (m *Machine) stackTrace(t *thread) []vm.StackEntry {
	if len(t.frames) == 0 {
		return nil
	}
	out := make([]vm.StackEntry, 0, len(t.frames))
	for i := len(t.frames) - 1; i >= 0; i-- {
		fr := &t.frames[i]
		out = append(out, vm.StackEntry{
			Fn: m.prog.funcs[fr.fn].ir.Name, CallSiteID: int(fr.callSite),
		})
	}
	return out
}

func (m *Machine) failAt(t *thread, pc int32, f *vm.Fault) {
	in := m.prog.ir.Instrs[pc]
	m.fault = &vm.FailureReport{
		Kind:     f.Kind,
		InstrID:  in.ID,
		Pos:      in.Pos,
		ThreadID: t.ID,
		Stack:    m.stackTrace(t),
		Msg:      f.Msg,
	}
}

// currentPCOf mirrors VM.currentInstrOf: a thread with no frames is
// attributed to instruction 0.
func (m *Machine) currentPCOf(t *thread) int32 {
	if len(t.frames) == 0 {
		return 0
	}
	return t.pc
}

func (m *Machine) outcome() *vm.Outcome {
	var prints []string
	if len(m.prints) > 0 {
		prints = make([]string, len(m.prints))
		copy(prints, m.prints)
	}
	if m.fault != nil {
		return &vm.Outcome{Failed: true, Report: m.fault, Steps: m.clock, Prints: prints}
	}
	return &vm.Outcome{Exit: m.threads[0].result, Steps: m.clock, Prints: prints}
}

// run executes until main returns, a fault occurs, deadlock, or the
// step limit is reached — the same decision order as interp.VM.Run.
func (m *Machine) run() *vm.Outcome {
	for {
		if m.fault != nil {
			return m.outcome()
		}
		if m.threads[0].state == vm.ThreadDone {
			return m.outcome()
		}
		if m.clock >= m.cfg.MaxSteps {
			t := m.threads[m.cur]
			if t.credit > 0 {
				// Charged into the step limit: t's pc is ahead of where
				// the interpreter stops. The re-run stops there too.
				m.rerun(m.clock)
				continue
			}
			pc := m.currentPCOf(t)
			in := m.prog.ir.Instrs[pc]
			m.fault = &vm.FailureReport{
				Kind: vm.FaultHang, InstrID: in.ID, Pos: in.Pos, ThreadID: t.ID,
				Stack: m.stackTrace(t), Msg: "step limit exceeded",
			}
			continue
		}
		t := m.schedule()
		if m.clock >= m.cfg.MaxSteps {
			continue
		}
		if t == nil {
			// All threads blocked: deadlock. Attribute it to a thread
			// blocked on a mutex rather than a joiner, as the
			// interpreter does.
			var bt *thread
			for _, th := range m.threads {
				if th.state != vm.ThreadBlocked {
					continue
				}
				if th.blockMutex != 0 {
					bt = th
					break
				}
				if bt == nil {
					bt = th
				}
			}
			if bt == nil {
				return m.outcome()
			}
			in := m.prog.ir.Instrs[m.currentPCOf(bt)]
			var others []int
			for _, th := range m.threads {
				if th != bt && th.state == vm.ThreadBlocked && th.blockMutex != 0 {
					others = append(others, m.prog.ir.Instrs[m.currentPCOf(th)].ID)
				}
			}
			m.fault = &vm.FailureReport{
				Kind: vm.FaultDeadlock, InstrID: in.ID, Pos: in.Pos, ThreadID: bt.ID,
				Stack: m.stackTrace(bt), Msg: "all threads blocked", OtherPCs: others,
			}
			continue
		}
		m.runThread(t)
	}
}

// doRet returns from t's top frame; onIndirect, if not nil, sees the
// return to a caller at clock.
func (m *Machine) doRet(t *thread, pc int32, in *instr, onIndirect func(*vm.Thread, *ir.Instr, *ir.Instr, int64), clock int64) {
	fr := t.frames[len(t.frames)-1]
	ret := int64(0)
	if in.sz == 1 {
		ret = opVal(t.regs[fr.base:], m.prog.consts, in.a)
	}
	t.frames = t.frames[:len(t.frames)-1]
	t.stackTop = fr.memBase
	t.regsTop = fr.base
	t.regs = t.regs[:fr.base]
	if len(t.frames) == 0 {
		t.state = vm.ThreadDone
		t.result = ret
		m.park(t)
		m.wakeJoiners(t.ID)
		return
	}
	t.pc = fr.callSite + 1
	if onIndirect != nil {
		onIndirect(&t.Thread, m.prog.ir.Instrs[pc], m.prog.ir.Instrs[t.pc], clock)
	}
	t.regs[t.frames[len(t.frames)-1].base+m.prog.code[fr.callSite].dst] = ret
}

// opVal resolves an operand reference: a register of the current frame's
// window for refs >= 0, a constant-pool entry for negative refs.
func opVal(win, consts []int64, ref int32) int64 {
	if ref >= 0 {
		return win[ref]
	}
	return consts[^ref]
}

// runThread executes instructions of t until its decision is spent, it
// blocks or finishes, it faults, or the step limit is reached. Clock and
// hook semantics mirror interp.VM.step exactly: OnStep fires (and the clock
// advances) only for the first attempt of a blocking builtin, and hooks
// during execution see the post-increment clock. With Hooks.StepMask set,
// OnStep is called only where the mask or the thread's Traced bit says it
// can matter (code index == instruction ID, so the mask is indexed by
// pc), and OnBranch and OnIndirect only on a thread whose bit is set; the
// clock advances either way.
//
// The hot machine state — pc, clock, the countdown, the hooks, the
// current frame's register window and the running thread's stack — lives
// in locals for the whole quantum and is flushed at every exit (the done
// label below), so the per-instruction cost is the dispatch itself rather
// than Machine/thread field traffic. Helper calls that read that state
// through the Machine (spawnThread consults m.clock for OnSpawn) get an
// explicit flush first.
//
// left counts down the steps of t's decision after the current one, and
// t stops when it is spent. Run-ahead: a call of a pure function that
// nothing watches inside the callee is taken whole (skipCall), so clk and
// left move by the callee's recorded steps at once. When that passes the
// decision's end, left falls below zero, t stops right after the call
// and banks -left steps as credit, with clk ahead of the clock by as
// much; a skip keeps the clock plus all credit below the step limit.
// Then schedule() draws the decisions from the interpreter's clock on,
// charging credit, and the first one that t's credit does not cover in
// full either picks t again — its next step then runs at exactly the
// interpreter's clock — or switches to another thread. Every other step
// runs at the interpreter's clock.
//
// A public access that lands in the stack of a thread holding credit
// would see, or overwrite, bytes ahead of the clock; the machine then
// makes itself exact by a silent re-run (rerun) and returns. runThread
// returns to the run loop only then and when the run loop has something
// to decide: a fault, the step limit, t blocked or finished.
func (m *Machine) runThread(t *thread) {
	code := m.prog.code
	consts := m.prog.consts
	irInstrs := m.prog.ir.Instrs
	mem := m.mem
	onStep, onBranch, onIndirect := m.cfg.Hooks.OnStep, m.cfg.Hooks.OnBranch, m.cfg.Hooks.OnIndirect
	onAccess := m.cfg.Hooks.OnAccess
	// "Does OnStep see this step" is one load and one branch,
	// stepMask[pc]|traced != 0: without a consumer mask the program's
	// all-zero one stands in and traced alone decides — always 0 with no
	// OnStep, always 1 with an OnStep that set no mask — and with a mask
	// traced is the thread's Traced bit, re-read wherever it can change
	// (after an OnStep call, at a thread switch).
	stepMask, always := m.cfg.Hooks.StepMask, uint8(0)
	masked := onStep != nil && stepMask != nil
	if !masked {
		stepMask = m.prog.zeroMask
		if onStep != nil {
			always = 1
		}
	}
	maxSteps := m.cfg.MaxSteps
	pc := t.pc
	clk := m.clock
	left := m.quantum
frame:
	// One activation of one thread at a time: what this loop loads is
	// invariant in the instruction loop inside it, which carries only pc,
	// clk, left and the step test's two bits from one instruction to the
	// next. A call, a return and a schedule come back here.
	for {
		top := &t.frames[len(t.frames)-1]
		win := t.regs[top.base:]                          // the frame's registers
		locals := vm.StackAddr(t.ID, int(top.memBase), 0) // and the address of its slot 0
		// A load or store inside [stackLo, stackLo+len(stack)) is the
		// running thread's own and goes straight to the slice; anything
		// else — other threads' stacks, shared memory, every faulting
		// access — goes through mem's Load and Store, as the
		// interpreter's every access does.
		stack, stackLo := t.stack, vm.StackAddr(t.ID, 0, 0)
		traced := t.stepBit(always, masked)
		retrying := t.retrying
		t.retrying = false
		for {
			if !retrying {
				if stepMask[pc]|traced != 0 {
					onStep(&t.Thread, irInstrs[pc], clk)
					traced = t.stepBit(always, masked)
				}
				clk++
			} else {
				retrying = false
			}
			// ip is this instruction; pc already names the next one, and a
			// control transfer below overwrites it.
			ip := pc
			in := &code[ip]
			pc++
			switch in.op {
			case opMov:
				win[in.dst] = opVal(win, consts, in.a)
			case opLocalAddr:
				win[in.dst] = locals + in.imm*8
			case opFieldAddr:
				win[in.dst] = opVal(win, consts, in.a) + in.imm
			case opIndexAddr:
				win[in.dst] = opVal(win, consts, in.a) + opVal(win, consts, in.b)*in.imm
			case opLoad:
				addr := opVal(win, consts, in.a)
				var val int64
				if off, n := uint64(addr-stackLo), uint64(len(stack)); off < n && off+uint64(in.sz) <= n {
					if in.sz == 8 {
						val = int64(binary.LittleEndian.Uint64(stack[off:]))
					} else {
						val = int64(stack[off])
					}
				} else {
					if m.stale(addr, int64(in.sz)) {
						m.rerun(clk)
						return
					}
					var f *vm.Fault
					if val, f = mem.Load(addr, int64(in.sz)); f != nil {
						m.failAt(t, ip, f)
						goto done
					}
					if onAccess != nil && !vm.IsStackAddr(addr) {
						onAccess(&t.Thread, irInstrs[ip], addr, val, int64(in.sz), false, clk)
					}
				}
				win[in.dst] = val
			case opStore:
				addr := opVal(win, consts, in.a)
				val := opVal(win, consts, in.b)
				if off, n := uint64(addr-stackLo), uint64(len(stack)); off < n && off+uint64(in.sz) <= n {
					if in.sz == 8 {
						binary.LittleEndian.PutUint64(stack[off:], uint64(val))
					} else {
						stack[off] = byte(val)
					}
				} else {
					if m.stale(addr, int64(in.sz)) {
						m.rerun(clk)
						return
					}
					if f := mem.Store(addr, int64(in.sz), val); f != nil {
						m.failAt(t, ip, f)
						goto done
					}
					if onAccess != nil && !vm.IsStackAddr(addr) {
						onAccess(&t.Thread, irInstrs[ip], addr, val, int64(in.sz), true, clk)
					}
				}
			case opAdd:
				win[in.dst] = opVal(win, consts, in.a) + opVal(win, consts, in.b)
			case opSub:
				win[in.dst] = opVal(win, consts, in.a) - opVal(win, consts, in.b)
			case opMul:
				win[in.dst] = opVal(win, consts, in.a) * opVal(win, consts, in.b)
			case opDiv:
				b := opVal(win, consts, in.b)
				if b == 0 {
					m.failAt(t, ip, &vm.Fault{Kind: vm.FaultDivZero})
					goto done
				}
				win[in.dst] = opVal(win, consts, in.a) / b
			case opMod:
				b := opVal(win, consts, in.b)
				if b == 0 {
					m.failAt(t, ip, &vm.Fault{Kind: vm.FaultDivZero})
					goto done
				}
				win[in.dst] = opVal(win, consts, in.a) % b
			case opEq:
				win[in.dst] = b2i(opVal(win, consts, in.a) == opVal(win, consts, in.b))
			case opNe:
				win[in.dst] = b2i(opVal(win, consts, in.a) != opVal(win, consts, in.b))
			case opLt:
				win[in.dst] = b2i(opVal(win, consts, in.a) < opVal(win, consts, in.b))
			case opLe:
				win[in.dst] = b2i(opVal(win, consts, in.a) <= opVal(win, consts, in.b))
			case opGt:
				win[in.dst] = b2i(opVal(win, consts, in.a) > opVal(win, consts, in.b))
			case opGe:
				win[in.dst] = b2i(opVal(win, consts, in.a) >= opVal(win, consts, in.b))
			case opNot:
				win[in.dst] = b2i(opVal(win, consts, in.a) == 0)
			case opNeg:
				win[in.dst] = -opVal(win, consts, in.a)
			case opBr:
				taken := opVal(win, consts, in.a) != 0
				if onBranch != nil && (traced != 0 || !masked) {
					onBranch(&t.Thread, irInstrs[ip], taken, clk)
				}
				if taken {
					pc = in.p
				} else {
					pc = in.q
				}
			case opJmp:
				pc = in.p
			case opRet:
				ind := onIndirect
				if masked && traced == 0 {
					ind = nil
				}
				m.doRet(t, ip, in, ind, clk)
				if len(t.frames) == 0 {
					goto done // thread finished; currentPCOf ignores pc
				}
				pc = t.pc
				if clk < maxSteps && left > 0 {
					left--
					continue frame
				}
				// Otherwise the checks below stop or schedule, and that
				// reloads the frame as well.
			case opCall:
				ind := onIndirect
				if masked && traced == 0 {
					ind = nil
				}
				argN := int(in.imm)
				args := m.args[:0]
				for k := 0; k < argN; k++ {
					args = append(args, opVal(win, consts, m.prog.argRefs[int(in.q)+k]))
				}
				m.args = args
				if traced == 0 && ind == nil && (masked || onBranch == nil) {
					// Nothing sees inside the callee: if it is pure, its
					// steps are taken as recorded, and the checks below
					// bank what passes the decision's end as credit.
					if steps, ret, ok := m.skipCall(t, in.p, args, clk, stepMask); ok {
						win[in.dst] = ret
						clk += steps
						left -= int(steps)
						break
					}
				}
				if f := m.pushFrame(t, in.p, ip); f != nil {
					m.failAt(t, ip, f)
					goto done
				}
				newBase := t.frames[len(t.frames)-1].memBase
				for k := 0; k < argN; k++ {
					addr := vm.StackAddr(t.ID, int(newBase), k)
					if f := mem.Store(addr, 8, args[k]); f != nil {
						m.failAt(t, ip, f)
						goto done
					}
				}
				if ind != nil {
					ind(&t.Thread, irInstrs[ip], irInstrs[m.prog.funcs[in.p].entry], clk)
				}
				pc = t.pc
				if clk < maxSteps && left > 0 {
					left--
					continue frame
				}
			case opMalloc:
				addr, f := mem.Malloc(opVal(win, consts, in.a))
				if f != nil {
					m.failAt(t, ip, f)
					goto done
				}
				win[in.dst] = addr
			case opFree:
				if f := mem.Free(opVal(win, consts, in.a)); f != nil {
					m.failAt(t, ip, f)
					goto done
				}
			case opSpawn:
				arg := opVal(win, consts, in.a)
				m.clock = clk // spawnThread's OnSpawn hook reads m.clock
				child := m.spawnThread(in.p, &arg, t.ID)
				win[in.dst] = int64(child.ID)
				if onIndirect != nil && (traced != 0 || !masked) {
					onIndirect(&t.Thread, irInstrs[ip], irInstrs[m.prog.funcs[in.p].entry], clk)
				}
			case opJoin:
				tid := int(opVal(win, consts, in.a))
				if tid >= 0 && tid < len(m.threads) && m.threads[tid].state != vm.ThreadDone {
					t.state = vm.ThreadBlocked
					t.blockMutex = 0
					t.blockJoin = tid
					m.park(t)
					goto blocked
				}
			case opLock:
				addr := opVal(win, consts, in.a)
				if m.stale(addr, 8) {
					m.rerun(clk)
					return
				}
				owner, f := mem.Load(addr, 8)
				if f != nil {
					m.failAt(t, ip, f)
					goto done
				}
				if owner != 0 {
					t.state = vm.ThreadBlocked
					t.blockMutex = addr
					t.blockJoin = -1
					m.park(t)
					goto blocked
				}
				if f := mem.Store(addr, 8, int64(t.ID)+1); f != nil {
					m.failAt(t, ip, f)
					goto done
				}
			case opUnlock:
				addr := opVal(win, consts, in.a)
				if m.stale(addr, 8) {
					m.rerun(clk)
					return
				}
				if _, f := mem.Load(addr, 8); f != nil {
					m.failAt(t, ip, f)
					goto done
				}
				if f := mem.Store(addr, 8, 0); f != nil {
					m.failAt(t, ip, f)
					goto done
				}
				for _, th := range m.threads {
					if th.state == vm.ThreadBlocked && th.blockMutex == addr {
						m.wake(th)
					}
				}
			case opAssert:
				if opVal(win, consts, in.a) == 0 {
					m.failAt(t, ip, &vm.Fault{Kind: vm.FaultAssert, Msg: "assert failed"})
					goto done
				}
			case opPrint:
				argN := int(in.q)
				parts := make([]string, argN)
				for k := 0; k < argN; k++ {
					parts[k] = strconv.FormatInt(opVal(win, consts, m.prog.argRefs[int(in.p)+k]), 10)
				}
				m.prints = append(m.prints, strings.Join(parts, " "))
			case opPrints, opStrlen:
				addr := opVal(win, consts, in.a)
				s, f := mem.LoadCString(addr)
				// The bytes the scan looked at, or, when it faulted, any up
				// to its 64 KiB bound.
				span := int64(len(s)) + 1
				if f != nil {
					span = 1 << 16
				}
				if m.stale(addr, span) {
					m.rerun(clk)
					return
				}
				if f != nil {
					m.failAt(t, ip, f)
					goto done
				}
				if in.op == opPrints {
					m.prints = append(m.prints, s)
				} else {
					win[in.dst] = int64(len(s))
				}
			case opInput:
				i := int(opVal(win, consts, in.a))
				var val int64
				if i >= 0 && i < len(m.cfg.Workload.Ints) {
					val = m.cfg.Workload.Ints[i]
				}
				win[in.dst] = val
			case opInputStr:
				i := int(opVal(win, consts, in.a))
				var addr int64
				if i >= 0 && i < len(m.workloadAddrs) {
					addr = m.workloadAddrs[i]
				}
				win[in.dst] = addr
			case opYield:
				left = 0 // the decision ends here
			case opFail:
				m.failAt(t, ip, &vm.Fault{Kind: vm.FaultOutOfBounds, Msg: m.prog.failMsgs[in.p]})
				goto done
			}
			if clk >= maxSteps {
				goto done
			}
			if left <= 0 {
				break
			}
			left--
		}
		// t's decision is spent, and a skipped call may have carried it
		// past the end: bank that as credit and let the scheduler catch
		// the clock up.
		t.pc = pc
		t.credit = int64(-left)
		m.ahead += t.credit
		m.clock = clk - t.credit
		m.quantum = 0
		next := m.schedule()
		if m.clock >= maxSteps {
			return
		}
		pc, clk, left = next.pc, m.clock, m.quantum
		t = next
	}
blocked:
	pc--              // the pre-increment: the instruction re-executes
	t.retrying = true // ...as the same logical step
done:
	// t blocked, finished, faulted or hit the step limit, never ahead of
	// the clock. A quantum left over is the interpreter's.
	t.pc = pc
	m.clock = clk
	m.quantum = left
}

// stepBit is what t's Traced bit adds to runThread's step test: always
// when the consumer set no mask (0 without an OnStep, 1 with one), the
// bit itself under a mask.
func (t *thread) stepBit(always uint8, masked bool) uint8 {
	if masked && t.Traced {
		return 1
	}
	return always
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// RunProgram compiles prog and executes one run — the convenience path
// for tests and tools. Production paths compile once via
// analysis.Bytecode and call Program.Run.
func RunProgram(prog *ir.Program, cfg vm.Config) *vm.Outcome {
	out, _ := Compile(prog).Run(cfg)
	return out
}
