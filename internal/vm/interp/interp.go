// Package interp is the tree-walking reference interpreter for MiniC IR:
// the oracle the bytecode engine (internal/vm/bytecode) is differentially
// tested against. It deliberately stays on vm.Memory's plain Load/Store
// byte loops and ignores Hooks.StepMask. Only _test.go files import it; no
// production binary links it (CI checks both).
package interp

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/ir"
	"repro/internal/lang/sema"
	"repro/internal/lang/token"
	"repro/internal/vm"
)

// PC is an interpreter program counter.
type PC struct {
	Fn  *ir.Func
	Blk *ir.Block
	Idx int
}

// Instr returns the instruction at the PC.
func (pc PC) Instr() *ir.Instr { return pc.Blk.Instrs[pc.Idx] }

// Frame is one activation record.
type Frame struct {
	Fn       *ir.Func
	Regs     []int64
	Base     int       // first slot index within the thread stack, in words
	RetPC    PC        // caller resume point
	RetDst   int       // caller register receiving the return value, -1 if none
	CallSite *ir.Instr // nil for the bottom frame
}

// BlockReason says what a blocked thread is waiting for.
type BlockReason struct {
	MutexAddr int64 // nonzero: waiting to lock this address
	JoinTID   int   // >= 0: waiting for this thread to finish
}

// Thread is one interpreter thread. Hooks are handed the embedded
// vm.Thread.
type Thread struct {
	vm.Thread
	Frames []*Frame
	PC     PC
	State  vm.ThreadState
	Block  BlockReason

	stackTop int // words in use on this thread's stack
	Result   int64

	// retrying marks that the thread is re-executing a builtin that
	// previously blocked (lock, join). The retry is the same logical
	// execution of the instruction: it is not re-counted in the clock and
	// does not re-fire OnStep, matching how a blocking operation retires
	// exactly once on real hardware.
	retrying bool
}

func (t *Thread) top() *Frame { return t.Frames[len(t.Frames)-1] }

// VM executes one program run.
type VM struct {
	Prog *ir.Program
	Mem  *vm.Memory
	cfg  vm.Config
	rng  *rand.Rand

	Threads []*Thread
	cur     int // currently scheduled thread ID
	quantum int

	Clock  int64
	prints []string

	strAddrs      []int64 // string pool index -> address
	workloadAddrs []int64 // workload string index -> address
	nextTID       int
	fault         *vm.FailureReport
}

// New prepares a VM for prog under cfg. The program must be finalized.
func New(prog *ir.Program, cfg vm.Config) *VM {
	cfg = cfg.Normalized()
	v := &VM{
		Prog: prog,
		Mem:  vm.NewMemory(len(prog.Globals)),
		cfg:  cfg,
		rng:  rand.New(rand.NewSource(cfg.Seed)),
	}
	for _, s := range prog.Strings {
		v.strAddrs = append(v.strAddrs, v.Mem.AddString(s))
	}
	for _, s := range cfg.Workload.Strs {
		v.workloadAddrs = append(v.workloadAddrs, v.Mem.AddString(s))
	}
	for _, g := range prog.Globals {
		val := g.Init
		if g.InitStr >= 0 {
			val = v.strAddrs[g.InitStr]
		}
		// Globals region is zero-initialized; only write non-zero inits.
		if val != 0 {
			if f := v.Mem.Store(vm.GlobalsBase+int64(g.Index)*8, 8, val); f != nil {
				panic(fmt.Sprintf("global init: %v", f))
			}
		}
	}
	main := prog.FuncByName["main"]
	v.spawnThread(main, nil, -1)
	return v
}

// GlobalAddr returns the address of global index i.
func (v *VM) GlobalAddr(i int) int64 { return vm.GlobalsBase + int64(i)*8 }

// RunnableThreads reports how many threads are currently runnable — the
// reference for bytecode.Machine.RunnableThreads, which the record/replay
// baseline reads at every step.
func (v *VM) RunnableThreads() int {
	n := 0
	for _, t := range v.Threads {
		if t.State == vm.ThreadRunnable {
			n++
		}
	}
	return n
}

// spawnThread creates a thread running fn. arg, if non-nil, is stored into
// parameter slot 0.
func (v *VM) spawnThread(fn *ir.Func, arg *int64, parent int) *Thread {
	t := &Thread{Thread: vm.Thread{ID: v.nextTID, Traced: true}, State: vm.ThreadRunnable}
	v.nextTID++
	v.Mem.EnsureStack(t.ID)
	v.Threads = append(v.Threads, t)
	v.pushFrame(t, fn, nil, PC{}, -1)
	if arg != nil && fn.Params > 0 {
		addr := vm.StackAddr(t.ID, t.Frames[0].Base, 0)
		if f := v.Mem.Store(addr, 8, *arg); f != nil {
			panic(fmt.Sprintf("spawn arg store: %v", f))
		}
	}
	if v.cfg.Hooks.OnSpawn != nil && parent >= 0 {
		v.cfg.Hooks.OnSpawn(parent, t.ID, fn, v.Clock)
	}
	return t
}

func (v *VM) pushFrame(t *Thread, fn *ir.Func, callSite *ir.Instr, retPC PC, retDst int) *vm.Fault {
	if (t.stackTop+len(fn.Locals)+8)*8 >= vm.StackStride {
		return &vm.Fault{Kind: vm.FaultStackOverflow}
	}
	fr := &Frame{
		Fn:       fn,
		Regs:     make([]int64, fn.NumRegs),
		Base:     t.stackTop,
		RetPC:    retPC,
		RetDst:   retDst,
		CallSite: callSite,
	}
	// Zero the slots: freshly pushed frames see deterministic locals.
	for i := range fn.Locals {
		addr := vm.StackAddr(t.ID, fr.Base, i)
		if f := v.Mem.Store(addr, 8, 0); f != nil {
			return f
		}
	}
	t.stackTop += len(fn.Locals)
	t.Frames = append(t.Frames, fr)
	t.PC = PC{Fn: fn, Blk: fn.Entry(), Idx: 0}
	return nil
}

// stackTrace captures t's call stack, innermost first.
func (v *VM) stackTrace(t *Thread) []vm.StackEntry {
	var out []vm.StackEntry
	for i := len(t.Frames) - 1; i >= 0; i-- {
		fr := t.Frames[i]
		cs := -1
		if fr.CallSite != nil {
			cs = fr.CallSite.ID
		}
		out = append(out, vm.StackEntry{Fn: fr.Fn.Name, CallSiteID: cs})
	}
	return out
}

func (v *VM) failAt(t *Thread, in *ir.Instr, f *vm.Fault) {
	v.fault = &vm.FailureReport{
		Kind:     f.Kind,
		InstrID:  in.ID,
		Pos:      in.Pos,
		ThreadID: t.ID,
		Stack:    v.stackTrace(t),
		Msg:      f.Msg,
	}
}

// Run executes the program to completion and returns the outcome.
func Run(prog *ir.Program, cfg vm.Config) *vm.Outcome {
	return New(prog, cfg).Run()
}

// Run executes until main returns, a fault occurs, deadlock, or the step
// limit is reached.
func (v *VM) Run() *vm.Outcome {
	for {
		if v.fault != nil {
			return &vm.Outcome{Failed: true, Report: v.fault, Steps: v.Clock, Prints: v.prints}
		}
		if v.Threads[0].State == vm.ThreadDone {
			return &vm.Outcome{Exit: v.Threads[0].Result, Steps: v.Clock, Prints: v.prints}
		}
		if v.Clock >= v.cfg.MaxSteps {
			t := v.Threads[v.cur]
			in := v.currentInstrOf(t)
			v.fault = &vm.FailureReport{
				Kind: vm.FaultHang, InstrID: in.ID, Pos: in.Pos, ThreadID: t.ID,
				Stack: v.stackTrace(t), Msg: "step limit exceeded",
			}
			continue
		}
		t := v.schedule()
		if t == nil {
			// All threads blocked: deadlock. Attribute it to a thread
			// blocked on a mutex (a participant of the lock cycle) rather
			// than to a joiner waiting on a victim.
			var bt *Thread
			for _, th := range v.Threads {
				if th.State != vm.ThreadBlocked {
					continue
				}
				if th.Block.MutexAddr != 0 {
					bt = th
					break
				}
				if bt == nil {
					bt = th
				}
			}
			if bt == nil {
				// Main is not done but nothing is runnable or blocked;
				// treat as clean exit of a detached world.
				return &vm.Outcome{Exit: 0, Steps: v.Clock, Prints: v.prints}
			}
			in := v.currentInstrOf(bt)
			var others []int
			for _, th := range v.Threads {
				if th != bt && th.State == vm.ThreadBlocked && th.Block.MutexAddr != 0 {
					others = append(others, v.currentInstrOf(th).ID)
				}
			}
			v.fault = &vm.FailureReport{
				Kind: vm.FaultDeadlock, InstrID: in.ID, Pos: in.Pos, ThreadID: bt.ID,
				Stack: v.stackTrace(bt), Msg: "all threads blocked", OtherPCs: others,
			}
			continue
		}
		v.step(t)
	}
}

func (v *VM) currentInstrOf(t *Thread) *ir.Instr {
	if len(t.Frames) == 0 || t.PC.Blk == nil {
		return v.Prog.Instrs[0]
	}
	return t.PC.Instr()
}

// schedule picks the thread to run next, honoring the preemption quantum.
func (v *VM) schedule() *Thread {
	var runnable []*Thread
	for _, t := range v.Threads {
		if t.State == vm.ThreadRunnable {
			runnable = append(runnable, t)
		}
	}
	if len(runnable) == 0 {
		return nil
	}
	cur := v.Threads[v.cur]
	if cur.State == vm.ThreadRunnable && v.quantum > 0 {
		v.quantum--
		return cur
	}
	next := runnable[v.rng.Intn(len(runnable))]
	v.quantum = 1 + v.rng.Intn(2*v.cfg.PreemptMean)
	if next.ID != v.cur {
		if v.cfg.Hooks.OnSchedule != nil {
			v.cfg.Hooks.OnSchedule(v.cur, next.ID, v.Clock)
		}
		v.cur = next.ID
	}
	return next
}

// eval resolves an operand against t's top frame.
func (v *VM) eval(t *Thread, val ir.Value) int64 {
	switch val.Kind {
	case ir.ValConst:
		return val.Int
	case ir.ValReg:
		return t.top().Regs[val.Reg]
	case ir.ValFuncRef:
		return int64(v.Prog.FuncByName[val.Func].ID)
	default:
		return 0
	}
}

func (v *VM) setReg(t *Thread, reg int, val int64) {
	if reg >= 0 {
		t.top().Regs[reg] = val
	}
}

// step executes one instruction of t.
func (v *VM) step(t *Thread) {
	in := t.PC.Instr()
	if !t.retrying {
		if v.cfg.Hooks.OnStep != nil {
			v.cfg.Hooks.OnStep(&t.Thread, in, v.Clock)
		}
		v.Clock++
	}
	t.retrying = false
	advance := true
	switch in.Op {
	case ir.OpMov:
		v.setReg(t, in.Dst, v.eval(t, in.A))
	case ir.OpLocalAddr:
		v.setReg(t, in.Dst, vm.StackAddr(t.ID, t.top().Base, in.Slot))
	case ir.OpGlobalAddr:
		v.setReg(t, in.Dst, v.GlobalAddr(in.Global))
	case ir.OpStrAddr:
		v.setReg(t, in.Dst, v.strAddrs[in.Str])
	case ir.OpFieldAddr:
		v.setReg(t, in.Dst, v.eval(t, in.A)+in.Offset)
	case ir.OpIndexAddr:
		v.setReg(t, in.Dst, v.eval(t, in.A)+v.eval(t, in.B)*in.ElemSz)
	case ir.OpLoad:
		addr := v.eval(t, in.A)
		val, f := v.Mem.Load(addr, in.Size)
		if f != nil {
			v.failAt(t, in, f)
			return
		}
		v.setReg(t, in.Dst, val)
		if v.cfg.Hooks.OnLoad != nil && !vm.IsStackAddr(addr) {
			v.cfg.Hooks.OnLoad(&t.Thread, in, addr, val, in.Size, v.Clock)
		}
	case ir.OpStore:
		addr := v.eval(t, in.A)
		val := v.eval(t, in.B)
		if f := v.Mem.Store(addr, in.Size, val); f != nil {
			v.failAt(t, in, f)
			return
		}
		if v.cfg.Hooks.OnStore != nil && !vm.IsStackAddr(addr) {
			v.cfg.Hooks.OnStore(&t.Thread, in, addr, val, in.Size, v.Clock)
		}
	case ir.OpBin:
		res, f := v.binop(in.BinOp, v.eval(t, in.A), v.eval(t, in.B))
		if f != nil {
			v.failAt(t, in, f)
			return
		}
		v.setReg(t, in.Dst, res)
	case ir.OpNot:
		if v.eval(t, in.A) == 0 {
			v.setReg(t, in.Dst, 1)
		} else {
			v.setReg(t, in.Dst, 0)
		}
	case ir.OpNeg:
		v.setReg(t, in.Dst, -v.eval(t, in.A))
	case ir.OpBr:
		taken := v.eval(t, in.A) != 0
		if v.cfg.Hooks.OnBranch != nil {
			v.cfg.Hooks.OnBranch(&t.Thread, in, taken, v.Clock)
		}
		target := in.Else
		if taken {
			target = in.Then
		}
		t.PC = PC{Fn: t.PC.Fn, Blk: target, Idx: 0}
		advance = false
	case ir.OpJmp:
		t.PC = PC{Fn: t.PC.Fn, Blk: in.Then, Idx: 0}
		advance = false
	case ir.OpRet:
		v.doRet(t, in)
		advance = false
	case ir.OpCall:
		callee := v.Prog.FuncByName[in.Callee]
		retPC := PC{Fn: t.PC.Fn, Blk: t.PC.Blk, Idx: t.PC.Idx + 1}
		args := make([]int64, len(in.Args))
		for i, a := range in.Args {
			args[i] = v.eval(t, a)
		}
		if f := v.pushFrame(t, callee, in, retPC, in.Dst); f != nil {
			v.failAt(t, in, f)
			return
		}
		for i := range args {
			addr := vm.StackAddr(t.ID, t.top().Base, i)
			if f := v.Mem.Store(addr, 8, args[i]); f != nil {
				v.failAt(t, in, f)
				return
			}
		}
		if v.cfg.Hooks.OnIndirect != nil {
			v.cfg.Hooks.OnIndirect(&t.Thread, in, callee.Entry().Instrs[0], v.Clock)
		}
		advance = false
	case ir.OpCallB:
		blocked := v.builtin(t, in)
		if v.fault != nil {
			return
		}
		if blocked {
			advance = false   // re-execute when scheduled again
			t.retrying = true // ...as the same logical step
			v.quantum = 0     // give up the processor
		}
	default:
		v.failAt(t, in, &vm.Fault{Kind: vm.FaultOutOfBounds, Msg: fmt.Sprintf("bad opcode %s", in.Op)})
		return
	}
	if advance {
		t.PC.Idx++
	}
}

func (v *VM) doRet(t *Thread, in *ir.Instr) {
	fr := t.top()
	ret := int64(0)
	if !in.A.IsNil() {
		ret = v.eval(t, in.A)
	}
	t.Frames = t.Frames[:len(t.Frames)-1]
	t.stackTop = fr.Base
	if len(t.Frames) == 0 {
		t.State = vm.ThreadDone
		t.Result = ret
		v.wakeJoiners(t.ID)
		return
	}
	if v.cfg.Hooks.OnIndirect != nil && fr.RetPC.Blk != nil && fr.RetPC.Idx < len(fr.RetPC.Blk.Instrs) {
		v.cfg.Hooks.OnIndirect(&t.Thread, in, fr.RetPC.Instr(), v.Clock)
	}
	t.PC = fr.RetPC
	v.setReg(t, fr.RetDst, ret)
}

func (v *VM) wakeJoiners(tid int) {
	for _, th := range v.Threads {
		if th.State == vm.ThreadBlocked && th.Block.MutexAddr == 0 && th.Block.JoinTID == tid {
			th.State = vm.ThreadRunnable
			th.Block = BlockReason{JoinTID: -1}
		}
	}
}

func (v *VM) binop(op token.Kind, a, b int64) (int64, *vm.Fault) {
	switch op {
	case token.PLUS:
		return a + b, nil
	case token.MINUS:
		return a - b, nil
	case token.STAR:
		return a * b, nil
	case token.SLASH:
		if b == 0 {
			return 0, &vm.Fault{Kind: vm.FaultDivZero}
		}
		return a / b, nil
	case token.PERCENT:
		if b == 0 {
			return 0, &vm.Fault{Kind: vm.FaultDivZero}
		}
		return a % b, nil
	case token.EQ:
		return b2i(a == b), nil
	case token.NE:
		return b2i(a != b), nil
	case token.LT:
		return b2i(a < b), nil
	case token.LE:
		return b2i(a <= b), nil
	case token.GT:
		return b2i(a > b), nil
	case token.GE:
		return b2i(a >= b), nil
	default:
		return 0, &vm.Fault{Kind: vm.FaultOutOfBounds, Msg: fmt.Sprintf("bad binary op %s", op)}
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// builtin executes a builtin call. It returns true if the thread blocked
// (the PC must not advance).
func (v *VM) builtin(t *Thread, in *ir.Instr) bool {
	args := make([]int64, len(in.Args))
	for i, a := range in.Args {
		args[i] = v.eval(t, a)
	}
	switch in.Builtin {
	case sema.BuiltinMalloc:
		addr, f := v.Mem.Malloc(args[0])
		if f != nil {
			v.failAt(t, in, f)
			return false
		}
		v.setReg(t, in.Dst, addr)
	case sema.BuiltinFree:
		if f := v.Mem.Free(args[0]); f != nil {
			v.failAt(t, in, f)
			return false
		}
	case sema.BuiltinSpawn:
		fn := v.Prog.FuncByName[in.Args[0].Func]
		child := v.spawnThread(fn, &args[1], t.ID)
		v.setReg(t, in.Dst, int64(child.ID))
		if v.cfg.Hooks.OnIndirect != nil {
			v.cfg.Hooks.OnIndirect(&t.Thread, in, fn.Entry().Instrs[0], v.Clock)
		}
	case sema.BuiltinJoin:
		tid := int(args[0])
		if tid >= 0 && tid < len(v.Threads) && v.Threads[tid].State != vm.ThreadDone {
			t.State = vm.ThreadBlocked
			t.Block = BlockReason{JoinTID: tid}
			return true
		}
	case sema.BuiltinLock:
		addr := args[0]
		owner, f := v.Mem.Load(addr, 8)
		if f != nil {
			v.failAt(t, in, f)
			return false
		}
		if owner != 0 {
			t.State = vm.ThreadBlocked
			t.Block = BlockReason{MutexAddr: addr, JoinTID: -1}
			return true
		}
		if f := v.Mem.Store(addr, 8, int64(t.ID)+1); f != nil {
			v.failAt(t, in, f)
			return false
		}
	case sema.BuiltinUnlock:
		addr := args[0]
		if _, f := v.Mem.Load(addr, 8); f != nil {
			v.failAt(t, in, f)
			return false
		}
		if f := v.Mem.Store(addr, 8, 0); f != nil {
			v.failAt(t, in, f)
			return false
		}
		// Wake threads waiting on this mutex; they retry their lock.
		for _, th := range v.Threads {
			if th.State == vm.ThreadBlocked && th.Block.MutexAddr == addr {
				th.State = vm.ThreadRunnable
				th.Block = BlockReason{JoinTID: -1}
			}
		}
	case sema.BuiltinAssert:
		if args[0] == 0 {
			v.failAt(t, in, &vm.Fault{Kind: vm.FaultAssert, Msg: "assert failed"})
			return false
		}
	case sema.BuiltinPrint:
		parts := make([]string, len(args))
		for i, a := range args {
			parts[i] = fmt.Sprintf("%d", a)
		}
		v.prints = append(v.prints, strings.Join(parts, " "))
	case sema.BuiltinPrints:
		s, f := v.Mem.LoadCString(args[0])
		if f != nil {
			v.failAt(t, in, f)
			return false
		}
		v.prints = append(v.prints, s)
	case sema.BuiltinStrlen:
		s, f := v.Mem.LoadCString(args[0])
		if f != nil {
			v.failAt(t, in, f)
			return false
		}
		v.setReg(t, in.Dst, int64(len(s)))
	case sema.BuiltinInput:
		i := int(args[0])
		var val int64
		if i >= 0 && i < len(v.cfg.Workload.Ints) {
			val = v.cfg.Workload.Ints[i]
		}
		v.setReg(t, in.Dst, val)
	case sema.BuiltinInputStr:
		i := int(args[0])
		var addr int64
		if i >= 0 && i < len(v.workloadAddrs) {
			addr = v.workloadAddrs[i]
		}
		v.setReg(t, in.Dst, addr)
	case sema.BuiltinYield:
		v.quantum = 0
	default:
		v.failAt(t, in, &vm.Fault{Kind: vm.FaultOutOfBounds, Msg: fmt.Sprintf("bad builtin %s", in.Callee)})
		return false
	}
	return false
}
