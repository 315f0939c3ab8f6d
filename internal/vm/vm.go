package vm

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"

	"repro/internal/ir"
	"repro/internal/lang/sema"
	"repro/internal/lang/token"
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

// ThreadState enumerates scheduler states.
type ThreadState int

// Thread states.
const (
	ThreadRunnable ThreadState = iota
	ThreadBlocked
	ThreadDone
)

// BlockReason says what a blocked thread is waiting for.
type BlockReason struct {
	MutexAddr int64 // nonzero: waiting to lock this address
	JoinTID   int   // >= 0: waiting for this thread to finish
}

// Thread is one VM thread.
type Thread struct {
	ID     int
	Frames []*Frame
	PC     PC
	State  ThreadState
	Block  BlockReason

	stackTop int // words in use on this thread's stack
	Result   int64

	// Traced is the hook consumer's per-thread "tracing is on" bit, the
	// other half of Hooks.StepMask: an engine that honours the mask calls
	// OnStep at every step of a thread whose bit is set. The consumer
	// writes it from inside OnStep; engines only read it.
	Traced bool

	// retrying marks that the thread is re-executing a builtin that
	// previously blocked (lock, join). The retry is the same logical
	// execution of the instruction: it is not re-counted in the clock and
	// does not re-fire OnStep, matching how a blocking operation retires
	// exactly once on real hardware.
	retrying bool
}

func (t *Thread) top() *Frame { return t.Frames[len(t.Frames)-1] }

// StackEntry is one level of a captured call stack.
type StackEntry struct {
	Fn         string
	CallSiteID int // instruction ID of the callsite into Fn; -1 for the bottom frame
}

// FailureReport describes a failed run: the failure kind, the failing
// instruction (the paper's "statement where the failure manifests
// itself"), and the stack trace. Reports with equal IDs are "the same
// failure" for the purposes of cooperative aggregation (the paper matches
// program counters and stack traces).
type FailureReport struct {
	Kind     FaultKind
	InstrID  int
	Pos      token.Position
	ThreadID int
	Stack    []StackEntry
	Msg      string

	// OtherPCs are the current instructions of the other blocked threads
	// when the failure is a deadlock — a crash dump carries every
	// thread's stack, and for deadlocks the cycle's other participants
	// are part of the failure identity and of the slice roots.
	OtherPCs []int
}

// ID returns a stable identity for the failure across runs.
func (r *FailureReport) ID() string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%d", r.Kind, r.InstrID)
	for _, e := range r.Stack {
		fmt.Fprintf(h, "|%s@%d", e.Fn, e.CallSiteID)
	}
	for _, pc := range r.OtherPCs {
		fmt.Fprintf(h, "|o%d", pc)
	}
	return fmt.Sprintf("f%016x", h.Sum64())
}

// String renders the report like a crash dump header.
func (r *FailureReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s at instruction %%%d (%s), thread T%d\n", r.Kind, r.InstrID, r.Pos, r.ThreadID)
	if r.Msg != "" {
		fmt.Fprintf(&b, "  %s\n", r.Msg)
	}
	for i, e := range r.Stack {
		fmt.Fprintf(&b, "  #%d %s\n", i, e.Fn)
	}
	return b.String()
}

// Outcome is the result of one complete run.
type Outcome struct {
	Failed bool
	Report *FailureReport
	Exit   int64
	Steps  int64
	Prints []string
}

// Hooks are the VM's tracing callbacks. Any field may be nil. Hook code
// must not mutate VM state; it exists so the PT simulator, the watchpoint
// unit and the record/replay recorder can observe execution — exactly
// the attachment points the corresponding hardware provides.
type Hooks struct {
	// OnStep fires before every instruction.
	OnStep func(t *Thread, in *ir.Instr, clock int64)
	// StepMask, when non-nil, is the consumer's promise that OnStep does
	// nothing at instruction id unless StepMask[id] != 0 or the thread's
	// Traced bit is set, so an engine may skip those calls. It is indexed
	// by instruction ID and covers the whole program. Every thread's first
	// step is delivered regardless (threads are born with Traced set), so
	// the consumer sees each thread once and decides its bit. Nil means
	// "call OnStep at every step". The tree-walking interpreter ignores
	// the mask and always calls: under the promise above the extra calls
	// are no-ops, which is what lets it stay the oracle for the engine
	// that skips them.
	StepMask []uint8
	// OnBranch fires at every conditional branch with its outcome.
	OnBranch func(t *Thread, in *ir.Instr, taken bool, clock int64)
	// OnIndirect fires at control transfers whose target is not a static
	// successor (calls, returns, spawns) — PT TIP packet material.
	OnIndirect func(t *Thread, in *ir.Instr, target *ir.Instr, clock int64)
	// OnLoad/OnStore fire after each successful data memory access.
	OnLoad  func(t *Thread, in *ir.Instr, addr, val, size int64, clock int64)
	OnStore func(t *Thread, in *ir.Instr, addr, val, size int64, clock int64)
	// OnSchedule fires when the scheduler switches threads.
	OnSchedule func(from, to int, clock int64)
	// OnSpawn fires when a thread is created.
	OnSpawn func(parent, child int, fn *ir.Func, clock int64)
}

// Workload is the program input for one run.
type Workload struct {
	Ints []int64
	Strs []string
}

// Config configures one run.
type Config struct {
	Seed int64
	// MaxSteps bounds the run; exceeding it is reported as a hang.
	MaxSteps int64
	// PreemptMean is the average number of instructions between
	// preemptions; smaller means more aggressive interleaving.
	PreemptMean int
	Workload    Workload
	Hooks       Hooks
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.MaxSteps == 0 {
		out.MaxSteps = 2_000_000
	}
	if out.PreemptMean == 0 {
		out.PreemptMean = 5
	}
	return out
}

// Normalized returns the config with the interpreter's defaults applied.
// Alternative engines (internal/vm/bytecode) call this so a zero
// MaxSteps or PreemptMean means the same thing on every engine.
func (c Config) Normalized() Config { return c.withDefaults() }

// VM executes one program run.
type VM struct {
	Prog *ir.Program
	Mem  *Memory
	cfg  Config
	rng  *rand.Rand

	Threads []*Thread
	cur     int // currently scheduled thread ID
	quantum int

	Clock  int64
	prints []string

	strAddrs      []int64 // string pool index -> address
	workloadAddrs []int64 // workload string index -> address
	nextTID       int
	fault         *FailureReport
}

// New prepares a VM for prog under cfg. The program must be finalized.
func New(prog *ir.Program, cfg Config) *VM {
	cfg = cfg.withDefaults()
	v := &VM{
		Prog: prog,
		Mem:  NewMemory(len(prog.Globals)),
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
			if f := v.Mem.Store(GlobalsBase+int64(g.Index)*8, 8, val); f != nil {
				panic(fmt.Sprintf("global init: %v", f))
			}
		}
	}
	main := prog.FuncByName["main"]
	v.spawnThread(main, nil, -1)
	return v
}

// GlobalAddr returns the address of global index i.
func (v *VM) GlobalAddr(i int) int64 { return GlobalsBase + int64(i)*8 }

// RunnableThreads reports how many threads are currently runnable; the
// record/replay baseline uses it to model single-core serialization.
func (v *VM) RunnableThreads() int {
	n := 0
	for _, t := range v.Threads {
		if t.State == ThreadRunnable {
			n++
		}
	}
	return n
}

// spawnThread creates a thread running fn. arg, if non-nil, is stored into
// parameter slot 0.
func (v *VM) spawnThread(fn *ir.Func, arg *int64, parent int) *Thread {
	t := &Thread{ID: v.nextTID, State: ThreadRunnable, Traced: true}
	v.nextTID++
	v.Mem.EnsureStack(t.ID)
	v.Threads = append(v.Threads, t)
	v.pushFrame(t, fn, nil, PC{}, -1)
	if arg != nil && fn.Params > 0 {
		addr := StackAddr(t.ID, t.Frames[0].Base, 0)
		if f := v.Mem.Store(addr, 8, *arg); f != nil {
			panic(fmt.Sprintf("spawn arg store: %v", f))
		}
	}
	if v.cfg.Hooks.OnSpawn != nil && parent >= 0 {
		v.cfg.Hooks.OnSpawn(parent, t.ID, fn, v.Clock)
	}
	return t
}

func (v *VM) pushFrame(t *Thread, fn *ir.Func, callSite *ir.Instr, retPC PC, retDst int) *Fault {
	if (t.stackTop+len(fn.Locals)+8)*8 >= StackStride {
		return &Fault{Kind: FaultStackOverflow}
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
		addr := StackAddr(t.ID, fr.Base, i)
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
func (v *VM) stackTrace(t *Thread) []StackEntry {
	var out []StackEntry
	for i := len(t.Frames) - 1; i >= 0; i-- {
		fr := t.Frames[i]
		cs := -1
		if fr.CallSite != nil {
			cs = fr.CallSite.ID
		}
		out = append(out, StackEntry{Fn: fr.Fn.Name, CallSiteID: cs})
	}
	return out
}

func (v *VM) failAt(t *Thread, in *ir.Instr, f *Fault) {
	v.fault = &FailureReport{
		Kind:     f.Kind,
		InstrID:  in.ID,
		Pos:      in.Pos,
		ThreadID: t.ID,
		Stack:    v.stackTrace(t),
		Msg:      f.Msg,
	}
}

// Run executes the program to completion and returns the outcome.
func Run(prog *ir.Program, cfg Config) *Outcome {
	return New(prog, cfg).Run()
}

// Run executes until main returns, a fault occurs, deadlock, or the step
// limit is reached.
func (v *VM) Run() *Outcome {
	for {
		if v.fault != nil {
			return &Outcome{Failed: true, Report: v.fault, Steps: v.Clock, Prints: v.prints}
		}
		if v.Threads[0].State == ThreadDone {
			return &Outcome{Exit: v.Threads[0].Result, Steps: v.Clock, Prints: v.prints}
		}
		if v.Clock >= v.cfg.MaxSteps {
			t := v.Threads[v.cur]
			in := v.currentInstrOf(t)
			v.fault = &FailureReport{
				Kind: FaultHang, InstrID: in.ID, Pos: in.Pos, ThreadID: t.ID,
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
				if th.State != ThreadBlocked {
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
				return &Outcome{Exit: 0, Steps: v.Clock, Prints: v.prints}
			}
			in := v.currentInstrOf(bt)
			var others []int
			for _, th := range v.Threads {
				if th != bt && th.State == ThreadBlocked && th.Block.MutexAddr != 0 {
					others = append(others, v.currentInstrOf(th).ID)
				}
			}
			v.fault = &FailureReport{
				Kind: FaultDeadlock, InstrID: in.ID, Pos: in.Pos, ThreadID: bt.ID,
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
		if t.State == ThreadRunnable {
			runnable = append(runnable, t)
		}
	}
	if len(runnable) == 0 {
		return nil
	}
	cur := v.Threads[v.cur]
	if cur.State == ThreadRunnable && v.quantum > 0 {
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
			v.cfg.Hooks.OnStep(t, in, v.Clock)
		}
		v.Clock++
	}
	t.retrying = false
	advance := true
	switch in.Op {
	case ir.OpMov:
		v.setReg(t, in.Dst, v.eval(t, in.A))
	case ir.OpLocalAddr:
		v.setReg(t, in.Dst, StackAddr(t.ID, t.top().Base, in.Slot))
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
		if v.cfg.Hooks.OnLoad != nil {
			v.cfg.Hooks.OnLoad(t, in, addr, val, in.Size, v.Clock)
		}
	case ir.OpStore:
		addr := v.eval(t, in.A)
		val := v.eval(t, in.B)
		if f := v.Mem.Store(addr, in.Size, val); f != nil {
			v.failAt(t, in, f)
			return
		}
		if v.cfg.Hooks.OnStore != nil {
			v.cfg.Hooks.OnStore(t, in, addr, val, in.Size, v.Clock)
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
			v.cfg.Hooks.OnBranch(t, in, taken, v.Clock)
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
			addr := StackAddr(t.ID, t.top().Base, i)
			if f := v.Mem.Store(addr, 8, args[i]); f != nil {
				v.failAt(t, in, f)
				return
			}
		}
		if v.cfg.Hooks.OnIndirect != nil {
			v.cfg.Hooks.OnIndirect(t, in, callee.Entry().Instrs[0], v.Clock)
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
		v.failAt(t, in, &Fault{Kind: FaultOutOfBounds, Msg: fmt.Sprintf("bad opcode %s", in.Op)})
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
		t.State = ThreadDone
		t.Result = ret
		v.wakeJoiners(t.ID)
		return
	}
	if v.cfg.Hooks.OnIndirect != nil && fr.RetPC.Blk != nil && fr.RetPC.Idx < len(fr.RetPC.Blk.Instrs) {
		v.cfg.Hooks.OnIndirect(t, in, fr.RetPC.Instr(), v.Clock)
	}
	t.PC = fr.RetPC
	v.setReg(t, fr.RetDst, ret)
}

func (v *VM) wakeJoiners(tid int) {
	for _, th := range v.Threads {
		if th.State == ThreadBlocked && th.Block.MutexAddr == 0 && th.Block.JoinTID == tid {
			th.State = ThreadRunnable
			th.Block = BlockReason{JoinTID: -1}
		}
	}
}

func (v *VM) binop(op token.Kind, a, b int64) (int64, *Fault) {
	switch op {
	case token.PLUS:
		return a + b, nil
	case token.MINUS:
		return a - b, nil
	case token.STAR:
		return a * b, nil
	case token.SLASH:
		if b == 0 {
			return 0, &Fault{Kind: FaultDivZero}
		}
		return a / b, nil
	case token.PERCENT:
		if b == 0 {
			return 0, &Fault{Kind: FaultDivZero}
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
		return 0, &Fault{Kind: FaultOutOfBounds, Msg: fmt.Sprintf("bad binary op %s", op)}
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
			v.cfg.Hooks.OnIndirect(t, in, fn.Entry().Instrs[0], v.Clock)
		}
	case sema.BuiltinJoin:
		tid := int(args[0])
		if tid >= 0 && tid < len(v.Threads) && v.Threads[tid].State != ThreadDone {
			t.State = ThreadBlocked
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
			t.State = ThreadBlocked
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
			if th.State == ThreadBlocked && th.Block.MutexAddr == addr {
				th.State = ThreadRunnable
				th.Block = BlockReason{JoinTID: -1}
			}
		}
	case sema.BuiltinAssert:
		if args[0] == 0 {
			v.failAt(t, in, &Fault{Kind: FaultAssert, Msg: "assert failed"})
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
		v.failAt(t, in, &Fault{Kind: FaultOutOfBounds, Msg: fmt.Sprintf("bad builtin %s", in.Callee)})
		return false
	}
	return false
}
