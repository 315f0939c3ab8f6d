package bytecode_test

// The engine reads and writes the running thread's own stack without
// asking vm.Memory, keeps its own list of runnable threads, and — like
// the interpreter — reports only shared memory to OnLoad/OnStore. These
// tests hold the three to the interpreter where they could come apart:
// at the ends of a stack region, on another thread's stack, when threads
// block and wake out of ID order, and in what the data hooks are handed.

import (
	"fmt"
	"testing"

	"repro/internal/bugs"
	"repro/internal/ir"
	"repro/internal/lang/sema"
	"repro/internal/vm"
	"repro/internal/vm/bytecode"
	"repro/internal/vm/interp"
)

// asm assembles straight-line functions into a finalized program: the
// stack-edge cases need addresses and access sizes MiniC cannot spell.
// Each function is one block with no branches, so finalizing is just
// numbering the instructions; there are no predecessors to link.
func asm(funcs ...*ir.Func) *ir.Program {
	p := &ir.Program{FuncByName: map[string]*ir.Func{}}
	for i, f := range funcs {
		f.ID = i
		p.Funcs = append(p.Funcs, f)
		p.FuncByName[f.Name] = f
		b := f.Blocks[0]
		for j, in := range b.Instrs {
			in.ID, in.Blk, in.Idx = len(p.Instrs), b, j
			p.Instrs = append(p.Instrs, in)
		}
	}
	return p
}

func fn(name string, params, regs int, instrs ...*ir.Instr) *ir.Func {
	f := &ir.Func{Name: name, Params: params, Slots: params, NumRegs: regs}
	f.Blocks = []*ir.Block{{Fn: f, Instrs: instrs}}
	return f
}

func konst(v int64) ir.Value    { return ir.Value{Kind: ir.ValConst, Int: v} }
func reg(r int) ir.Value        { return ir.Value{Kind: ir.ValReg, Reg: r} }
func fref(name string) ir.Value { return ir.Value{Kind: ir.ValFuncRef, Func: name} }

func builtin(b sema.Builtin, dst int, args ...ir.Value) *ir.Instr {
	return &ir.Instr{Op: ir.OpCallB, Builtin: b, Dst: dst, Args: args}
}

// TestOwnStackEdges stores and loads a word and a byte at every address
// within nine bytes of either end of the running thread's stack region,
// as thread 0 and as thread 1 of a two-thread program: the last valid
// offsets, one past them (a word hanging over the end is a stack
// overflow), and the neighbouring regions — the other thread's stack, the
// string pool below thread 0, the unmapped stack above thread 1. The
// engine's own-stack path must take exactly the accesses that lie wholly
// inside the region and leave every other one, with its fault, to
// vm.Memory.
func TestOwnStackEdges(t *testing.T) {
	const val = 0x1122334455667788
	for tid := 0; tid < 2; tid++ {
		lo := vm.StackAddr(tid, 0, 0)
		for _, size := range []int64{8, 1} {
			for _, end := range []int64{lo, lo + vm.StackStride} {
				for addr := end - 9; addr <= end+9; addr++ {
					// probe(x): store val at addr, load it back, print it.
					probe := fn("probe", 1, 1,
						&ir.Instr{Op: ir.OpStore, Dst: -1, A: konst(addr), B: konst(val), Size: size},
						&ir.Instr{Op: ir.OpLoad, Dst: 0, A: konst(addr), Size: size},
						builtin(sema.BuiltinPrint, -1, reg(0)),
						&ir.Instr{Op: ir.OpRet, Dst: -1},
					)
					// main: thread 1 exists either way; the prober is main
					// itself (a call, so a second frame) or the spawned thread.
					body := []*ir.Instr{builtin(sema.BuiltinSpawn, 0, fref("idle"), konst(0))}
					if tid == 1 {
						body[0].Args[0] = fref("probe")
					} else {
						body = append(body, &ir.Instr{Op: ir.OpCall, Dst: -1, Callee: "probe", Args: []ir.Value{konst(0)}})
					}
					body = append(body, builtin(sema.BuiltinJoin, -1, reg(0)), &ir.Instr{Op: ir.OpRet, Dst: -1, A: konst(0)})
					prog := asm(fn("main", 0, 1, body...), probe, fn("idle", 1, 1, &ir.Instr{Op: ir.OpRet, Dst: -1}))
					name := fmt.Sprintf("t%d/size%d/%#x", tid, size, addr)

					out := runBoth(t, name, bytecode.Compile(prog), vm.Config{Seed: 1, PreemptMean: 2})
					off := addr - lo
					switch {
					case off >= 0 && off+size <= vm.StackStride: // wholly inside: the own-stack path
						want := fmt.Sprint(int64(val))
						if size == 1 {
							want = fmt.Sprint(val & 0xff)
						}
						if out.Failed || len(out.Prints) != 1 || out.Prints[0] != want {
							t.Fatalf("%s: want a clean run printing %s, got failed=%v prints=%v report=%v", name, want, out.Failed, out.Prints, out.Report)
						}
					case off >= 0 && off < vm.StackStride: // a word hanging over the end
						if !out.Failed || out.Report.Kind != vm.FaultStackOverflow || out.Report.ThreadID != tid {
							t.Fatalf("%s: want a stack overflow on thread %d, got %+v", name, tid, out.Report)
						}
					}
				}
			}
		}
	}
}

// foreignStackSrc has main write and read a local of another thread
// through a pointer that thread published: of live while it is alive, of
// gone after it has finished (a stack stays mapped until the run ends).
const foreignStackSrc = `
global int* cell;
global int ready = 0;
global int stop = 0;
void live(int a) {
	int x = 1;
	cell = &x;
	ready = 1;
	while (stop == 0) { yield(); }
	print(x);
}
void gone(int a) {
	int y = 2;
	cell = &y;
}
int main() {
	int t = spawn(live, 0);
	while (ready == 0) { yield(); }
	*cell = 41;
	int v = *cell;
	stop = 1;
	join(t);
	int u = spawn(gone, 0);
	join(u);
	*cell = *cell + 41;
	return v + *cell;
}`

// TestForeignStackAccess: accesses to another thread's stack are off the
// own-stack path, and must behave as they do on the interpreter.
func TestForeignStackAccess(t *testing.T) {
	prog := bytecode.Compile(ir.MustCompile("foreign.mc", foreignStackSrc))
	for seed := int64(0); seed < 16; seed++ {
		out := runBoth(t, "foreign", prog, vm.Config{Seed: seed, PreemptMean: 1 + int(seed%4)})
		if out.Failed || out.Exit != 41+43 || len(out.Prints) != 1 || out.Prints[0] != "41" {
			t.Fatalf("seed %d: want exit 84 and live's x printed as 41, got %+v", seed, out)
		}
	}
}

// TestMutexConvoy drives six workers through one mutex that its holder
// keeps across a yield, so that at every unlock several threads are
// blocked, wake together, and all but one block again — in an order the
// seed picks, not ID order — while main joins them out of order too. The
// scheduler's pick is the k-th runnable thread in ID order, so a runnable
// list that fell out of order, or out of step with the thread states,
// shows up as a different schedule; runBoth also compares
// RunnableThreads() at every step. Sweeping the step limit over the same
// program checks where each engine stops, and on whom it pins the hang.
func TestMutexConvoy(t *testing.T) {
	prog := bytecode.Compile(ir.MustCompile("convoy.mc", `
global int* mu;
global int turns = 0;
void worker(int id) {
	for (int i = 0; i < 4; i++) {
		lock(mu);
		turns = turns + 1;
		yield();
		unlock(mu);
	}
}
int main() {
	mu = malloc(8);
	int a = spawn(worker, 1);
	int b = spawn(worker, 2);
	int c = spawn(worker, 3);
	int d = spawn(worker, 4);
	int e = spawn(worker, 5);
	int f = spawn(worker, 6);
	join(d); join(a); join(f); join(c); join(b); join(e);
	return turns;
}`))
	for seed := int64(0); seed < 24; seed++ {
		out := runBoth(t, "convoy", prog, vm.Config{Seed: seed, PreemptMean: 1 + int(seed%5)})
		if out.Failed || out.Exit != 24 {
			t.Fatalf("seed %d: want 24 turns, got %+v", seed, out)
		}
	}
	for limit := int64(1); limit <= 400; limit++ {
		out := runBoth(t, "convoy-limit", prog, vm.Config{Seed: limit % 7, PreemptMean: 2, MaxSteps: limit})
		if !out.Failed || out.Report.Kind != vm.FaultHang || out.Steps != limit {
			t.Fatalf("step limit %d: want a hang after exactly that many steps, got %+v", limit, out)
		}
	}
}

// access is one OnLoad or OnStore call.
type access struct {
	store           bool
	tid, id         int
	addr, val, size int64
	clock           int64
}

// TestDataHooksReportSharedMemoryOnly pins the OnLoad/OnStore contract on
// both engines, on the whole suite and on a program whose threads touch
// each other's stacks: no stack address is ever delivered, and what is
// delivered is exactly the run's successful accesses with the stack ones
// taken out. The full stream is rebuilt without any data hook: from inside
// the interpreter's OnStep, just before a load or store executes, its
// address and value are read out of the interpreter's own registers and
// memory.
func TestDataHooksReportSharedMemoryOnly(t *testing.T) {
	for _, b := range bugs.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			prog := bytecode.Compile(b.Program())
			for seed := int64(0); seed < 4; seed++ {
				sharedAccessesOnly(t, prog, bugVMConfig(b, seed))
			}
		})
	}
	foreign := bytecode.Compile(ir.MustCompile("foreign.mc", foreignStackSrc))
	for seed := int64(0); seed < 4; seed++ {
		sharedAccessesOnly(t, foreign, vm.Config{Seed: seed, PreemptMean: 2})
	}
}

func sharedAccessesOnly(t *testing.T, prog *bytecode.Program, cfg vm.Config) {
	t.Helper()
	seed := cfg.Seed
	collect := func(into *[]access) vm.Hooks {
		hook := func(t *vm.Thread, in *ir.Instr, addr, val, size, clock int64) {
			*into = append(*into, access{store: in.Op == ir.OpStore, tid: t.ID, id: in.ID, addr: addr, val: val, size: size, clock: clock})
		}
		return vm.Hooks{OnLoad: hook, OnStore: hook}
	}

	var all, fromInterp, fromMachine []access
	var oracle *interp.VM
	c := cfg
	c.Hooks = collect(&fromInterp)
	c.Hooks.OnStep = func(th *vm.Thread, in *ir.Instr, clock int64) {
		if !in.IsMemAccess() {
			return
		}
		frames := oracle.Threads[th.ID].Frames
		eval := func(v ir.Value) int64 {
			if v.Kind == ir.ValReg {
				return frames[len(frames)-1].Regs[v.Reg]
			}
			return v.Int
		}
		addr := eval(in.A)
		val, fault := oracle.Mem.Load(addr, in.Size)
		if fault != nil {
			return // the access is about to fault: no event under either contract
		}
		if in.Op == ir.OpStore {
			val = eval(in.B)
		}
		all = append(all, access{store: in.Op == ir.OpStore, tid: th.ID, id: in.ID, addr: addr, val: val, size: in.Size, clock: clock + 1})
	}
	oracle = interp.New(prog.IR(), c)
	want := oracle.Run()
	c = cfg
	c.Hooks = collect(&fromMachine)
	got, _ := prog.Run(c)
	outcomesEqual(t, prog.IR().Name, seed, want, got)

	var shared []access
	for _, a := range all {
		if !vm.IsStackAddr(a.addr) {
			shared = append(shared, a)
		}
	}
	if len(shared) == 0 || len(shared) == len(all) {
		t.Fatalf("seed %d: %d of the run's %d accesses are to shared memory; the test needs both kinds", seed, len(shared), len(all))
	}
	for engine, delivered := range map[string][]access{"interpreter": fromInterp, "bytecode machine": fromMachine} {
		for _, a := range delivered {
			if vm.IsStackAddr(a.addr) {
				t.Fatalf("seed %d: the %s delivered a stack access: %+v", seed, engine, a)
			}
		}
		if len(delivered) != len(shared) {
			t.Fatalf("seed %d: the %s delivered %d data events, the run made %d shared accesses", seed, engine, len(delivered), len(shared))
		}
		for i := range shared {
			if delivered[i] != shared[i] {
				t.Fatalf("seed %d: the %s's data event %d is %+v, the run's shared access %d was %+v", seed, engine, i, delivered[i], i, shared[i])
			}
		}
	}
}
