package bytecode_test

// A thread whose decision is spent runs ahead through private steps and
// banks them as credit; the decisions after it are charged to that
// credit. These tests put a thread holding credit next to everything that
// could tell: a foreign-stack access into it, the step limit, main
// returning, the credit cap, and every instruction that changes the
// runnable set or ends a quantum early — and hold the engine to the
// interpreter there under three hook sets: none, the clocked OnSchedule,
// OnSpawn, OnLoad and OnStore stream, and maskedTracker. A fourth, masked
// probe set sees the edges themselves and counts the ones reached while
// another thread held credit.

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/lang/sema"
	"repro/internal/vm"
	"repro/internal/vm/bytecode"
	"repro/internal/vm/interp"
)

// runAheadPrograms are the edge programs. Their workers loop over
// private steps long enough to hold credit when the edge comes.
var runAheadPrograms = []struct{ name, src string }{
	// spin publishes the address of its local x and then reads and bumps
	// it in a private loop; main reads it, overwrites it and reads it
	// again from outside: the sum and both reads depend on exactly where
	// spin stands (case i).
	{"foreign", `
global int* cell;
global int ready = 0;
global int done = 0;
void spin(int n) {
	int x = 1;
	cell = &x;
	ready = 1;
	int s = 0;
	for (int i = 0; i < n; i++) { s = s + x; x = x + 1; }
	done = s;
}
int main() {
	int t = spawn(spin, 400);
	while (ready == 0) { yield(); }
	int v = *cell;
	*cell = 1000;
	int w = *cell;
	join(t);
	return v * 7 + w * 3 + done;
}`},
	// Two compute workers: credit reaches the cap, and a step limit lands
	// while decisions are charged to it (case ii).
	{"compute", `
global int total = 0;
void work(int n) {
	int s = 0;
	for (int i = 0; i < n; i++) { s = s + i * i % 7; }
	total = total + s;
}
int main() {
	int a = spawn(work, 300);
	int b = spawn(work, 300);
	join(a);
	join(b);
	return total;
}`},
	// main returns while its worker, never joined, runs ahead.
	{"detached", `
global int total = 0;
void work(int n) {
	int s = 0;
	for (int i = 0; i < n; i++) { s = s + i; }
	total = s;
}
int main() {
	spawn(work, 100000);
	int s = 0;
	for (int i = 0; i < 300; i++) { s = s + i; }
	return s;
}`},
	// One worker divides by zero at the end of a private loop; the fault
	// is public, and must come at the interpreter's clock.
	{"divzero", `
global int total = 0;
void work(int n) {
	int s = 0;
	for (int i = 0; i < n; i++) { s = s + 1000 / (n - 1 - i); }
	total = total + s;
}
int main() {
	int a = spawn(work, 300);
	int b = spawn(work, 50000);
	join(a);
	join(b);
	return total;
}`},
	// Spawn, an unlock that wakes a waiter (workers loop and yield holding
	// the mutex, so others queue on it), yield, a join and a lock that
	// block, and thread exit, each next to workers in private loops.
	{"sites", `
global int* mu;
global int total = 0;
void worker(int n) {
	int s = 0;
	for (int i = 0; i < n; i++) { s = s + i; }
	lock(mu);
	total = total + s;
	for (int i = 0; i < n; i++) { s = s + i; }
	yield();
	unlock(mu);
	for (int i = 0; i < n; i++) { s = s + i; }
	total = total + 1;
}
int main() {
	mu = malloc(8);
	int w = 0;
	for (int i = 0; i < 12; i++) { w = w + i; }
	int a = spawn(worker, 40);
	int b = spawn(worker, 12);
	int c = spawn(worker, 25);
	lock(mu);
	w = w + 1;
	unlock(mu);
	join(b);
	join(a);
	join(c);
	return total + w;
}`},
}

// TestRunAheadEdges runs every edge program at 32 seeds and preemption
// means 1..6, then sweeps step limits over the compute workers, and
// requires each edge to have been reached while a thread held credit.
func TestRunAheadEdges(t *testing.T) {
	reached := map[string]int{}
	for _, p := range runAheadPrograms {
		src := ir.MustCompile(p.name+".mc", p.src)
		e := newEdgeRunner(src, p.src)
		for seed := int64(0); seed < 32; seed++ {
			for mean := 1; mean <= 6; mean++ {
				e.check(t, fmt.Sprintf("%s/mean=%d", p.name, mean), vm.Config{Seed: seed, PreemptMean: mean}, reached)
			}
		}
		if p.name != "compute" {
			continue
		}
		for seed := int64(0); seed < 4; seed++ {
			for limit := int64(40); limit < 3000; limit += 17 {
				cfg := vm.Config{Seed: seed, PreemptMean: 1 + int(limit%6), MaxSteps: limit}
				out := e.check(t, fmt.Sprintf("compute/limit=%d", limit), cfg, reached)
				if !out.Failed || out.Report.Kind != vm.FaultHang || out.Steps != limit {
					t.Fatalf("step limit %d: want a hang after exactly that many steps, got %+v", limit, out)
				}
			}
		}
	}
	for _, edge := range []string{
		"foreign read", "foreign write", "step limit", "main returns", "aheadMax",
		"spawn", "wake-on-unlock", "yield", "blocking join", "blocking lock", "exit",
	} {
		if reached[edge] == 0 {
			t.Errorf("no run reached a %s while a thread held credit", edge)
		}
	}
}

// edgeRunner runs one edge program on the interpreter and on one reused
// machine.
type edgeRunner struct {
	src   *ir.Program
	m     *bytecode.Machine
	sites map[int]string // instruction ID -> the edge it is
	mask  []uint8        // the probe's: every site
}

func newEdgeRunner(src *ir.Program, text string) *edgeRunner {
	e := &edgeRunner{src: src, m: bytecode.NewMachine(bytecode.Compile(src)), sites: map[int]string{}, mask: make([]uint8, len(src.Instrs))}
	lineOf := func(stmt string) int {
		if i := strings.Index(text, stmt); i >= 0 {
			return strings.Count(text[:i], "\n") + 1
		}
		return -1
	}
	readLine, writeLine := lineOf("int v = *cell;"), lineOf("*cell = 1000;")
	read := -1 // the line's last load is cell's dereference
	for _, in := range src.Instrs {
		if in.Op == ir.OpLoad && in.Pos.Line == readLine {
			read = in.ID
		}
	}
	for _, in := range src.Instrs {
		name := ""
		switch {
		case in.ID == read:
			name = "foreign read"
		case in.Op == ir.OpStore && in.Pos.Line == writeLine:
			name = "foreign write"
		case in.Op == ir.OpRet && in.Blk.Fn.Name == "main":
			name = "main returns"
		case in.Op == ir.OpRet:
			name = "exit"
		case in.Op != ir.OpCallB:
		case in.Builtin == sema.BuiltinSpawn:
			name = "spawn"
		case in.Builtin == sema.BuiltinUnlock:
			name = "wake-on-unlock"
		case in.Builtin == sema.BuiltinYield:
			name = "yield"
		case in.Builtin == sema.BuiltinJoin:
			name = "blocking join"
		case in.Builtin == sema.BuiltinLock:
			name = "blocking lock"
		}
		if name != "" {
			e.sites[in.ID], e.mask[in.ID] = name, 1
		}
	}
	return e
}

// check runs cfg under the four hook sets, compares each machine run with
// its interpreter twin, and counts into reached the edges the probe saw.
func (e *edgeRunner) check(t *testing.T, name string, cfg vm.Config, reached map[string]int) *vm.Outcome {
	t.Helper()
	seed := cfg.Seed

	// No hooks: the outcome and the memory.
	oracle := interp.New(e.src, cfg)
	ref := oracle.Run()
	outcomesEqual(t, name, seed, ref, e.m.Run(cfg))
	e.memoryEqual(t, name, oracle)

	// The clocked stream. Its OnSchedule also watches the credit: no
	// thread above the cap, and a hang pinned on a thread whose credit
	// covered every step to the limit from the last switch to it is one
	// the machine reached mid-credit.
	var want, got []hookEvent
	c := cfg
	c.Hooks = streamHooks(&want, false)
	oracle = interp.New(e.src, c)
	oracle.Run()
	c.Hooks = streamHooks(&got, false)
	threads := 1
	spawn := c.Hooks.OnSpawn
	c.Hooks.OnSpawn = func(parent, child int, fn *ir.Func, clock int64) {
		threads = child + 1
		spawn(parent, child, fn, clock)
	}
	var last struct{ to, clock, credit int64 }
	record := c.Hooks.OnSchedule
	c.Hooks.OnSchedule = func(from, to int, clock int64) {
		for tid := 0; tid < threads; tid++ {
			switch cr := e.m.Credit(tid); {
			case cr > bytecode.AheadMax:
				t.Fatalf("%s seed %d: thread %d holds %d credit, above the cap", name, seed, tid, cr)
			case cr == bytecode.AheadMax:
				reached["aheadMax"]++
			}
		}
		last.to, last.clock, last.credit = int64(to), clock, e.m.Credit(to)
		record(from, to, clock)
	}
	out := e.m.Run(c)
	outcomesEqual(t, name+"/stream", seed, ref, out)
	if d := firstDiff(want, got); d != "" {
		t.Fatalf("%s seed %d: streams differ: %s", name, seed, d)
	}
	e.memoryEqual(t, name+"/stream", oracle)
	if limit := cfg.MaxSteps; out.Failed && out.Report.Kind == vm.FaultHang && int64(out.Report.ThreadID) == last.to && last.credit > limit-last.clock {
		reached["step limit"]++
	}

	// maskedTracker.
	plain, masked := newMaskedTracker(e.src), newMaskedTracker(e.src)
	c.Hooks = plain.hooks(false)
	interp.Run(e.src, c)
	c.Hooks = masked.hooks(true)
	outcomesEqual(t, name+"/masked", seed, ref, e.m.Run(c))
	if d := firstDiff(masked.delivered, plain.relevant); d != "" {
		t.Fatalf("%s seed %d, masked: %s", name, seed, d)
	}

	// The probe: OnStep at the sites only. A site counts when another
	// thread holds credit as it steps, and, if it is one that changes the
	// runnable set, when the set has changed by the next site.
	var pending string
	var sign, before int
	threads = 1
	c.Hooks = vm.Hooks{StepMask: e.mask, OnSpawn: func(_, child int, _ *ir.Func, _ int64) { threads = child + 1 }}
	c.Hooks.OnStep = func(th *vm.Thread, in *ir.Instr, clock int64) {
		th.Traced = false
		if pending != "" && (sign == 0 || (e.m.RunnableThreads()-before)*sign > 0) {
			reached[pending]++
		}
		pending = ""
		site := e.sites[in.ID]
		if site == "" {
			return
		}
		held := false
		for tid := 0; tid < threads; tid++ {
			held = held || tid != th.ID && e.m.Credit(tid) > 0
		}
		if !held {
			return
		}
		switch site {
		case "spawn", "wake-on-unlock":
			pending, sign = site, 1
		case "blocking join", "blocking lock", "exit":
			pending, sign = site, -1
		default:
			reached[site]++
		}
		before = e.m.RunnableThreads()
	}
	outcomesEqual(t, name+"/probe", seed, ref, e.m.Run(c))
	return ref
}

// memoryEqual compares the machine's memory at run end with the
// interpreter's: the globals, the first 4 KiB of the heap byte by byte
// (faults included), and the stack of every thread without credit.
func (e *edgeRunner) memoryEqual(t *testing.T, name string, oracle *interp.VM) {
	t.Helper()
	mem := e.m.Mem()
	globalsEqual(t, name, e.src, oracle.Mem, mem)
	for addr := int64(vm.HeapBase); addr < vm.HeapBase+4096; addr++ {
		a, fa := oracle.Mem.Load(addr, 1)
		b, fb := mem.Load(addr, 1)
		if a != b || (fa == nil) != (fb == nil) {
			t.Fatalf("%s: heap byte %#x is %d (fault %v) on the interpreter, %d (fault %v) on the machine", name, addr, a, fa, b, fb)
		}
	}
	for tid := range oracle.Threads {
		if e.m.Credit(tid) == 0 && !bytes.Equal(oracle.Mem.Stack(tid), mem.Stack(tid)) {
			t.Fatalf("%s: thread %d holds no credit and its stack differs between the engines", name, tid)
		}
	}
}
