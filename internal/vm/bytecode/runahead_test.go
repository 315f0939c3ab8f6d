package bytecode_test

// A thread whose decision a skipped pure call carries past its end
// holds the call's steps past it as credit; the decisions after it are
// charged to that credit. These tests put a thread holding credit next to
// everything that could tell: a foreign-stack access into it, the step
// limit, main returning, and every instruction that changes the runnable
// set or ends a quantum early — and hold the engine to the interpreter
// there under three hook sets: none, the clocked OnSchedule, OnSpawn
// and OnAccess stream, and a maskedTracker that leaves pure callees
// unflagged. A fourth, masked probe set sees the edges themselves
// and counts the ones reached while another thread held credit.
//
// A lone thread draws no decisions until it spawns or yields, and its
// skipped calls bank no credit. The lone programs run a long prefix of
// skipped calls in main alone and then end it each way there is: a
// spawn, a yield and then a spawn, the step limit, and a deadlock on a
// lock main holds. The probe counts those reached while more than one
// decision was still owed.

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

// runAheadPrograms are the edge programs. Their threads call a pure
// helper where they would loop, and the helper's steps, skipped, are the
// credit they hold when the edge comes.
var runAheadPrograms = []struct{ name, src string }{
	// spin publishes the address of its local x and then adds up calls of
	// bump; main reads, overwrites and reads again cell[5], the word
	// bump's i is in while spin is inside a call (spin's slots are n, x,
	// s and i, and bump's frame, n, acc and i, lies right above them): the
	// sum and both reads depend on exactly where spin stands in the call
	// (case i).
	{"foreign", `
global int* cell;
global int ready = 0;
global int done = 0;
int bump(int n) {
	int acc = 0;
	for (int i = 0; i < n; i++) { acc = acc + i % 3; }
	return acc;
}
void spin(int n) {
	int x = 1;
	cell = &x;
	ready = 1;
	int s = 0;
	for (int i = 0; i < n; i++) { x = x + bump(40); s = s + x; }
	done = s;
}
int main() {
	int t = spawn(spin, 10);
	while (ready == 0) { yield(); }
	int v = cell[5];
	cell[5] = 1000;
	int w = cell[5];
	join(t);
	return v * 7 + w * 3 + done;
}`},
	// Two compute workers: a step limit lands while decisions are charged
	// to their credit (case ii).
	{"compute", `
global int total = 0;
int mix(int n) {
	int s = 0;
	for (int i = 0; i < n; i++) { s = s + i * i % 7; }
	return s;
}
void work(int n) {
	int s = 0;
	for (int i = 0; i < n; i++) { s = s + mix(20 + i % 3); }
	total = total + s;
}
int main() {
	int a = spawn(work, 15);
	int b = spawn(work, 15);
	join(a);
	join(b);
	return total;
}`},
	// main returns while its worker, never joined, runs ahead.
	{"detached", `
global int total = 0;
int sum(int n) {
	int s = 0;
	for (int i = 0; i < n; i++) { s = s + i; }
	return s;
}
void work(int n) {
	int s = 0;
	for (int i = 0; i < n; i++) { s = s + sum(30); }
	total = s;
}
int main() {
	spawn(work, 100000);
	int s = 0;
	for (int i = 0; i < 10; i++) { s = s + sum(30); }
	return s;
}`},
	// One worker divides by zero after its last call; the fault is
	// public, and must come at the interpreter's clock.
	{"divzero", `
global int total = 0;
int sum(int n) {
	int s = 0;
	for (int i = 0; i < n; i++) { s = s + i; }
	return s;
}
void work(int n) {
	int s = 0;
	for (int i = 0; i < n; i++) { s = s + sum(20) + 1000 / (n - 1 - i); }
	total = total + s;
}
int main() {
	int a = spawn(work, 15);
	int b = spawn(work, 2000);
	join(a);
	join(b);
	return total;
}`},
	// Spawn, an unlock that wakes a waiter (workers call and yield holding
	// the mutex, so others queue on it), yield, a join and a lock that
	// block, and thread exit, each next to workers inside calls.
	{"sites", `
global int* mu;
global int total = 0;
int sum(int n) {
	int s = 0;
	for (int i = 0; i < n; i++) { s = s + i; }
	return s;
}
void worker(int n) {
	int s = sum(n);
	lock(mu);
	total = total + s;
	s = s + sum(n);
	yield();
	unlock(mu);
	s = s + sum(n);
	total = total + 1;
}
int main() {
	mu = malloc(8);
	int w = sum(12);
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
	// main spawns after a prefix alone; the worker races it on total.
	{"lone-spawn", `
global int total = 0;
int sum(int n) {
	int s = 0;
	for (int i = 0; i < n; i++) { s = s + i; }
	return s;
}
void work(int n) {
	total = total + sum(n);
}
int main() {
	int s = 0;
	for (int i = 0; i < 20; i++) { s = s + sum(10 + i); }
	int t = spawn(work, 25);
	s = s + sum(30);
	total = total + 1;
	join(t);
	return s + total;
}`},
	// main yields alone, runs alone again, and then spawns.
	{"lone-yield", `
global int total = 0;
int sum(int n) {
	int s = 0;
	for (int i = 0; i < n; i++) { s = s + i; }
	return s;
}
void work(int n) {
	total = total + sum(n);
}
int main() {
	int s = 0;
	for (int i = 0; i < 20; i++) { s = s + sum(10 + i); }
	yield();
	for (int i = 0; i < 7; i++) { s = s + sum(i); }
	int t = spawn(work, 25);
	total = total + 1;
	join(t);
	return s + total;
}`},
	// main never spawns and runs into the step limit (see loneLimit).
	{"lone-limit", `
global int total = 0;
int sum(int n) {
	int s = 0;
	for (int i = 0; i < n; i++) { s = s + i; }
	return s;
}
int main() {
	int s = 0;
	for (int i = 0; i < 1000000; i++) { s = s + sum(i % 40); total = s; }
	return s;
}`},
	// main takes a lock it already holds.
	{"lone-deadlock", `
global int* mu;
int sum(int n) {
	int s = 0;
	for (int i = 0; i < n; i++) { s = s + i; }
	return s;
}
int main() {
	mu = malloc(8);
	int s = 0;
	for (int i = 0; i < 20; i++) { s = s + sum(10 + i); }
	lock(mu);
	s = s + sum(12);
	lock(mu);
	return s;
}`},
}

// loneLimit is lone-limit's step limit at seed: it lands anywhere in a
// call and in a decision.
func loneLimit(seed int64) int64 { return 1500 + 97*seed }

// TestRunAheadEdges runs every edge program at 32 seeds and preemption
// means 1..6, then sweeps step limits over the compute workers, and
// requires each edge to have been reached while a thread held credit,
// and each lone edge while decisions were owed.
func TestRunAheadEdges(t *testing.T) {
	reached := map[string]int{}
	for _, p := range runAheadPrograms {
		src := ir.MustCompile(p.name+".mc", p.src)
		e := newEdgeRunner(src, p.src)
		for seed := int64(0); seed < 32; seed++ {
			for mean := 1; mean <= 6; mean++ {
				cfg := vm.Config{Seed: seed, PreemptMean: mean}
				if p.name == "lone-limit" {
					cfg.MaxSteps = loneLimit(seed)
				}
				e.check(t, fmt.Sprintf("%s/mean=%d", p.name, mean), cfg, reached)
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
		"foreign read", "foreign write", "step limit", "main returns",
		"spawn", "wake-on-unlock", "yield", "blocking join", "blocking lock", "exit",
	} {
		if reached[edge] == 0 {
			t.Errorf("no run reached a %s while a thread held credit", edge)
		}
	}
	for _, edge := range []string{"lone spawn", "lone yield", "lone spawn after yield", "lone step limit", "lone deadlock"} {
		if reached[edge] == 0 {
			t.Errorf("no run reached a %s while decisions were owed", edge)
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
	skip  []uint8        // maskedTracker's: skipMask
}

func newEdgeRunner(src *ir.Program, text string) *edgeRunner {
	prog := bytecode.Compile(src)
	e := &edgeRunner{src: src, m: bytecode.NewMachine(prog), sites: map[int]string{}, mask: make([]uint8, len(src.Instrs)), skip: skipMask(src, prog)}
	pure := prog.PureFuncs()
	lineOf := func(stmt string) int {
		if i := strings.Index(text, stmt); i >= 0 {
			return strings.Count(text[:i], "\n") + 1
		}
		return -1
	}
	readLine, writeLine := lineOf("int v = cell[5];"), lineOf("cell[5] = 1000;")
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
		case in.Op == ir.OpRet && pure[in.Blk.Fn.Name] == [2]int{}:
			name = "exit" // a flag inside the helper would stop its skips
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

	// The clocked stream. Its OnSchedule also watches the credit: a hang
	// pinned on a thread whose credit covered every step to the limit
	// from the last switch to it is one the machine reached mid-credit.
	var want, got []hookEvent
	c := cfg
	c.Hooks = streamHooks(&want, false)
	oracle = interp.New(e.src, c)
	oracle.Run()
	c.Hooks = streamHooks(&got, false)
	var last struct{ to, clock, credit int64 }
	record := c.Hooks.OnSchedule
	c.Hooks.OnSchedule = func(from, to int, clock int64) {
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

	// maskedTracker, leaving the helper unflagged so that its calls skip.
	plain, masked := trackerWithMask(e.skip), trackerWithMask(e.skip)
	c.Hooks = plain.hooks(false)
	interp.Run(e.src, c)
	c.Hooks = masked.hooks(true)
	outcomesEqual(t, name+"/masked", seed, ref, e.m.Run(c))
	if d := firstDiff(masked.delivered, plain.relevant); d != "" {
		t.Fatalf("%s seed %d, masked: %s", name, seed, d)
	}

	// The probe: OnStep at the sites only. A site counts when another
	// thread holds credit as it steps, and, if it is one that changes the
	// runnable set, when the set has changed by the next site. A lone
	// thread's spawn or yield, and the step limit or deadlock a lone run
	// ends in, count when the step lies past the first decision owed (a
	// decision covers at most 2*PreemptMean+1 steps); a spawn after a
	// yield owes decisions from past the yield.
	owes := func(clock int64) (bool, int64) {
		owed := e.m.Owed()
		return owed >= 0 && clock-owed > 2*int64(cfg.PreemptMean), owed
	}
	var pending string
	var sign, before int
	threads := 1
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
		if ok, owed := owes(clock); ok && site == "spawn" && owed > 0 {
			reached["lone spawn after yield"]++
		} else if ok && (site == "spawn" || site == "yield") {
			reached["lone "+site]++
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
	if ok, _ := owes(ref.Steps); ok && ref.Failed {
		switch ref.Report.Kind {
		case vm.FaultHang:
			reached["lone step limit"]++
		case vm.FaultDeadlock:
			reached["lone deadlock"]++
		}
	}
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
