package bytecode_test

// A call of a pure function — one that touches only its own frame —
// executes once per (program, callee, arguments); a later call that
// nothing watches inside the callee takes the recorded steps, return
// value and frame bytes instead. These tests pin which functions are
// pure, hold a skip to the interpreter at its edges, and require the
// suite's runs to skip, so that the differentials cannot pass with
// skipping silently off.

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/bugs"
	"repro/internal/hw/pt"
	"repro/internal/ir"
	"repro/internal/vm"
	"repro/internal/vm/bytecode"
	"repro/internal/vm/interp"
)

// TestDstMatchesIR: every instruction writes the IR's destination
// register or, where the IR names none, its function's sink (register
// NumRegs), and no operand reads a sink. Purity and the unguarded writes
// rely on both: a 0 there would be a write to register 0.
func TestDstMatchesIR(t *testing.T) {
	progs := map[string]*ir.Program{}
	for _, b := range bugs.All() {
		progs[b.Name] = b.Program()
	}
	for _, c := range scopeCases {
		progs["scope/"+c.name] = ir.MustCompile("scope.mc", c.src)
	}
	for name, src := range progs {
		prog := bytecode.Compile(src)
		dsts, reads := prog.Dsts(), prog.Reads()
		for pc, in := range src.Instrs {
			sink := in.Blk.Fn.NumRegs
			want := in.Dst
			if want < 0 {
				want = sink
			}
			if dsts[pc] != want {
				t.Errorf("%s: instruction %d (%s) writes r%d, want r%d (IR r%d, sink r%d)", name, pc, in.Op, dsts[pc], want, in.Dst, sink)
			}
			for _, ref := range reads[pc] {
				if int(ref) >= sink {
					t.Errorf("%s: instruction %d (%s) reads r%d, at or past its function's sink r%d", name, pc, in.Op, ref, sink)
				}
			}
		}
	}
}

// TestPurity: a function that reads and writes only its own slots, at
// addresses nothing else sees, is pure; one that reads a global, follows
// a pointer, calls, uses any builtin or lets a slot's address out is not.
func TestPurity(t *testing.T) {
	cases := []struct {
		name string
		pure bool
		src  string // defines f
	}{
		{"handle's loop", true, `int f(int n) {
	int acc = 0;
	for (int i = 0; i < n; i++) { acc = acc + (i * 13 + 7) % 17; }
	return acc;
}`},
		{"a division by a parameter", true, `int f(int n, int d) { return n / d + n % d; }`},
		{"no result", true, `void f(int n) { int x = n; }`},
		{"a global read", false, `global int g = 1;
int f(int n) { return g + n; }`},
		{"a dereferenced pointer parameter", false, `int f(int* p) { return *p; }`},
		{"a call", false, `int g(int n) { return n; }
int f(int n) { return g(n); }`},
		{"malloc", false, `int f(int n) { int* p = malloc(8); return n; }`},
		{"free", false, `int f(int* p) { free(p); return 0; }`},
		{"spawn", false, `void g(int n) { }
int f(int n) { return spawn(g, n); }`},
		{"join", false, `int f(int n) { join(n); return 0; }`},
		{"lock", false, `int f(int* m) { lock(m); return 0; }`},
		{"unlock", false, `int f(int* m) { unlock(m); return 0; }`},
		{"assert", false, `int f(int n) { assert(n > 0); return n; }`},
		{"print", false, `int f(int n) { print(n); return n; }`},
		{"prints", false, `int f(int n) { prints("x"); return n; }`},
		{"strlen", false, `int f(string s) { return strlen(s); }`},
		{"input", false, `int f(int n) { return input(n); }`},
		{"input_str", false, `int f(int n) { string s = input_str(n); return n; }`},
		{"yield", false, `int f(int n) { yield(); return n; }`},
		{"return &x", false, `int* f(int n) { int x = n; return &x; }`},
		{"storing &x", false, `int f(int n) { int x = n; int* p = &x; return n; }`},
		{"&x in a compare", false, `int f(int n) {
	int x = n;
	int y = n;
	if (&x == &y) { return 1; }
	return 0;
}`},
	}
	for _, c := range cases {
		src := ir.MustCompile("purity.mc", c.src+"\nint main() { return 0; }")
		if _, pure := bytecode.Compile(src).PureFuncs()["f"]; pure != c.pure {
			t.Errorf("%s: pure is %v, want %v", c.name, pure, c.pure)
		}
	}
}

// warmUps names each suite bug's warm-up function, the untraced bulk of
// its runs.
var warmUps = map[string]string{
	"pbzip2": "compress", "apache-1": "handle", "apache-2": "handle", "apache-3": "handle",
	"apache-4": "handle", "cppcheck-1": "preprocess", "cppcheck-2": "preprocess", "curl": "transfer",
	"transmission": "handle", "sqlite": "handle", "memcached": "handle", "deadlock": "work",
}

func TestPurityOfWarmUps(t *testing.T) {
	for _, b := range bugs.All() {
		name, ok := warmUps[b.Name]
		if !ok {
			t.Errorf("%s: no warm-up named", b.Name)
			continue
		}
		if _, pure := bytecode.Compile(b.Program()).PureFuncs()[name]; !pure {
			t.Errorf("%s: warm-up %s is not pure", b.Name, name)
		}
	}
}

// skipMask is a StepMask that lets calls of pure functions be skipped:
// nothing inside a pure function is flagged, every other instruction is
// a stop-after, and every eleventh one that is not a call starts
// tracking — so a thread is tracked for one instruction at a time and
// never at a call.
func skipMask(src *ir.Program, prog *bytecode.Program) []uint8 {
	mask := make([]uint8, len(src.Instrs))
	for _, in := range src.Instrs {
		mask[in.ID] = 2
		if in.ID%11 == 3 && in.Op != ir.OpCall {
			mask[in.ID] |= 1
		}
	}
	for _, r := range prog.PureFuncs() {
		clear(mask[r[0]:r[1]])
	}
	return mask
}

// skipPasses runs cfg on e's machine and on the interpreter twice: with
// the clocked OnSchedule, OnSpawn, OnLoad and OnStore stream but no step
// hook, comparing the outcome, the stream and the memory, and under a
// maskedTracker with skipMask, comparing the outcome and the delivered
// events with the interpreter's relevant ones. It returns the skips of
// each machine run.
func skipPasses(t *testing.T, name string, e *edgeRunner, mask []uint8, cfg vm.Config) (noStep, masked int) {
	t.Helper()
	var want, got []hookEvent
	c := cfg
	c.Hooks = streamHooks(&want, false)
	oracle := interp.New(e.src, c)
	ref := oracle.Run()
	c.Hooks = streamHooks(&got, false)
	outcomesEqual(t, name+"/no-step-hook", cfg.Seed, ref, e.m.Run(c))
	if d := firstDiff(want, got); d != "" {
		t.Fatalf("%s seed %d, no step hook: %s", name, cfg.Seed, d)
	}
	e.memoryEqual(t, name+"/no-step-hook", oracle)
	noStep = e.m.Skips()

	plain, tracked := trackerWithMask(mask), trackerWithMask(mask)
	c.Hooks = plain.hooks(false)
	interp.Run(e.src, c)
	c.Hooks = tracked.hooks(true)
	outcomesEqual(t, name+"/masked", cfg.Seed, ref, e.m.Run(c))
	if d := firstDiff(tracked.delivered, plain.relevant); d != "" {
		t.Fatalf("%s seed %d, masked: %s", name, cfg.Seed, d)
	}
	return noStep, e.m.Skips()
}

// TestPureCallSkips runs every suite bug with skipping possible, on one
// machine and then on two goroutines that share a fresh program (and so
// its record of pure calls), and requires the interpreter's outcomes and
// at least one skip on each pass.
func TestPureCallSkips(t *testing.T) {
	for _, b := range bugs.All() {
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			src := b.Program()
			e := &edgeRunner{src: src, m: bytecode.NewMachine(bytecode.Compile(src))}
			mask := skipMask(src, bytecode.Compile(src))
			var noStep, masked int
			for seed := int64(0); seed < 4; seed++ {
				n, m := skipPasses(t, b.Name, e, mask, bugVMConfig(b, seed))
				noStep, masked = noStep+n, masked+m
			}
			if noStep == 0 || masked == 0 {
				t.Fatalf("%s: %d skips without a step hook and %d masked; want both above 0", b.Name, noStep, masked)
			}

			shared := bytecode.Compile(src)
			var wg sync.WaitGroup
			outs := make([][]*vm.Outcome, 2)
			skips := make([]int, 2)
			for g := range outs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					m := bytecode.NewMachine(shared)
					for seed := int64(0); seed < 4; seed++ {
						outs[g] = append(outs[g], m.Run(bugVMConfig(b, seed)))
						skips[g] += m.Skips()
					}
				}()
			}
			wg.Wait()
			for seed := int64(0); seed < 4; seed++ {
				ref := interp.Run(src, bugVMConfig(b, seed))
				for g := range outs {
					outcomesEqual(t, fmt.Sprintf("%s/goroutine %d", b.Name, g), seed, ref, outs[g][seed])
				}
			}
			if skips[0]+skips[1] == 0 {
				t.Fatalf("%s: two goroutines sharing a program skipped no call", b.Name)
			}
		})
	}
}

// pureEdgePrograms put a skippable call next to what could tell it from
// an executed one.
var pureEdgePrograms = []struct{ name, src string }{
	// Calls long enough to pass several decisions, from three threads:
	// the step limit sweep lands inside them.
	{"limit", `
global int total = 0;
int leaf(int n) {
	int acc = 0;
	for (int i = 0; i < n; i++) { acc = acc + (i * 7 + 3) % 11; }
	return acc;
}
void worker(int n) {
	int r = leaf(n);
	total = total + r;
}
int main() {
	int a = spawn(worker, 60);
	int w = leaf(80);
	int b = spawn(worker, 60);
	w = w + leaf(80);
	join(a);
	join(b);
	return total + w;
}`},
	// The same callee skipped with a divisor and then faulting without
	// one: the zero-divisor call executes, and faults at the
	// interpreter's clock.
	{"divzero", `
int quot(int n, int d) {
	int acc = 0;
	for (int i = 0; i < n; i++) { acc = acc + i / d; }
	return acc;
}
int main() {
	int a = quot(40, 3);
	int b = quot(40, 0);
	return a + b;
}`},
	// A pure callee that never returns: its recording gives up, and the
	// call runs into the step limit.
	{"forever", `
int forever(int n) {
	int x = n;
	while (x > 0) { x = x + 1; }
	return x;
}
int main() {
	int a = forever(1);
	return a;
}`},
	// spin publishes the address of its local x and then skips a long
	// call; main reads x from outside, which, while spin holds the
	// call's steps as credit, makes the machine re-run silently — and a
	// silent re-run never skips.
	{"rerun", `
global int* cell;
global int ready = 0;
int leaf(int n) {
	int acc = 0;
	for (int i = 0; i < n; i++) { acc = acc + i % 5; }
	return acc;
}
void spin(int n) {
	int x = 1;
	cell = &x;
	ready = 1;
	x = leaf(n);
	x = x + leaf(n);
}
int main() {
	int t = spawn(spin, 200);
	while (ready == 0) { yield(); }
	int v = *cell;
	int w = leaf(100);
	join(t);
	return v + w;
}`},
}

// TestPureCallEdges holds a skip to the interpreter where it could show:
// a step limit inside a skipped call, a zero divisor, a callee that
// never returns, and a foreign read that forces a silent re-run.
func TestPureCallEdges(t *testing.T) {
	reached := map[string]int{}
	for _, p := range pureEdgePrograms {
		src := ir.MustCompile(p.name+".mc", p.src)
		e := &edgeRunner{src: src, m: bytecode.NewMachine(bytecode.Compile(src))}
		mask := skipMask(src, bytecode.Compile(src))
		skipped := 0
		for seed := int64(0); seed < 8; seed++ {
			for mean := 1; mean <= 4; mean++ {
				n, m := skipPasses(t, fmt.Sprintf("%s/mean=%d", p.name, mean), e, mask, vm.Config{Seed: seed, PreemptMean: mean, MaxSteps: 100_000})
				skipped += n + m
			}
		}
		switch p.name {
		case "limit":
			for limit := int64(20); limit < 2500; limit += 13 {
				cfg := vm.Config{Seed: limit % 4, PreemptMean: 1 + int(limit%4), MaxSteps: limit}
				skipPasses(t, fmt.Sprintf("limit/%d", limit), e, mask, cfg)
				out := interp.Run(src, cfg)
				if out.Failed && out.Report.Kind == vm.FaultHang && out.Report.Stack[0].Fn == "leaf" {
					reached["step limit"]++
				}
			}
		case "divzero":
			out := interp.Run(src, vm.Config{})
			if out.Failed && out.Report.Kind == vm.FaultDivZero {
				reached["zero divisor"]++
			}
		case "forever":
			out := interp.Run(src, vm.Config{MaxSteps: 100_000})
			if out.Failed && out.Report.Kind == vm.FaultHang && out.Report.Stack[0].Fn == "forever" {
				reached["never returns"]++
			}
			if skipped != 0 {
				t.Errorf("forever: %d calls skipped, want none", skipped)
			}
			continue
		case "rerun":
			reached["rerun"] += rerunsForced(t, e, p.src)
		}
		if skipped == 0 {
			t.Errorf("%s: no call skipped", p.name)
		}
	}
	for _, edge := range []string{"step limit", "zero divisor", "never returns", "rerun"} {
		if reached[edge] == 0 {
			t.Errorf("no run reached the %s edge", edge)
		}
	}
}

// rerunsForced counts the runs of the rerun program in which main's
// foreign read comes while spin holds a skipped call's steps as credit,
// each run compared with the interpreter.
func rerunsForced(t *testing.T, e *edgeRunner, text string) int {
	t.Helper()
	line := strings.Count(text[:strings.Index(text, "int v = *cell;")], "\n") + 1
	read := -1 // the line's last load is the dereference
	for _, in := range e.src.Instrs {
		if in.Op == ir.OpLoad && in.Pos.Line == line {
			read = in.ID
		}
	}
	mask := make([]uint8, len(e.src.Instrs))
	mask[read] = 1
	forced := 0
	for seed := int64(0); seed < 32; seed++ {
		for mean := 1; mean <= 4; mean++ {
			cfg := vm.Config{Seed: seed, PreemptMean: mean}
			ref := interp.Run(e.src, cfg)
			held := false
			cfg.Hooks = vm.Hooks{StepMask: mask, OnStep: func(th *vm.Thread, in *ir.Instr, clock int64) {
				th.Traced = false
				held = held || in.ID == read && e.m.Credit(1) > 0
			}}
			outcomesEqual(t, "rerun/probe", seed, ref, e.m.Run(cfg))
			if held {
				forced++
			}
		}
	}
	return forced
}

// TestPureCallTraced: a thread tracing through PT executes its pure
// calls, so its core's bytes are the interpreter's, while an untraced
// thread of the same run skips the same callee; under a step hook
// without a mask, no call is skipped.
func TestPureCallTraced(t *testing.T) {
	const text = `
global int total = 0;
int leaf(int n) {
	int acc = 0;
	for (int i = 0; i < n; i++) { acc = acc + (i * 7 + 3) % 11; }
	return acc;
}
void worker(int n) {
	int r = leaf(n);
	total = total + r;
}
int main() {
	int a = leaf(120);
	int t = spawn(worker, 120);
	int b = leaf(120);
	join(t);
	return total + a + b;
}`
	src := ir.MustCompile("traced.mc", text)
	m := bytecode.NewMachine(bytecode.Compile(src))
	mask := make([]uint8, len(src.Instrs))
	mask[src.FuncByName["worker"].Entry().Instrs[0].ID] = 1 // the worker traces from its first step
	hooks := func(tr *pt.Tracer) vm.Hooks {
		return vm.Hooks{
			StepMask: mask,
			OnStep: func(th *vm.Thread, in *ir.Instr, clock int64) {
				if !tr.Enabled(th.ID) && mask[in.ID] != 0 {
					tr.Enable(th.ID, in.ID)
				}
				if th.Traced = tr.Enabled(th.ID); th.Traced {
					tr.InstrRetired(th.ID)
				}
			},
			OnBranch:   func(th *vm.Thread, in *ir.Instr, taken bool, clock int64) { tr.Branch(th.ID, in.ID, taken) },
			OnIndirect: func(th *vm.Thread, in, target *ir.Instr, clock int64) { tr.TIP(th.ID, in.ID, target.ID) },
		}
	}
	for seed := int64(0); seed < 8; seed++ {
		for mean := 1; mean <= 4; mean++ {
			cfg := vm.Config{Seed: seed, PreemptMean: mean}
			want, got := pt.NewTracer(pt.Config{}, nil), pt.NewTracer(pt.Config{}, nil)
			cfg.Hooks = hooks(want)
			ref := interp.Run(src, cfg)
			cfg.Hooks = hooks(got)
			outcomesEqual(t, "traced", seed, ref, m.Run(cfg))
			if m.Skips() == 0 {
				t.Fatalf("seed %d mean %d: main's calls were not skipped", seed, mean)
			}
			for core := 0; core < 2; core++ {
				a, _ := want.CoreBytes(core)
				b, _ := got.CoreBytes(core)
				if !bytes.Equal(a, b) {
					t.Fatalf("seed %d mean %d: core %d's PT bytes differ between the engines", seed, mean, core)
				}
			}
			if a, _ := want.CoreBytes(1); len(a) == 0 {
				t.Fatalf("seed %d mean %d: the worker traced nothing", seed, mean)
			}

			// A step hook without a mask watches every step of every
			// thread: nothing is skipped.
			var steps, stepsGot []hookEvent
			cfg.Hooks = streamHooks(&steps, true)
			interp.Run(src, cfg)
			cfg.Hooks = streamHooks(&stepsGot, true)
			outcomesEqual(t, "every step", seed, ref, m.Run(cfg))
			if d := firstDiff(steps, stepsGot); d != "" || m.Skips() != 0 {
				t.Fatalf("seed %d mean %d, every step watched: %d skips; %s", seed, mean, m.Skips(), d)
			}
		}
	}
}
