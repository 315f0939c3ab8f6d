package vm_test

import (
	"testing"
	"testing/quick"

	"repro/internal/ir"
	"repro/internal/vm"
	"repro/internal/vm/interp"
)

// run executes src on the reference interpreter: these tests pin the
// semantics that the differential suites then hold the bytecode engine to.
func run(t *testing.T, src string, cfg vm.Config) *vm.Outcome {
	t.Helper()
	p, err := ir.Compile("t.mc", src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return interp.Run(p, cfg)
}

func mustExit(t *testing.T, src string, want int64) {
	t.Helper()
	out := run(t, src, vm.Config{Seed: 1})
	if out.Failed {
		t.Fatalf("unexpected failure: %v", out.Report)
	}
	if out.Exit != want {
		t.Fatalf("exit: got %d, want %d", out.Exit, want)
	}
}

func TestArithmetic(t *testing.T) {
	mustExit(t, `int main() { return (2 + 3) * 4 - 6 / 2; }`, 17)
	mustExit(t, `int main() { return 17 % 5; }`, 2)
	mustExit(t, `int main() { return -(3 - 10); }`, 7)
	mustExit(t, `int main() { return !0 + !5; }`, 1)
	mustExit(t, `int main() { return (1 < 2) + (2 <= 2) + (3 > 2) + (2 >= 3) + (1 == 1) + (1 != 1); }`, 4)
}

func TestShortCircuitSemantics(t *testing.T) {
	// The RHS must not execute when the LHS decides: a division by zero
	// in the RHS would fault.
	mustExit(t, `int main() { int z = 0; if (0 && 1/z) { return 1; } return 2; }`, 2)
	mustExit(t, `int main() { int z = 0; if (1 || 1/z) { return 3; } return 4; }`, 3)
	mustExit(t, `int main() { return (5 && 7) + (0 || 9); }`, 2)
}

func TestLoops(t *testing.T) {
	mustExit(t, `int main() { int s = 0; for (int i = 1; i <= 10; i++) { s = s + i; } return s; }`, 55)
	mustExit(t, `int main() { int i = 0; while (i < 7) { i++; } return i; }`, 7)
	mustExit(t, `
int main() {
	int s = 0;
	for (int i = 0; i < 10; i++) {
		if (i == 3) { continue; }
		if (i == 6) { break; }
		s = s + i;
	}
	return s;
}`, 0+1+2+4+5)
}

func TestFunctionsAndRecursion(t *testing.T) {
	mustExit(t, `
int fib(int n) {
	if (n < 2) { return n; }
	return fib(n-1) + fib(n-2);
}
int main() { return fib(10); }`, 55)
}

func TestGlobalsAndPointers(t *testing.T) {
	mustExit(t, `
global int g = 40;
int main() {
	int* p = &g;
	*p = *p + 2;
	return g;
}`, 42)
	mustExit(t, `
int main() {
	int* a = malloc(24);
	a[0] = 10; a[1] = 20; a[2] = 12;
	int* p = a + 1;
	return a[0] + *p + a[2];
}`, 42)
}

func TestStructs(t *testing.T) {
	mustExit(t, `
struct node { int val; struct node* next; };
int main() {
	struct node* a = malloc(sizeof(node));
	struct node* b = malloc(sizeof(node));
	a->val = 1; a->next = b;
	b->val = 2; b->next = null;
	int s = 0;
	struct node* it = a;
	while (it != null) { s = s + it->val; it = it->next; }
	return s;
}`, 3)
}

func TestStrings(t *testing.T) {
	mustExit(t, `int main() { return strlen("hello"); }`, 5)
	mustExit(t, `int main() { string s = "abc"; return s[0] + s[2]; }`, int64('a'+'c'))
	out := run(t, `int main() { prints("hi"); print(1, 2); return 0; }`, vm.Config{Seed: 1})
	if len(out.Prints) != 2 || out.Prints[0] != "hi" || out.Prints[1] != "1 2" {
		t.Errorf("prints: %v", out.Prints)
	}
}

func TestWorkloadInputs(t *testing.T) {
	out := run(t, `int main() { string s = input_str(0); return input(0) + input(1) + strlen(s); }`,
		vm.Config{Seed: 1, Workload: vm.Workload{Ints: []int64{10, 20}, Strs: []string{"abcd"}}})
	if out.Failed || out.Exit != 34 {
		t.Fatalf("got %+v", out)
	}
	// Out-of-range input reads yield zero values.
	mustExit(t, `int main() { return input(99); }`, 0)
}

func TestFaults(t *testing.T) {
	cases := []struct {
		src  string
		kind vm.FaultKind
	}{
		{`int main() { int* p = null; return *p; }`, vm.FaultNullDeref},
		{`int main() { int* p = null; *p = 1; return 0; }`, vm.FaultNullDeref},
		{`int main() { int* p = malloc(8); free(p); free(p); return 0; }`, vm.FaultDoubleFree},
		{`int main() { int* p = malloc(8); free(p); return *p; }`, vm.FaultUseAfterFree},
		{`int main() { int* p = malloc(8); int* q = p + 1; free(q); return 0; }`, vm.FaultInvalidFree},
		{`int main() { int* p = malloc(8); return p[5]; }`, vm.FaultOutOfBounds},
		{`int main() { assert(1 == 2); return 0; }`, vm.FaultAssert},
		{`int main() { int z = 0; return 5 / z; }`, vm.FaultDivZero},
		{`int main() { int z = 0; return 5 % z; }`, vm.FaultDivZero},
		{`int main() { return strlen(null); }`, vm.FaultNullDeref},
		{`int main() { while (1) { } return 0; }`, vm.FaultHang},
		{`global int m; int main() { lock(&m); lock(&m); return 0; }`, vm.FaultDeadlock},
	}
	for _, c := range cases {
		out := run(t, c.src, vm.Config{Seed: 1, MaxSteps: 50_000})
		if !out.Failed {
			t.Errorf("source %q: expected failure %v, got success (exit %d)", c.src, c.kind, out.Exit)
			continue
		}
		if out.Report.Kind != c.kind {
			t.Errorf("source %q: got %v, want %v", c.src, out.Report.Kind, c.kind)
		}
		if out.Report.ID() == "" || len(out.Report.Stack) == 0 {
			t.Errorf("source %q: incomplete report %+v", c.src, out.Report)
		}
	}
}

func TestDeadlockReportCarriesAllBlockedPCs(t *testing.T) {
	src := `
global int a = 0;
global int b = 0;
void t1(int x) { lock(&a); yield(); lock(&b); unlock(&b); unlock(&a); }
void t2(int x) { lock(&b); yield(); lock(&a); unlock(&a); unlock(&b); }
int main() {
	int p = spawn(t1, 0);
	int q = spawn(t2, 0);
	join(p);
	join(q);
	return 0;
}`
	p, err := ir.Compile("t.mc", src)
	if err != nil {
		t.Fatal(err)
	}
	var report *vm.FailureReport
	for seed := int64(0); seed < 300; seed++ {
		out := interp.Run(p, vm.Config{Seed: seed, PreemptMean: 2, MaxSteps: 50_000})
		if out.Failed && out.Report.Kind == vm.FaultDeadlock {
			report = out.Report
			break
		}
	}
	if report == nil {
		t.Fatal("no deadlock observed")
	}
	if len(report.OtherPCs) == 0 {
		t.Fatalf("deadlock report misses the other cycle participant: %+v", report)
	}
	// The main report and the other PC must be lock callsites on
	// different lines.
	other := p.Instrs[report.OtherPCs[0]]
	if other.Pos.Line == report.Pos.Line {
		t.Errorf("cycle participants on the same line: %d", other.Pos.Line)
	}
}

func TestFreeNullIsNoop(t *testing.T) {
	mustExit(t, `int main() { free(null); return 0; }`, 0)
}

func TestThreadsComputeInParallel(t *testing.T) {
	src := `
global int a = 0;
global int b = 0;
void workerA(int x) { a = x * 2; }
void workerB(int x) { b = x + 5; }
int main() {
	int t1 = spawn(workerA, 10);
	int t2 = spawn(workerB, 10);
	join(t1);
	join(t2);
	return a + b;
}`
	for seed := int64(0); seed < 20; seed++ {
		out := run(t, src, vm.Config{Seed: seed})
		if out.Failed {
			t.Fatalf("seed %d: %v", seed, out.Report)
		}
		if out.Exit != 35 {
			t.Fatalf("seed %d: exit %d", seed, out.Exit)
		}
	}
}

func TestMutexProvidesExclusion(t *testing.T) {
	src := `
global int m = 0;
global int counter = 0;
void worker(int n) {
	for (int i = 0; i < n; i++) {
		lock(&m);
		int c = counter;
		c = c + 1;
		counter = c;
		unlock(&m);
	}
}
int main() {
	int t1 = spawn(worker, 50);
	int t2 = spawn(worker, 50);
	join(t1);
	join(t2);
	return counter;
}`
	for seed := int64(0); seed < 10; seed++ {
		out := run(t, src, vm.Config{Seed: seed, PreemptMean: 2})
		if out.Failed {
			t.Fatalf("seed %d: %v", seed, out.Report)
		}
		if out.Exit != 100 {
			t.Fatalf("seed %d: counter = %d, want 100 (mutex broken)", seed, out.Exit)
		}
	}
}

func TestRacyIncrementLosesUpdates(t *testing.T) {
	// Without the mutex, some schedule must lose an update.
	src := `
global int counter = 0;
void worker(int n) {
	for (int i = 0; i < n; i++) {
		int c = counter;
		c = c + 1;
		counter = c;
	}
}
int main() {
	int t1 = spawn(worker, 30);
	int t2 = spawn(worker, 30);
	join(t1);
	join(t2);
	return counter;
}`
	lost := false
	for seed := int64(0); seed < 30; seed++ {
		out := run(t, src, vm.Config{Seed: seed, PreemptMean: 2})
		if out.Failed {
			t.Fatalf("seed %d: %v", seed, out.Report)
		}
		if out.Exit < 60 {
			lost = true
		}
	}
	if !lost {
		t.Error("no schedule lost an update; preemption too coarse?")
	}
}

const pbzipLike = `
struct queue { int* mut; int size; };
global struct queue* fifo;
global int work = 0;
void cons(int arg) {
	struct queue* f = fifo;
	work = work + f->size;
	unlock(f->mut);
}
int main() {
	fifo = malloc(sizeof(queue));
	fifo->mut = malloc(8);
	fifo->size = 7;
	int t = spawn(cons, 0);
	int spin = 0;
	for (int i = 0; i < 1; i++) { spin = spin + i; }
	free(fifo->mut);
	fifo->mut = null;
	join(t);
	return 0;
}`

func TestPbzipLikeBugIsScheduleDependent(t *testing.T) {
	fails, successes := 0, 0
	for seed := int64(0); seed < 150; seed++ {
		out := run(t, pbzipLike, vm.Config{Seed: seed, PreemptMean: 3})
		if out.Failed {
			fails++
			k := out.Report.Kind
			if k != vm.FaultNullDeref && k != vm.FaultUseAfterFree {
				t.Fatalf("seed %d: unexpected fault %v", seed, k)
			}
		} else {
			successes++
		}
	}
	if fails == 0 || successes == 0 {
		t.Fatalf("need both outcomes: fails=%d successes=%d", fails, successes)
	}
}

func TestDeterminism(t *testing.T) {
	p, err := ir.Compile("t.mc", pbzipLike)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		a := interp.Run(p, vm.Config{Seed: seed, PreemptMean: 3})
		b := interp.Run(p, vm.Config{Seed: seed, PreemptMean: 3})
		if a.Failed != b.Failed || a.Exit != b.Exit || a.Steps != b.Steps {
			return false
		}
		if a.Failed && a.Report.ID() != b.Report.ID() {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestHooksFire(t *testing.T) {
	var steps, branches, loads, stores, scheds, spawns, stack int
	data := func(n *int) func(*vm.Thread, *ir.Instr, int64, int64, int64, int64) {
		return func(_ *vm.Thread, _ *ir.Instr, addr, _, _, _ int64) {
			*n++
			if vm.IsStackAddr(addr) {
				stack++
			}
		}
	}
	cfg := vm.Config{Seed: 3, PreemptMean: 2}
	cfg.Hooks = vm.Hooks{
		OnStep:     func(*vm.Thread, *ir.Instr, int64) { steps++ },
		OnBranch:   func(_ *vm.Thread, _ *ir.Instr, _ bool, _ int64) { branches++ },
		OnLoad:     data(&loads),
		OnStore:    data(&stores),
		OnSchedule: func(_, _ int, _ int64) { scheds++ },
		OnSpawn:    func(_, _ int, _ *ir.Func, _ int64) { spawns++ },
	}
	out := run(t, pbzipLike, cfg)
	if steps == 0 || branches == 0 || loads == 0 || stores == 0 || spawns != 1 {
		t.Errorf("hooks: steps=%d branches=%d loads=%d stores=%d scheds=%d spawns=%d outcome=%+v",
			steps, branches, loads, stores, scheds, spawns, out)
	}
	if int64(steps) != out.Steps {
		t.Errorf("OnStep count %d != Steps %d", steps, out.Steps)
	}
	// The data hooks report shared memory only; pbzipLike's threads keep
	// locals, so stack accesses did happen.
	if stack != 0 {
		t.Errorf("OnLoad/OnStore were handed %d stack accesses, want none", stack)
	}
}

func TestStackIsolationBetweenThreads(t *testing.T) {
	src := `
global int r1 = 0;
global int r2 = 0;
void w1(int x) { int local = x; for (int i = 0; i < 20; i++) { local = local + 1; } r1 = local; }
void w2(int x) { int local = x; for (int i = 0; i < 20; i++) { local = local + 2; } r2 = local; }
int main() {
	int t1 = spawn(w1, 100);
	int t2 = spawn(w2, 200);
	join(t1); join(t2);
	return r1 + r2;
}`
	for seed := int64(0); seed < 10; seed++ {
		out := run(t, src, vm.Config{Seed: seed, PreemptMean: 1})
		if out.Failed || out.Exit != 120+240 {
			t.Fatalf("seed %d: %+v", seed, out)
		}
	}
}

func TestStackOverflowDetected(t *testing.T) {
	out := run(t, `
int rec(int n) { int pad = n; return rec(n + pad - pad + 1); }
int main() { return rec(0); }`, vm.Config{Seed: 1, MaxSteps: 10_000_000})
	if !out.Failed || out.Report.Kind != vm.FaultStackOverflow {
		t.Fatalf("got %+v", out)
	}
}

func TestFailureIDStableAcrossSeeds(t *testing.T) {
	// The same bug manifesting in different runs must match (same failing
	// instruction + stack), which is how the Gist server groups reports.
	p, err := ir.Compile("t.mc", pbzipLike)
	if err != nil {
		t.Fatal(err)
	}
	idsByKind := make(map[vm.FaultKind]map[string]bool)
	for seed := int64(0); seed < 200; seed++ {
		out := interp.Run(p, vm.Config{Seed: seed, PreemptMean: 3})
		if !out.Failed {
			continue
		}
		m := idsByKind[out.Report.Kind]
		if m == nil {
			m = make(map[string]bool)
			idsByKind[out.Report.Kind] = m
		}
		m[out.Report.ID()] = true
	}
	if len(idsByKind) == 0 {
		t.Fatal("no failing seeds found")
	}
	for kind, ids := range idsByKind {
		if len(ids) != 1 {
			t.Errorf("fault kind %v produced %d distinct failure IDs, want 1: %v", kind, len(ids), ids)
		}
	}
}
