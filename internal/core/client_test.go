package core

import (
	"testing"

	"repro/internal/cfg"
	"repro/internal/ir"
	"repro/internal/vm"
	"repro/internal/vm/interp"
)

const clientProg = `global int g = 0;
global int h = 0;
int work(int n) {
	int acc = 0;
	for (int i = 0; i < n; i++) { acc = acc + i % 7; }
	return acc;
}
int main() {
	int w = work(500);
	g = w % 5;
	if (g > 1) {
		h = g * 2;
	}
	h = h + 1;
	return h;
}`

func clientPlan(t *testing.T, lines []int, feats Features) (*ir.Program, *Plan) {
	t.Helper()
	prog := ir.MustCompile("client.mc", clientProg)
	g := cfg.BuildTICFG(prog)
	want := map[int]bool{}
	for _, ln := range lines {
		want[ln] = true
	}
	var tracked []int
	for _, in := range prog.Instrs {
		if want[in.Pos.Line] {
			tracked = append(tracked, in.ID)
		}
	}
	return prog, BuildPlan(g, tracked, feats)
}

func TestClientTracesOnlyPlannedRegions(t *testing.T) {
	// Track lines 10-12 (g store, the if, h store); the work loop (lines
	// 3-7) must not appear in decoded flow.
	prog, plan := clientPlan(t, []int{10, 11, 12}, AllFeatures())
	rt := RunInstrumented(plan, RunSpec{Seed: 3, MaxSteps: 100_000})
	if rt.Failed() {
		t.Fatalf("run failed: %v", rt.Outcome.Report)
	}
	if rt.DecodeErr != nil {
		t.Fatalf("decode: %v", rt.DecodeErr)
	}
	if len(rt.Executed) == 0 {
		t.Fatal("nothing traced")
	}
	for id := range rt.Executed {
		ln := prog.Instrs[id].Pos.Line
		if ln >= 4 && ln <= 6 {
			t.Errorf("work-loop line %d traced despite not being planned", ln)
		}
	}
	// All tracked instructions that executed must be observed.
	for _, id := range plan.Tracked {
		if !rt.Executed[id] && prog.Instrs[id].Pos.Line == 10 {
			t.Errorf("tracked instruction %%%d (line 10) not observed", id)
		}
	}
}

// TestClientStopLandsAfterOwnPackets pins when a stop takes effect: PT is
// disabled at the thread's next step, not at the stop instruction's own,
// so a window that ends in a branch still records that branch's outcome.
func TestClientStopLandsAfterOwnPackets(t *testing.T) {
	// Track the g store and the `if (g > 1)` up to its branch.
	prog, lines := clientPlan(t, []int{10, 11}, AllFeatures())
	var tracked []int
	for _, id := range lines.Tracked {
		if prog.Instrs[id].Op != ir.OpJmp {
			tracked = append(tracked, id)
		}
	}
	plan := BuildPlan(cfg.BuildTICFG(prog), tracked, AllFeatures())
	last := tracked[len(tracked)-1]
	if prog.Instrs[last].Op != ir.OpBr || !plan.StopAfter[last] {
		t.Fatalf("test needs the window to stop after a branch; last tracked is %v, stops %v", prog.Instrs[last].Op, plan.StopAfter)
	}
	for engine, run := range map[string]execFunc{"bytecode": nil, "interp": interp.Run} {
		plan.exec = run
		rt := RunInstrumented(plan, RunSpec{Seed: 3, MaxSteps: 100_000})
		if rt.DecodeErr != nil {
			t.Fatalf("%v: decode: %v", engine, rt.DecodeErr)
		}
		if !rt.Executed[last] {
			t.Errorf("%v: the stop branch %%%d is missing from the decoded flow %v", engine, last, rt.Flow)
		}
		if len(rt.BranchOutcomes(prog)[last]) != 1 {
			t.Errorf("%v: want exactly one recorded outcome for the stop branch %%%d, got branches %v", engine, last, rt.Branches)
		}
	}
}

func TestClientMeterCountsEverything(t *testing.T) {
	_, plan := clientPlan(t, []int{10, 12}, AllFeatures())
	rt := RunInstrumented(plan, RunSpec{Seed: 3, MaxSteps: 100_000})
	if got := rt.Meter.BaseCycles(); got != float64(rt.Outcome.Steps) {
		t.Errorf("base cycles %.0f != steps %d", got, rt.Outcome.Steps)
	}
	if rt.Meter.ExtraCycles() <= 0 {
		t.Error("instrumentation recorded no overhead")
	}
}

func TestClientWatchGroupsRespected(t *testing.T) {
	// Two globals tracked; both are in the (single) watch group, so both
	// addresses trap.
	_, plan := clientPlan(t, []int{10, 12, 13}, AllFeatures())
	rt := RunInstrumented(plan, RunSpec{Seed: 3, MaxSteps: 100_000})
	addrs := map[int64]bool{}
	for _, tr := range rt.Traps {
		addrs[tr.Addr] = true
	}
	if len(addrs) < 2 {
		t.Errorf("expected traps on both globals, got addresses %v (traps %v)", addrs, rt.Traps)
	}
}

func TestClientStaticOnlyNoInstrumentation(t *testing.T) {
	_, plan := clientPlan(t, []int{10, 12}, Features{Static: true})
	rt := RunInstrumented(plan, RunSpec{Seed: 3, MaxSteps: 100_000})
	if len(rt.Flow) != 0 || len(rt.Traps) != 0 {
		t.Error("static-only run produced traces")
	}
	if rt.Meter.ExtraCycles() != 0 {
		t.Errorf("static-only run charged overhead: %f", rt.Meter.ExtraCycles())
	}
}

func TestClientDeterministic(t *testing.T) {
	_, plan := clientPlan(t, []int{10, 11, 12, 13}, AllFeatures())
	a := RunInstrumented(plan, RunSpec{Seed: 9, MaxSteps: 100_000})
	b := RunInstrumented(plan, RunSpec{Seed: 9, MaxSteps: 100_000})
	if len(a.Traps) != len(b.Traps) || a.Outcome.Steps != b.Outcome.Steps {
		t.Fatalf("nondeterministic client: %d/%d traps, %d/%d steps",
			len(a.Traps), len(b.Traps), a.Outcome.Steps, b.Outcome.Steps)
	}
	for i := range a.Traps {
		if a.Traps[i] != b.Traps[i] {
			t.Fatalf("trap %d differs", i)
		}
	}
}

func TestDeadlockDiagnosis(t *testing.T) {
	// A lock-order inversion: Gist handles hangs/deadlocks as failures
	// too (§3.3 "can understand common failures, such as crashes,
	// assertion violations, and hangs").
	src := `global int mA = 0;
global int mB = 0;
global int done = 0;
int work(int n) {
	int acc = 0;
	for (int i = 0; i < n; i++) { acc = acc + i % 3; }
	return acc;
}
void t1(int arg) {
	lock(&mA);
	int w = work(30);
	lock(&mB);
	done = done + 1;
	unlock(&mB);
	unlock(&mA);
}
void t2(int arg) {
	lock(&mB);
	int w = work(30);
	lock(&mA);
	done = done + 1;
	unlock(&mA);
	unlock(&mB);
}
int main() {
	int warm = work(2000);
	int a = spawn(t1, 0);
	int b = spawn(t2, 0);
	join(a);
	join(b);
	return done;
}`
	prog := ir.MustCompile("deadlock.mc", src)
	res, err := Run(Config{Prog: prog, Title: "lock-order inversion", Endpoints: 30, SeedBase: 1, PreemptMean: 3})
	if err != nil {
		t.Fatalf("gist: %v", err)
	}
	sk := res.Sketch
	if sk.Report.Kind != vm.FaultDeadlock {
		t.Fatalf("expected a deadlock diagnosis, got %v", sk.Report.Kind)
	}
	// The sketch must include the blocked lock acquisition...
	found := false
	lockLines := map[int]bool{}
	for _, s := range sk.Steps {
		if s.Text == "lock(&mB);" || s.Text == "lock(&mA);" {
			lockLines[s.Line] = true
			if s.IsFailure {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("deadlock sketch does not end at a lock statement:\n%s", sk.Render())
	}
	// ...and, via the report's other blocked PCs, the whole inversion:
	// both lock statements of the cycle.
	if len(lockLines) < 2 {
		t.Errorf("deadlock sketch shows only one side of the inversion:\n%s", sk.Render())
	}
	if len(sk.Threads) < 2 {
		t.Errorf("deadlock sketch should show both blocked threads, got %v", sk.Threads)
	}
}
