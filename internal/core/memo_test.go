package core

import (
	"reflect"
	"testing"

	"repro/internal/cfg"
	"repro/internal/faults"
	"repro/internal/ir"
	"repro/internal/telemetry"
	"repro/internal/vm"
	"repro/internal/vm/interp"
)

// memoHits reads tel's vm.run_memo_hit counter.
func memoHits(tel *telemetry.Tracer) int64 { return tel.Snapshot().Counters["vm.run_memo_hit"] }

// spawnIfProg spawns a worker only when its input is positive, and
// touches five globals, so a plan tracking all of it has five location
// classes and two watch groups. The loop gives a forced-tiny ring buffer
// something to lose.
const spawnIfProg = `global int a = 0;
global int b = 0;
global int c = 0;
global int d = 0;
global int e = 0;
void worker(int n) {
	a = a + n;
}
int main() {
	int n = input(0);
	if (n > 0) {
		int t = spawn(worker, n);
		join(t);
	}
	for (int i = 0; i < 400; i++) {
		if (i % 3 == 0) { b = b + i; }
	}
	c = a + b;
	d = c * 2;
	e = d - a;
	return e;
}`

// TestRunMemoServesOnlySpawnFreeRuns checks the memo's key on a program
// whose one workload spawns and whose other does not: the spawning
// workload is never served, the other from its second run on, and a
// different watch group or a forced-tiny ring buffer is a key of its own.
// Every run must equal a fresh execution.
func TestRunMemoServesOnlySpawnFreeRuns(t *testing.T) {
	prog := ir.MustCompile("spawnif.mc", spawnIfProg)
	g := cfg.BuildTICFG(prog)
	all := make([]int, len(prog.Instrs))
	for id := range all {
		all[id] = id
	}
	spawns := vm.Workload{Ints: []int64{3}}
	single := vm.Workload{Ints: []int64{0}}
	for engine, run := range map[string]execFunc{"bytecode": nil, "interp": interp.Run} {
		plan := BuildPlan(g, all, AllFeatures())
		plan.exec = run
		plan.Telemetry = telemetry.New()
		if plan.groups != 2 {
			t.Fatalf("want 2 watch groups, the plan has %d", plan.groups)
		}
		var seed int64
		// do runs one job under plan and on a fresh plan, each with a
		// fresh decision from decide, and reports whether plan's memo
		// served it.
		do := func(endpoint int, w vm.Workload, decide func() faults.Decision) (*RunTrace, bool) {
			t.Helper()
			seed++
			spec := RunSpec{EndpointID: endpoint, Seed: seed, Workload: w, PreemptMean: 3, MaxSteps: 100_000}
			before := memoHits(plan.Telemetry)
			got := RunInstrumentedFaults(plan, spec, decide())
			hit := memoHits(plan.Telemetry) > before
			fresh := BuildPlan(g, all, AllFeatures())
			fresh.exec = run
			if want := RunInstrumentedFaults(fresh, spec, decide()); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: endpoint %d seed %d %v (hit %v): the run differs from a fresh execution", engine, endpoint, seed, w.Ints, hit)
			}
			return got, hit
		}
		clean := func() faults.Decision { return faults.Decision{} }
		overflow := func() faults.Decision { return faults.Decision{Overflow: true} }
		for i := 0; i < 4; i++ {
			if _, hit := do(0, spawns, clean); hit {
				t.Errorf("%s: spawning run %d served from the memo", engine, i)
			}
			if _, hit := do(0, single, clean); hit != (i > 0) {
				t.Errorf("%s: spawn-free run %d: memo hit %v, want %v", engine, i, hit, i > 0)
			}
		}
		group0, _ := do(2, single, clean)
		group1, hit := do(1, single, clean)
		if hit {
			t.Errorf("%s: the first run in watch group 1 was served group 0's record", engine)
		}
		if reflect.DeepEqual(group0.Traps, group1.Traps) {
			t.Errorf("%s: both watch groups trap the same accesses; the group key is untested", engine)
		}
		if _, hit := do(3, single, clean); !hit {
			t.Errorf("%s: the second run in watch group 1 was not served", engine)
		}
		// A served copy that FinishRun corrupts, thins and reorders must
		// leave the stored record as it was for the next copy.
		inFlight := faults.NewInjector(faults.Config{Seed: 1, CorruptRate: 1, TrapDropRate: 1, TrapReorderRate: 1})
		damaged, hit := do(0, single, func() faults.Decision { return inFlight.ForRun(0, seed) })
		if !hit || damaged.DroppedTraps == 0 {
			t.Errorf("%s: want a served run with in-flight damage; hit %v, %d traps dropped", engine, hit, damaged.DroppedTraps)
		}
		if _, hit := do(2, single, clean); !hit {
			t.Errorf("%s: the run after a damaged copy was not served", engine)
		}
		// The first run under a forced-tiny buffer is damaged in flight
		// too: the record it stored must not carry the damage.
		squeezed := faults.NewInjector(faults.Config{Seed: 1, OverflowRate: 1, CorruptRate: 1, TrapDropRate: 1, TrapReorderRate: 1})
		if _, hit := do(0, single, func() faults.Decision { return squeezed.ForRun(0, seed) }); hit {
			t.Errorf("%s: an overflowing run was served the full buffer's record", engine)
		}
		small, hit := do(2, single, overflow)
		if !hit {
			t.Errorf("%s: the second overflowing run was not served", engine)
		}
		if reflect.DeepEqual(small.PT, group0.PT) {
			t.Errorf("%s: the tiny buffer recorded what the full one did; the buffer key is untested", engine)
		}
	}
}
