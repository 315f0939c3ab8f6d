package replay

import (
	"testing"
	"testing/quick"

	"repro/internal/ir"
	"repro/internal/vm"
)

const racy = `global int m = 0;
global int counter = 0;
void worker(int n) {
	for (int i = 0; i < n; i++) {
		lock(&m);
		counter = counter + 1;
		unlock(&m);
	}
}
int main() {
	int t1 = spawn(worker, 10);
	int t2 = spawn(worker, 10);
	join(t1);
	join(t2);
	return counter;
}`

func TestRecordReplayRoundTrip(t *testing.T) {
	prog := ir.MustCompile("t.mc", racy)
	for seed := int64(0); seed < 20; seed++ {
		log, meter := Record(prog, vm.Config{Seed: seed, PreemptMean: 2})
		if len(log.Events) == 0 {
			t.Fatalf("seed %d: empty log", seed)
		}
		if meter.OverheadPct() <= 0 {
			t.Fatalf("seed %d: no recording overhead", seed)
		}
		out, err := Replay(prog, log)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if out.Exit != log.Outcome.Exit {
			t.Fatalf("seed %d: replayed exit %d, recorded %d", seed, out.Exit, log.Outcome.Exit)
		}
	}
}

func TestReplayOfFailingRun(t *testing.T) {
	prog := ir.MustCompile("t.mc", `
struct q { int* mut; };
global struct q* g;
void cons(int a) { struct q* f = g; unlock(f->mut); }
int main() {
	g = malloc(sizeof(q));
	g->mut = malloc(8);
	int t = spawn(cons, 0);
	free(g->mut);
	g->mut = null;
	join(t);
	return 0;
}`)
	var log *Log
	for seed := int64(0); seed < 300; seed++ {
		l, _ := Record(prog, vm.Config{Seed: seed, PreemptMean: 3})
		if l.Outcome.Failed {
			log = l
			break
		}
	}
	if log == nil {
		t.Fatal("no failing recording found")
	}
	out, err := Replay(prog, log)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if !out.Failed || out.Report.ID() != log.Outcome.Report.ID() {
		t.Fatal("failure not reproduced under replay")
	}
}

func TestRecordingLogsSharedAccessesOnly(t *testing.T) {
	prog := ir.MustCompile("t.mc", `
global int g;
int main() {
	int local = 0;
	for (int i = 0; i < 50; i++) { local = local + i; }
	g = local;
	return g;
}`)
	log, _ := Record(prog, vm.Config{Seed: 1})
	// g is the program's only shared location: the loop's traffic on
	// local and i never reaches the log, the single store to g and the
	// load for the return value do.
	var stores, loads int
	for _, e := range log.Events {
		if e.Kind != EvLoad && e.Kind != EvStore {
			continue
		}
		if e.Addr != vm.GlobalsBase {
			t.Fatalf("access recorded off the one global: %+v", e)
		}
		if e.Kind == EvStore {
			stores++
		} else {
			loads++
		}
	}
	if loads != 1 {
		t.Errorf("expected exactly 1 shared load, got %d", loads)
	}
	if stores != 1 {
		t.Errorf("expected exactly 1 shared store, got %d", stores)
	}
}

func TestRecordOverheadDwarfsBase(t *testing.T) {
	// Record/replay of shared-memory-heavy code must cost orders of
	// magnitude more than the hardware approaches (the Fig. 13 shape).
	prog := ir.MustCompile("t.mc", `
global int a;
int main() {
	for (int i = 0; i < 500; i++) { a = a + i; }
	return a;
}`)
	pct := OverheadPct(prog, vm.Config{Seed: 1})
	if pct < 100 {
		t.Errorf("record/replay overhead suspiciously low: %.1f%%", pct)
	}
}

// Property: recording is deterministic in the seed — same seed, same log.
func TestRecordDeterminism(t *testing.T) {
	prog := ir.MustCompile("t.mc", racy)
	f := func(seed int64) bool {
		a, _ := Record(prog, vm.Config{Seed: seed, PreemptMean: 2})
		b, _ := Record(prog, vm.Config{Seed: seed, PreemptMean: 2})
		if len(a.Events) != len(b.Events) {
			return false
		}
		for i := range a.Events {
			if a.Events[i] != b.Events[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
