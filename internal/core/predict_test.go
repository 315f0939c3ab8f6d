package core

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/hw/pt"
	"repro/internal/hw/watch"
	"repro/internal/ir"
)

// synthTrace fabricates a run trace with random branch outcomes and
// watchpoint traps over prog's instruction space. A small address pool
// and thread pool makes cross-thread order patterns (WW/WR/RW pairs and
// the atomicity triples) actually occur.
func synthTrace(rng *rand.Rand, prog *ir.Program) *RunTrace {
	rt := &RunTrace{
		Branches: make(map[int][]pt.BranchObs),
	}
	nInstr := len(prog.Instrs)
	// Branch observations across a few threads, including an occasional
	// out-of-range IP that extraction must skip.
	for th := 0; th < 1+rng.Intn(3); th++ {
		n := rng.Intn(6)
		for i := 0; i < n; i++ {
			ip := rng.Intn(nInstr)
			if rng.Intn(10) == 0 {
				ip = nInstr + rng.Intn(5) // invalid on purpose
			}
			rt.Branches[th] = append(rt.Branches[th], pt.BranchObs{IP: ip, Taken: rng.Intn(2) == 0})
		}
	}
	// Watchpoint traps over a tiny address pool so adjacent cross-thread
	// pairs and t1-t2-t1 triples show up.
	n := rng.Intn(10)
	for i := 0; i < n; i++ {
		id := rng.Intn(nInstr)
		if rng.Intn(12) == 0 {
			id = -1 - rng.Intn(3) // invalid on purpose
		}
		rt.Traps = append(rt.Traps, watch.Trap{
			InstrID: id,
			Addr:    int64(1000 + 8*rng.Intn(3)),
			Val:     int64(rng.Intn(5) - 2),
			Thread:  rng.Intn(3),
			IsWrite: rng.Intn(2) == 0,
			Clock:   int64(i),
		})
	}
	// Some runs have corrupt PT data: branch predictors must be ignored
	// for them.
	if rng.Intn(5) == 0 {
		rt.DecodeErr = errors.New("synthetic decode corruption")
	}
	return rt
}

// twoBugs has two independent failure modes: a workload-dependent
// division by zero and a schedule-dependent use-after-free.
const twoBugs = `global int* shared;
global int out = 0;
int work(int n) {
	int acc = 0;
	for (int i = 0; i < n; i++) { acc = acc + i % 3; }
	return acc;
}
void reader(int arg) {
	int w = work(50);
	out = shared[0];
}
int main() {
	int d = input(0);
	out = 100 / d;
	shared = malloc(32);
	shared[0] = 4;
	int t = spawn(reader, 0);
	int w = work(48);
	free(shared);
	join(t);
	return out;
}`

// TestRankPredictorsIgnoresAdmissionOrder pins that a ranking is a
// function of the two populations, not of the order their runs were
// admitted in: shuffling the failing and the successful runs leaves
// every field of every entry unchanged, in the same order. That holds
// only if the Predictor a key keeps is canonical, whichever run
// introduced the key first.
func TestRankPredictorsIgnoresAdmissionOrder(t *testing.T) {
	prog := ir.MustCompile("two.mc", twoBugs)
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		beta := []float64{0.5, 1, 2}[trial%3]
		var failing, successful []*RunTrace
		for e := 1 + rng.Intn(20); e > 0; e-- {
			// Trial 0 keeps every run successful: with no failing run
			// every recall is pinned to zero.
			if trial != 0 && rng.Intn(2) == 0 {
				failing = append(failing, synthTrace(rng, prog))
			} else {
				successful = append(successful, synthTrace(rng, prog))
			}
		}
		want := rankPredictors(prog, failing, successful, beta)
		for perm := 0; perm < 5; perm++ {
			rng.Shuffle(len(failing), func(i, j int) { failing[i], failing[j] = failing[j], failing[i] })
			rng.Shuffle(len(successful), func(i, j int) { successful[i], successful[j] = successful[j], successful[i] })
			got := rankPredictors(prog, failing, successful, beta)
			if len(got) != len(want) {
				t.Fatalf("trial %d perm %d: %d ranked, want %d", trial, perm, len(got), len(want))
			}
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("trial %d perm %d rank %d: %+v, want %+v", trial, perm, i, got[i], want[i])
				}
			}
		}
	}
}
