package core

import (
	"errors"
	"math/rand"
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
	// for them, identically in streaming and batch form.
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

// TestPredictorAccumMatchesBatch is the core-level half of the
// streaming-equals-batch proof: feeding random run streams one at a time
// through PredictorAccum yields, at every prefix, exactly the ranking
// RankPredictors computes from the retained populations — every field of
// every entry, in the same order.
func TestPredictorAccumMatchesBatch(t *testing.T) {
	prog := ir.MustCompile("two.mc", twoBugs)
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		beta := []float64{0.5, 1, 2}[trial%3]
		acc := NewPredictorAccum(prog, beta)
		var failing, successful []*RunTrace
		events := 1 + rng.Intn(20)
		for e := 0; e < events; e++ {
			rt := synthTrace(rng, prog)
			// Trial 0 keeps every run successful: totalFail==0 must rank
			// identically too (all recalls pinned to zero).
			isFail := trial != 0 && rng.Intn(2) == 0
			if isFail {
				failing = append(failing, rt)
			} else {
				successful = append(successful, rt)
			}
			acc.Observe(rt, isFail)

			if acc.TotalFail() != len(failing) {
				t.Fatalf("trial %d event %d: TotalFail = %d, want %d", trial, e, acc.TotalFail(), len(failing))
			}
			got := acc.Ranked()
			want := RankPredictors(prog, failing, successful, beta)
			if len(got) != len(want) {
				t.Fatalf("trial %d event %d: %d ranked streaming vs %d batch", trial, e, len(got), len(want))
			}
			for i := range want {
				g, w := got[i], want[i]
				if g.Key != w.Key || g.Kind != w.Kind || g.Desc != w.Desc || g.Pattern != w.Pattern || g.Value != w.Value {
					t.Fatalf("trial %d event %d rank %d: predictor %+v vs batch %+v", trial, e, i, g.Predictor, w.Predictor)
				}
				if len(g.InstrIDs) != len(w.InstrIDs) {
					t.Fatalf("trial %d event %d rank %d: InstrIDs %v vs %v", trial, e, i, g.InstrIDs, w.InstrIDs)
				}
				for j := range w.InstrIDs {
					if g.InstrIDs[j] != w.InstrIDs[j] {
						t.Fatalf("trial %d event %d rank %d: InstrIDs %v vs %v", trial, e, i, g.InstrIDs, w.InstrIDs)
					}
				}
				if g.Fail != w.Fail || g.Succ != w.Succ || g.P != w.P || g.R != w.R || g.F != w.F {
					t.Fatalf("trial %d event %d rank %d (%s): streaming (%d,%d,%g,%g,%g) vs batch (%d,%d,%g,%g,%g)",
						trial, e, i, w.Key, g.Fail, g.Succ, g.P, g.R, g.F, w.Fail, w.Succ, w.P, w.R, w.F)
				}
			}
		}
	}
}
