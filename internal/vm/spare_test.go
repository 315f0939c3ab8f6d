package vm_test

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/bugs"
	"repro/internal/vm"
	"repro/internal/vm/bytecode"
)

// TestSpareMemoriesBounded: the address spaces kept for the next run are
// bounded by how many runs were in flight at once, not by how many
// programs ran. Every suite program runs round after round, the GC
// emptying the per-program machine pools between rounds as it does
// between two diagnoses, on one goroutine and then on three at once.
// A goroutine has at most two runs in flight — its own and, while that
// run re-runs part of itself silently, a second machine's — so beyond
// what earlier tests of the process left, at most two spare address
// spaces per goroutine may ever be kept.
func TestSpareMemoriesBounded(t *testing.T) {
	var progs []*bytecode.Program
	var suite []*bugs.Bug
	for _, b := range bugs.All() {
		progs = append(progs, bytecode.Compile(b.Program()))
		suite = append(suite, b)
	}
	round := func() {
		for i, prog := range progs {
			b := suite[i]
			for seed := int64(0); seed < 4; seed++ {
				cfg := vm.Config{Seed: seed, MaxSteps: 200_000, PreemptMean: b.PreemptMean}
				if n := len(b.Workloads); n > 0 {
					cfg.Workload = b.Workloads[int(seed)%n]
				}
				prog.Run(cfg)
			}
		}
	}
	kept := vm.SpareMemories()
	for _, workers := range []int{1, 3} {
		bound := max(kept, 2*workers)
		for r := 0; r < 4; r++ {
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					round()
				}()
			}
			wg.Wait()
			runtime.GC()
			runtime.GC()
			if n := vm.SpareMemories(); n == 0 || n > bound {
				t.Fatalf("%d goroutines, round %d: %d spare address spaces, want 1..%d", workers, r, n, bound)
			}
		}
	}
}
