package experiments

import (
	"encoding/json"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/bugs"
	"repro/internal/vm"
	"repro/internal/vm/bytecode"
)

// The vm experiment pins the bytecode engine's single-thread win over
// the tree-walking interpreter: the same bug runs (same seeds, same
// workloads, no hooks) timed on both engines via the testing benchmark
// driver, with allocation counts. This is the per-run cost the fleet
// pays thousands of times per diagnosis, so the speedup here is the
// speedup every layer above — fleet pool, scheduler, service — inherits.

// VMRow is one bug's engine comparison.
type VMRow struct {
	Bug string `json:"bug"`
	// NS per run on each engine (testing.Benchmark ns/op).
	InterpNSOp   int64 `json:"interp_ns_op"`
	BytecodeNSOp int64 `json:"bytecode_ns_op"`
	// Heap allocations per run on each engine.
	InterpAllocsOp   int64 `json:"interp_allocs_op"`
	BytecodeAllocsOp int64 `json:"bytecode_allocs_op"`
	// Runs per second on a single thread, the fleet-facing number.
	InterpRunsPerSec   float64 `json:"interp_runs_per_sec"`
	BytecodeRunsPerSec float64 `json:"bytecode_runs_per_sec"`
	// Speedup is InterpNSOp / BytecodeNSOp.
	Speedup float64 `json:"speedup"`
}

// VMResult is the full vm experiment, serialized to BENCH_vm.json.
type VMResult struct {
	Experiment string `json:"experiment"`
	// GoMaxProcs records the parallelism available at measurement time;
	// the measurement itself is single-thread by construction.
	GoMaxProcs int     `json:"gomaxprocs"`
	Rows       []VMRow `json:"rows"`
}

// VMSuite is the default measurement set: the three printed-sketch bugs.
func VMSuite() []*bugs.Bug { return Suite("pbzip2", "curl", "apache-3") }

// vmRunConfig mirrors the differential suite's per-run configuration so
// the benchmark exercises exactly the runs the determinism tests pin.
func vmRunConfig(b *bugs.Bug, seed int64) vm.Config {
	cfg := vm.Config{Seed: seed, MaxSteps: 200_000, PreemptMean: 3}
	if b.PreemptMean > 0 {
		cfg.PreemptMean = b.PreemptMean
	}
	if len(b.Workloads) > 0 {
		cfg.Workload = b.Workloads[int(seed)%len(b.Workloads)]
	}
	return cfg
}

// VMPerf measures both engines over the suite. Programs are compiled
// outside the timer on both sides (the interpreter walks the IR
// directly; the bytecode program is compiled once), so the numbers
// compare steady-state execution, which is what the fleet amortizes to
// under the process-wide compile cache.
func VMPerf(suite []*bugs.Bug) (*VMResult, error) {
	if len(suite) == 0 {
		suite = VMSuite()
	}
	res := &VMResult{Experiment: "vm", GoMaxProcs: runtime.GOMAXPROCS(0)}
	for _, b := range suite {
		prog := b.Program()
		bp := bytecode.Compile(prog)
		interp := testing.Benchmark(func(tb *testing.B) {
			tb.ReportAllocs()
			for i := 0; i < tb.N; i++ {
				vm.Run(prog, vmRunConfig(b, int64(i%8)))
			}
		})
		bc := testing.Benchmark(func(tb *testing.B) {
			tb.ReportAllocs()
			for i := 0; i < tb.N; i++ {
				bp.Run(vmRunConfig(b, int64(i%8)))
			}
		})
		if interp.N == 0 || bc.N == 0 {
			return res, fmt.Errorf("vm: %s: benchmark executed no iterations", b.Name)
		}
		row := VMRow{
			Bug:              b.Name,
			InterpNSOp:       interp.NsPerOp(),
			BytecodeNSOp:     bc.NsPerOp(),
			InterpAllocsOp:   interp.AllocsPerOp(),
			BytecodeAllocsOp: bc.AllocsPerOp(),
		}
		if row.InterpNSOp > 0 {
			row.InterpRunsPerSec = 1e9 / float64(row.InterpNSOp)
		}
		if row.BytecodeNSOp > 0 {
			row.BytecodeRunsPerSec = 1e9 / float64(row.BytecodeNSOp)
			row.Speedup = float64(row.InterpNSOp) / float64(row.BytecodeNSOp)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// ValidateVMJSON checks a BENCH_vm.json artifact: at least one row,
// live timings on both engines, the bytecode engine faster than the
// interpreter, and its hot path allocating less. The speedup floor here
// is deliberately 1× (is-it-actually-faster), not the target ratio —
// CI smoke runs on noisy shared machines; the committed BENCH_vm.json
// carries the pinned ratios.
func ValidateVMJSON(data []byte) error {
	var r VMResult
	if err := json.Unmarshal(data, &r); err != nil {
		return fmt.Errorf("bench json: %w", err)
	}
	if r.Experiment != "vm" {
		return fmt.Errorf("bench json: experiment %q, want vm", r.Experiment)
	}
	if r.GoMaxProcs < 1 {
		return fmt.Errorf("bench json: gomaxprocs %d", r.GoMaxProcs)
	}
	if len(r.Rows) == 0 {
		return fmt.Errorf("bench json: no vm rows")
	}
	for _, row := range r.Rows {
		if row.Bug == "" {
			return fmt.Errorf("bench json: vm row with no bug name")
		}
		if row.InterpNSOp <= 0 || row.BytecodeNSOp <= 0 {
			return fmt.Errorf("bench json: %s: non-positive ns/op (interp %d, bytecode %d)",
				row.Bug, row.InterpNSOp, row.BytecodeNSOp)
		}
		if row.Speedup <= 1 {
			return fmt.Errorf("bench json: %s: bytecode speedup %.2fx is not a speedup", row.Bug, row.Speedup)
		}
		if row.BytecodeAllocsOp >= row.InterpAllocsOp {
			return fmt.Errorf("bench json: %s: bytecode allocs/op %d not below interpreter's %d",
				row.Bug, row.BytecodeAllocsOp, row.InterpAllocsOp)
		}
	}
	return nil
}
