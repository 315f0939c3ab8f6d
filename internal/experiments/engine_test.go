package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bugs"
	"repro/internal/core"
)

// TestEngineDifferential is the end-to-end engine equivalence contract:
// a full diagnosis on the bytecode engine must be byte-identical to the
// serial interpreter reference — sketch render, predictor rankings,
// slice contents, per-iteration stats, FleetHealth — on every bug in
// the suite, with a reliable fleet and under 10% composite fault
// injection, at fleet widths 1 and 4. The unit-level differential suite
// (internal/vm/bytecode) pins raw outcomes and hook streams; this test
// pins the whole pipeline built on top of them, including PT decode,
// watchpoint logs, and refinement. CI runs it under -race.
func TestEngineDifferential(t *testing.T) {
	for _, b := range bugs.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			for _, rate := range []float64{0, 0.10} {
				ref := engineFingerprint(t, b.Name, rate, 1, core.EngineInterp, nil)
				for _, workers := range []int{1, 4} {
					got := engineFingerprint(t, b.Name, rate, workers, core.EngineBytecode, nil)
					if got != ref {
						t.Fatalf("rate=%.2f workers=%d: bytecode engine diverged from interpreter:\n--- interp (serial) ---\n%s\n--- bytecode ---\n%s",
							rate, workers, ref, got)
					}
				}
			}
		})
	}
}

// TestParseEngine pins the flag grammar: the two engine spellings parse,
// anything else is rejected (cmd/gist exits 2 on that error).
func TestParseEngine(t *testing.T) {
	for s, want := range map[string]core.Engine{
		"bytecode":    core.EngineBytecode,
		"interp":      core.EngineInterp,
		"interpreter": core.EngineInterp,
	} {
		got, err := core.ParseEngine(s)
		if err != nil || got != want {
			t.Errorf("ParseEngine(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	for _, s := range []string{"", "treewalk", "Bytecode", "fast"} {
		if _, err := core.ParseEngine(s); err == nil {
			t.Errorf("ParseEngine(%q) accepted, want error", s)
		}
	}
	if core.EngineBytecode.String() != "bytecode" || core.EngineInterp.String() != "interp" {
		t.Errorf("Engine.String round-trip broken: %q %q",
			core.EngineBytecode.String(), core.EngineInterp.String())
	}
	var zero core.Engine
	if zero != core.EngineBytecode {
		t.Error("zero-value Engine is not the bytecode engine")
	}
}

// TestVMBenchJSONRoundTrip runs a one-bug vm pass and validates the
// JSON it writes — the same check CI's vm-bench smoke applies.
func TestVMBenchJSONRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-driven; skipped in -short")
	}
	res, err := VMPerf(Suite("pbzip2"))
	if err != nil {
		t.Fatalf("VMPerf: %v", err)
	}
	data, err := vmJSONBytes(t, res)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateBenchJSON(data); err != nil {
		t.Fatalf("ValidateBenchJSON: %v", err)
	}
	row := res.Rows[0]
	if row.Speedup < 2 {
		t.Errorf("bytecode speedup %.2fx on pbzip2; expected comfortably above 2x even on noisy CI", row.Speedup)
	}
	if row.BytecodeAllocsOp >= row.InterpAllocsOp/10 {
		t.Errorf("bytecode allocs/op %d vs interp %d; the warm path should allocate orders of magnitude less",
			row.BytecodeAllocsOp, row.InterpAllocsOp)
	}
}

// TestValidateVMJSONRejects covers the malformed-artifact paths.
func TestValidateVMJSONRejects(t *testing.T) {
	good := `{"experiment":"vm","gomaxprocs":1,"rows":[{"bug":"pbzip2","interp_ns_op":1000,"bytecode_ns_op":100,"interp_allocs_op":1000,"bytecode_allocs_op":3,"speedup":10}]}`
	if err := ValidateBenchJSON([]byte(good)); err != nil {
		t.Fatalf("well-formed vm json rejected: %v", err)
	}
	cases := map[string]string{
		"not json":         `{`,
		"wrong experiment": `{"experiment":"perf","rows":[]}`,
		"no rows":          `{"experiment":"vm","gomaxprocs":1,"rows":[]}`,
		"no gomaxprocs":    `{"experiment":"vm","rows":[{"bug":"x","interp_ns_op":10,"bytecode_ns_op":1,"interp_allocs_op":10,"bytecode_allocs_op":1,"speedup":10}]}`,
		"unnamed row":      `{"experiment":"vm","gomaxprocs":1,"rows":[{"interp_ns_op":10,"bytecode_ns_op":1,"interp_allocs_op":10,"bytecode_allocs_op":1,"speedup":10}]}`,
		"zero timing":      `{"experiment":"vm","gomaxprocs":1,"rows":[{"bug":"x","interp_ns_op":0,"bytecode_ns_op":1,"interp_allocs_op":10,"bytecode_allocs_op":1,"speedup":10}]}`,
		"no speedup":       `{"experiment":"vm","gomaxprocs":1,"rows":[{"bug":"x","interp_ns_op":10,"bytecode_ns_op":20,"interp_allocs_op":10,"bytecode_allocs_op":1,"speedup":0.5}]}`,
		"alloc regression": `{"experiment":"vm","gomaxprocs":1,"rows":[{"bug":"x","interp_ns_op":10,"bytecode_ns_op":1,"interp_allocs_op":5,"bytecode_allocs_op":5,"speedup":10}]}`,
	}
	for name, data := range cases {
		if err := ValidateVMJSON([]byte(data)); err == nil {
			t.Errorf("%s: validated, want error", name)
		}
	}
}

func vmJSONBytes(t *testing.T, res *VMResult) ([]byte, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "BENCH_vm.json")
	if err := WriteJSON(path, res); err != nil {
		return nil, fmt.Errorf("WriteJSON: %w", err)
	}
	return os.ReadFile(path)
}
