package experiments

import (
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
			t.Parallel() // each diagnosis builds its own config; nothing is shared
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
