package core_test

import (
	"testing"

	"repro/internal/bugs"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/faults"
)

// TestEngineDifferential is the end-to-end engine equivalence contract:
// a full diagnosis on the bytecode engine must be byte-identical to the
// serial interpreter reference — sketch render, predictor rankings,
// slice contents, per-iteration stats, FleetHealth — on every bug in
// the suite, with a reliable fleet and under 10% composite fault
// injection, at fleet widths 1 and 4. The unit-level differential suite
// (internal/vm/bytecode) pins raw outcomes and hook streams; this test
// pins the whole pipeline built on top of them, including PT decode,
// watchpoint logs, and refinement. It lives here because the interpreter
// is reachable only through export_test.go's OnInterp. CI runs it under
// -race.
func TestEngineDifferential(t *testing.T) {
	for _, b := range bugs.All() {
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel() // each diagnosis builds its own config; nothing is shared
			diagnose := func(cfg core.Config, rate float64) string {
				t.Helper()
				res, err := core.Run(cfg)
				if err != nil {
					t.Fatalf("rate=%.2f workers=%d: %v", rate, cfg.Workers, err)
				}
				return core.CampaignFingerprint(res, nil)
			}
			for _, rate := range []float64{0, 0.10} {
				cfg := b.GistConfig()
				cfg.Features = core.AllFeatures()
				cfg.StopWhen = bugs.DeveloperOracle(b)
				if rate > 0 {
					cfg.Faults = faults.Composite(experiments.ChaosSeed, rate)
				}
				cfg.Workers = 1
				ref := diagnose(cfg.OnInterp(), rate)
				for _, workers := range []int{1, 4} {
					cfg.Workers = workers
					if got := diagnose(cfg, rate); got != ref {
						t.Fatalf("rate=%.2f workers=%d: bytecode engine diverged from interpreter:\n--- interp (serial) ---\n%s\n--- bytecode ---\n%s",
							rate, workers, ref, got)
					}
				}
			}
		})
	}
}
