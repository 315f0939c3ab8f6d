package core

import (
	"repro/internal/analysis"
	"repro/internal/ir"
	"repro/internal/telemetry"
	"repro/internal/vm"
)

// execFunc is the shape of an execution engine: one program, one run.
type execFunc func(*ir.Program, vm.Config) *vm.Outcome

// exec runs one production run. Every binary executes bytecode: the
// program is compiled at most once per process (single-flight via
// analysis.Bytecode) and the run executes on a pooled machine; the
// vm.compile_cache_hit and vm.state_reuse counters record how often the
// fleet actually rode the warm paths. The counters track physical
// executions (including speculatively dispatched runs a campaign later
// discards), so they are observability-only and not width-stable.
//
// oracle is the one engine seam: Config.exec / Plan.exec, unexported and
// set only by export_test.go, through which the differential suites run
// the same pipeline on the reference interpreter (internal/vm/interp).
func exec(oracle execFunc, prog *ir.Program, vcfg vm.Config, tel *telemetry.Tracer) *vm.Outcome {
	if oracle != nil {
		return oracle(prog, vcfg)
	}
	bp, hit := analysis.Bytecode(prog)
	out, reused := bp.Run(vcfg)
	if tel != nil {
		if hit {
			tel.Add("vm.compile_cache_hit", 1)
		}
		if reused {
			tel.Add("vm.state_reuse", 1)
		}
	}
	return out
}
