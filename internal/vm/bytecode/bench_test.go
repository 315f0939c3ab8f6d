package bytecode_test

// BenchmarkVMInterp / BenchmarkVMBytecode measure raw single-thread
// execution of the same bug runs on both engines (no pipeline, no
// hooks): the per-run cost the fleet pays thousands of times per
// diagnosis. Run with -bench 'VM(Interp|Bytecode)' -benchmem; the
// benchmark reports the bytecode side of the same runs as
// vm.bytecode.raw_run_us_p50 and vm.bytecode.allocs_per_run.

import (
	"testing"

	"repro/internal/bugs"
	"repro/internal/vm"
	"repro/internal/vm/bytecode"
)

var benchBugs = []string{"pbzip2", "curl", "apache-3"}

func BenchmarkVMInterp(b *testing.B) {
	for _, name := range benchBugs {
		bug := bugs.ByName(name)
		prog := bug.Program() // compile outside the timer
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				vm.Run(prog, bugVMConfig(bug, int64(i%8)))
			}
		})
	}
}

func BenchmarkVMBytecode(b *testing.B) {
	for _, name := range benchBugs {
		bug := bugs.ByName(name)
		prog := bytecode.Compile(bug.Program())
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				prog.Run(bugVMConfig(bug, int64(i%8)))
			}
		})
	}
}
