package bytecode_test

// BenchmarkVMInterp / BenchmarkVMBytecode measure raw single-thread
// execution of the same bug runs on both engines (no pipeline, no
// hooks): the per-run cost the fleet pays thousands of times per
// diagnosis. Run with -bench 'VM(Interp|Bytecode)' -benchmem; the
// benchmark reports the bytecode side of the same runs as
// vm.bytecode.raw_run_us_p50, vm.bytecode.msteps_per_sec (Msteps/s here)
// and vm.bytecode.allocs_per_run.

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/bugs"
	"repro/internal/core"
	"repro/internal/slicer"
	"repro/internal/vm/bytecode"
	"repro/internal/vm/interp"
)

var benchBugs = []string{"pbzip2", "curl", "apache-3"}

func BenchmarkVMInterp(b *testing.B) {
	for _, name := range benchBugs {
		bug := bugs.ByName(name)
		prog := bug.Program() // compile outside the timer
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				interp.Run(prog, bugVMConfig(bug, int64(i%8)))
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
			var steps int64
			for i := 0; i < b.N; i++ {
				out, _ := prog.Run(bugVMConfig(bug, int64(i%8)))
				steps += out.Steps
			}
			b.ReportMetric(float64(steps)/1e6/b.Elapsed().Seconds(), "Msteps/s")
		})
	}
}

// BenchmarkVMPreempt prices scheduling in a raw run: the same runs at the
// bug's own preemption mean, where a decision falls every few
// instructions, and at 10⁶, where preemption is all but off. ns/step is
// wall time over Outcome.Steps; the gap between the two is the switch tax.
func BenchmarkVMPreempt(b *testing.B) {
	for _, name := range []string{"pbzip2", "apache-3"} {
		bug := bugs.ByName(name)
		prog := bytecode.Compile(bug.Program())
		for _, mean := range []int{0, 1e6} { // 0: the bug's own
			b.Run(fmt.Sprintf("%s/preempt=%d", name, max(mean, bugVMConfig(bug, 0).PreemptMean)), func(b *testing.B) {
				var steps int64
				for i := 0; i < b.N; i++ {
					cfg := bugVMConfig(bug, int64(i%8))
					if mean > 0 {
						cfg.PreemptMean = mean
					}
					out, _ := prog.Run(cfg)
					steps += out.Steps
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/step")
			})
		}
	}
}

// instrumentedCase is one (bug, σ) cell the instrumented-run benchmark
// and allocation ceiling share: the plan Gist would ship for the bug's
// own failure at that window size, and the run specs of seeds 0..7.
type instrumentedCase struct {
	name  string
	bug   *bugs.Bug
	plan  *core.Plan
	specs [8]core.RunSpec
}

func instrumentedCases(tb testing.TB, names []string, sigmas []int) []instrumentedCase {
	var cases []instrumentedCase
	for _, name := range names {
		bug := bugs.ByName(name)
		cfg := bug.GistConfig()
		report, _, err := core.FirstFailure(cfg)
		if err != nil {
			tb.Fatalf("%s: discovery: %v", name, err)
		}
		g := cfg.BuildGraph()
		sl := slicer.Compute(g, report.InstrID)
		for _, sigma := range sigmas {
			c := instrumentedCase{
				name: fmt.Sprintf("%s/sigma=%d", name, sigma),
				bug:  bug,
				plan: core.BuildPlan(g, sl.Window(sigma), core.AllFeatures()),
			}
			for seed := range c.specs {
				vc := bugVMConfig(bug, int64(seed))
				c.specs[seed] = core.RunSpec{
					EndpointID: seed, Seed: vc.Seed, Workload: vc.Workload,
					PreemptMean: vc.PreemptMean, MaxSteps: vc.MaxSteps,
				}
			}
			cases = append(cases, c)
		}
	}
	return cases
}

// BenchmarkRunInstrumented measures what the tracking plan adds to a
// run: the same seeds executed raw (no hooks) and under the plan's PT
// and watchpoint instrumentation, decode included. instr/raw is the
// layer figure the benchmark reports as core.instr_over_raw; the paper's
// claim (§3.2, Fig. 11) is that it follows the tracked window, not the
// length of the run.
func BenchmarkRunInstrumented(b *testing.B) {
	for _, c := range instrumentedCases(b, benchBugs, []int{2, 32}) {
		prog := bytecode.Compile(c.bug.Program())
		b.Run(c.name, func(b *testing.B) {
			start := time.Now()
			for i := 0; i < b.N; i++ {
				prog.Run(bugVMConfig(c.bug, int64(i%8)))
			}
			raw := time.Since(start)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			start = time.Now()
			for i := 0; i < b.N; i++ {
				core.RunInstrumented(c.plan, c.specs[i%8])
			}
			instr := time.Since(start)
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(instr)/float64(raw), "instr/raw")
			b.ReportMetric(float64(instr.Microseconds())/float64(b.N), "instr-µs/run")
			b.ReportMetric(float64(raw.Microseconds())/float64(b.N), "raw-µs/run")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N), "allocs/run")
		})
	}
}
