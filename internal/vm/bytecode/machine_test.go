package bytecode_test

// The bytecode engine's contract is total observational equivalence
// with the interpreter: same outcomes, same failure-report bytes, and
// the same hook event stream at the same clocks. These tests check that
// contract directly at the engine level (the experiments package checks
// it again end-to-end through the whole diagnosis pipeline).

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/bugs"
	"repro/internal/ir"
	"repro/internal/vm"
	"repro/internal/vm/bytecode"
)

// bugVMConfig mirrors how the pipeline configures raw runs for a bug.
func bugVMConfig(b *bugs.Bug, seed int64) vm.Config {
	cfg := vm.Config{Seed: seed, MaxSteps: 200_000, PreemptMean: 3}
	if b.PreemptMean > 0 {
		cfg.PreemptMean = b.PreemptMean
	}
	if len(b.Workloads) > 0 {
		cfg.Workload = b.Workloads[int(seed)%len(b.Workloads)]
	}
	return cfg
}

func reportEqual(t *testing.T, name string, seed int64, a, b *vm.FailureReport) {
	t.Helper()
	if (a == nil) != (b == nil) {
		t.Fatalf("%s seed %d: interp report=%v bytecode report=%v", name, seed, a, b)
	}
	if a == nil {
		return
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("%s seed %d: reports differ\ninterp:   %#v\nbytecode: %#v", name, seed, a, b)
	}
	if a.ID() != b.ID() || a.String() != b.String() {
		t.Fatalf("%s seed %d: report identity differs: %q vs %q", name, seed, a.ID(), b.ID())
	}
}

func outcomesEqual(t *testing.T, name string, seed int64, a, b *vm.Outcome) {
	t.Helper()
	if a.Failed != b.Failed || a.Exit != b.Exit || a.Steps != b.Steps {
		t.Fatalf("%s seed %d: outcomes differ: interp {failed=%v exit=%d steps=%d} bytecode {failed=%v exit=%d steps=%d}",
			name, seed, a.Failed, a.Exit, a.Steps, b.Failed, b.Exit, b.Steps)
	}
	if !reflect.DeepEqual(a.Prints, b.Prints) {
		t.Fatalf("%s seed %d: prints differ: %v vs %v", name, seed, a.Prints, b.Prints)
	}
	reportEqual(t, name, seed, a.Report, b.Report)
}

// TestDifferentialOutcomes runs every suite bug on both engines across
// many seeds and requires identical outcomes, including failure-report
// bytes.
func TestDifferentialOutcomes(t *testing.T) {
	for _, b := range bugs.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			prog := bytecode.Compile(b.Program())
			for seed := int64(0); seed < 30; seed++ {
				cfg := bugVMConfig(b, seed)
				want := vm.Run(b.Program(), cfg)
				got, _ := prog.Run(cfg)
				outcomesEqual(t, b.Name, seed, want, got)
			}
		})
	}
}

// TestDifferentialHookStream compares the full tracing-hook event
// streams — what PT, the watchpoint unit, and the replay recorder all
// consume — on the concurrency-heavy bugs.
func TestDifferentialHookStream(t *testing.T) {
	names := []string{"pbzip2", "apache-3", "deadlock", "curl", "memcached"}
	for _, name := range names {
		b := bugs.ByName(name)
		if b == nil {
			t.Fatalf("unknown bug %s", name)
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			prog := bytecode.Compile(b.Program())
			for seed := int64(0); seed < 10; seed++ {
				cfg := bugVMConfig(b, seed)
				var interpEvents, bcEvents []string
				c1 := cfg
				c1.Hooks = recordingHooks(&interpEvents)
				c2 := cfg
				c2.Hooks = recordingHooks(&bcEvents)
				want := vm.Run(b.Program(), c1)
				got, _ := prog.Run(c2)
				outcomesEqual(t, name, seed, want, got)
				if len(interpEvents) != len(bcEvents) {
					t.Fatalf("%s seed %d: %d interp events vs %d bytecode events",
						name, seed, len(interpEvents), len(bcEvents))
				}
				for i := range interpEvents {
					if interpEvents[i] != bcEvents[i] {
						t.Fatalf("%s seed %d: event %d differs:\ninterp:   %s\nbytecode: %s",
							name, seed, i, interpEvents[i], bcEvents[i])
					}
				}
			}
		})
	}
}

func recordingHooks(events *[]string) vm.Hooks {
	add := func(format string, args ...any) {
		*events = append(*events, fmt.Sprintf(format, args...))
	}
	return vm.Hooks{
		OnStep: func(t *vm.Thread, in *ir.Instr, clock int64) {
			add("step t%d %%%d @%d", t.ID, in.ID, clock)
		},
		OnBranch: func(t *vm.Thread, in *ir.Instr, taken bool, clock int64) {
			add("branch t%d %%%d taken=%v @%d", t.ID, in.ID, taken, clock)
		},
		OnIndirect: func(t *vm.Thread, in *ir.Instr, target *ir.Instr, clock int64) {
			add("indirect t%d %%%d -> %%%d @%d", t.ID, in.ID, target.ID, clock)
		},
		OnLoad: func(t *vm.Thread, in *ir.Instr, addr, val, size, clock int64) {
			add("load t%d %%%d [%#x]=%d sz%d @%d", t.ID, in.ID, addr, val, size, clock)
		},
		OnStore: func(t *vm.Thread, in *ir.Instr, addr, val, size, clock int64) {
			add("store t%d %%%d [%#x]=%d sz%d @%d", t.ID, in.ID, addr, val, size, clock)
		},
		OnSchedule: func(from, to int, clock int64) {
			add("sched %d->%d @%d", from, to, clock)
		},
		OnSpawn: func(parent, child int, fn *ir.Func, clock int64) {
			add("spawn %d->%d %s @%d", parent, child, fn.Name, clock)
		},
	}
}

// TestMachineReuse drives one machine through many heterogeneous runs
// and requires each to match a cold interpreter run — the reset/reuse
// contract the fleet's pooling depends on (stale stacks, heap contents,
// strings or RNG state would all surface here).
func TestMachineReuse(t *testing.T) {
	for _, name := range []string{"pbzip2", "sqlite", "transmission", "deadlock"} {
		b := bugs.ByName(name)
		prog := bytecode.Compile(b.Program())
		m := bytecode.NewMachine(prog)
		for round := 0; round < 3; round++ {
			for seed := int64(0); seed < 8; seed++ {
				cfg := bugVMConfig(b, seed)
				want := vm.Run(b.Program(), cfg)
				got := m.Run(cfg)
				outcomesEqual(t, name+"-reuse", seed, want, got)
			}
		}
	}
}

// TestWarmRunAllocations pins what the machine pool buys: a run on a
// pooled machine allocates fewer times than one on a fresh machine, and
// less than a tenth of what the tree-walking interpreter allocates for
// the same run. Speed is BenchmarkVM*'s business; allocation counts are
// exact, so they can gate.
func TestWarmRunAllocations(t *testing.T) {
	for _, name := range benchBugs {
		b := bugs.ByName(name)
		src := b.Program()
		prog := bytecode.Compile(src)
		seed := int64(0)
		next := func() vm.Config { seed++; return bugVMConfig(b, seed%8) }
		interp := testing.AllocsPerRun(16, func() { vm.Run(src, next()) })
		cold := testing.AllocsPerRun(16, func() { bytecode.NewMachine(prog).Run(next()) })
		warm := testing.AllocsPerRun(16, func() { prog.Run(next()) })
		if warm >= cold || warm >= interp/10 {
			t.Errorf("%s: a warm bytecode run allocates %.0f times, a cold machine %.0f, the interpreter %.0f; want warm < cold and warm < interpreter/10",
				name, warm, cold, interp)
		}
	}
}
