package bytecode_test

// The bytecode engine's contract is total observational equivalence
// with the interpreter: same outcomes, same failure-report bytes, and
// the same hook event stream at the same clocks. These tests check that
// contract directly at the engine level (the experiments package checks
// it again end-to-end through the whole diagnosis pipeline).

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/bugs"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/vm"
	"repro/internal/vm/bytecode"
	"repro/internal/vm/interp"
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
				want := interp.Run(b.Program(), cfg)
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
				runBoth(t, name, prog, bugVMConfig(b, seed))
			}
		})
	}
}

// runBoth runs prog under cfg on the interpreter and on a fresh machine
// and requires the same outcome, the same hook event stream, and the same
// memory when the run ends. Every step event also carries the engine's
// RunnableThreads() at that instant: the Fig. 13 rr cost model in
// internal/experiments reads it from inside OnStep on the bytecode
// machine. The hooks see shared memory only, so
// what the threads did to their stacks is witnessed by comparing the
// bytes: every thread's stack region, and the globals.
func runBoth(t *testing.T, name string, prog *bytecode.Program, cfg vm.Config) *vm.Outcome {
	t.Helper()
	seed := cfg.Seed
	var interpEvents, bcEvents []string
	var oracle *interp.VM
	c1 := cfg
	c1.Hooks = recordingHooks(&interpEvents, func() int { return oracle.RunnableThreads() })
	oracle = interp.New(prog.IR(), c1)
	machine := bytecode.NewMachine(prog)
	c2 := cfg
	c2.Hooks = recordingHooks(&bcEvents, machine.RunnableThreads)
	want := oracle.Run()
	got := machine.Run(c2)
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
	for tid := range oracle.Threads {
		if !bytes.Equal(oracle.Mem.Stack(tid), machine.Mem().Stack(tid)) {
			t.Fatalf("%s seed %d: thread %d's stack differs between the engines at run end", name, seed, tid)
		}
	}
	if machine.Mem().Stack(len(oracle.Threads)) != nil {
		t.Fatalf("%s seed %d: the machine has more stacks than the interpreter has threads", name, seed)
	}
	for i := range prog.IR().Globals {
		addr := vm.GlobalsBase + int64(i)*8
		a, _ := oracle.Mem.Load(addr, 8)
		b, _ := machine.Mem().Load(addr, 8)
		if a != b {
			t.Fatalf("%s seed %d: global %d is %d on the interpreter, %d on the machine", name, seed, i, a, b)
		}
	}
	return want
}

func recordingHooks(events *[]string, runnable func() int) vm.Hooks {
	add := func(format string, args ...any) {
		*events = append(*events, fmt.Sprintf(format, args...))
	}
	return vm.Hooks{
		OnStep: func(t *vm.Thread, in *ir.Instr, clock int64) {
			add("step t%d %%%d @%d runnable=%d", t.ID, in.ID, clock, runnable())
		},
		OnBranch: func(t *vm.Thread, in *ir.Instr, taken bool, clock int64) {
			add("branch t%d %%%d taken=%v @%d", t.ID, in.ID, taken, clock)
		},
		OnIndirect: func(t *vm.Thread, in *ir.Instr, target *ir.Instr, clock int64) {
			add("indirect t%d %%%d -> %%%d @%d", t.ID, in.ID, target.ID, clock)
		},
		OnAccess: func(t *vm.Thread, in *ir.Instr, addr, val, size int64, write bool, clock int64) {
			op := "load"
			if write {
				op = "store"
			}
			add("%s t%d %%%d [%#x]=%d sz%d @%d", op, t.ID, in.ID, addr, val, size, clock)
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
				want := interp.Run(b.Program(), cfg)
				got := m.Run(cfg)
				outcomesEqual(t, name+"-reuse", seed, want, got)
			}
		}
	}
}

// TestSpareMachinesBounded: the machines kept for the next run, and with
// them their address spaces, are bounded by how many runs were in flight
// at once, not by how many programs ran. Every suite program runs round
// after round, with a GC between rounds as between two diagnoses, on one
// goroutine and then on three at once. A goroutine has at most two runs
// in flight — its own and, while that run re-runs part of itself
// silently, a second machine's — so beyond what earlier tests of the
// process left, at most two spare machines per goroutine may ever be
// kept.
func TestSpareMachinesBounded(t *testing.T) {
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
	kept := bytecode.SpareMachines()
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
			if n := bytecode.SpareMachines(); n == 0 || n > bound {
				t.Fatalf("%d goroutines, round %d: %d spare machines, want 1..%d", workers, r, n, bound)
			}
		}
	}
}

// TestWarmRunAllocations pins what spare machines buy: a run on a spare
// machine allocates fewer times than one on a fresh machine, and
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
		oracle := testing.AllocsPerRun(16, func() { interp.Run(src, next()) })
		cold := testing.AllocsPerRun(16, func() { bytecode.NewMachine(prog).Run(next()) })
		warm := testing.AllocsPerRun(16, func() { prog.Run(next()) })
		if warm >= cold || warm >= oracle/10 {
			t.Errorf("%s: a warm bytecode run allocates %.0f times, a cold machine %.0f, the interpreter %.0f; want warm < cold and warm < interpreter/10",
				name, warm, cold, oracle)
		}
	}
}

// allocatedBytes is what f allocates: the MemStats.TotalAlloc delta.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestInstrumentedRunAllocations puts a ceiling on what one run under a
// tracking plan allocates, decode included: how many times, and how
// many bytes, averaged over 16 runs. The ceilings sit about 15 % above
// what was measured once the decoder stopped copying out the flow of
// every run, parsed packets into kept scratch and the machines' address
// spaces outlived the GC: 27–52 allocations and 1.3–4.2 KB per run,
// where the same runs allocated 36–90 times and 3.1–33 KB before. Each
// run has a fresh plan, so that it executes; curl's runs spawn nothing,
// so each also stores its record in its plan's run memo (1.6 KB at
// σ = 2).
func TestInstrumentedRunAllocations(t *testing.T) {
	type ceiling struct {
		allocs float64
		bytes  uint64
	}
	ceilings := map[string]ceiling{
		"pbzip2/sigma=2": {50, 2700}, "pbzip2/sigma=8": {50, 2950}, "pbzip2/sigma=32": {50, 2950},
		"curl/sigma=2": {32, 1900}, "curl/sigma=8": {33, 2950}, "curl/sigma=32": {34, 3200},
		"apache-3/sigma=2": {59, 3700}, "apache-3/sigma=8": {60, 4750}, "apache-3/sigma=32": {60, 4800},
		"memcached/sigma=2": {55, 3800}, "memcached/sigma=8": {55, 3800}, "memcached/sigma=32": {55, 3800},
	}
	for _, c := range instrumentedCases(t, []string{"pbzip2", "curl", "apache-3", "memcached"}, []int{2, 8, 32}) {
		// A fresh plan per run, so that each run executes: AllocsPerRun's
		// warm-up and 16 runs, then 16 for the bytes.
		plans := c.plans(1 + 16 + 16)
		seed := 0
		run := func() {
			seed++
			core.RunInstrumented(plans[seed-1], c.specs[seed%8])
		}
		want := ceilings[c.name]
		if got := testing.AllocsPerRun(16, run); got > want.allocs {
			t.Errorf("%s: an instrumented run allocates %.0f times, ceiling %.0f", c.name, got, want.allocs)
		}
		got := allocatedBytes(func() {
			for i := 0; i < 16; i++ {
				run()
			}
		}) / 16
		if got > want.bytes {
			t.Errorf("%s: an instrumented run allocates %d bytes, ceiling %d", c.name, got, want.bytes)
		}
	}
}

// TestDiagnosisAllocations puts a ceiling on the bytes one whole
// diagnosis allocates (core.RunFromReport, the benchmark's local_serial
// operation), about 15 % above what was measured once a diagnosis
// decoded the flow of only the runs its sketches are drawn from and
// counted predicates by key: curl 86 KB and apache-3 220 KB, where they
// allocated 239 KB and 691 KB before. What a run leaves behind outlives
// the GC, but the runs of a diagnosis on two or more workers interleave
// differently each time, and with them which spare ring buffer, trap log
// or decode scratch a run takes and whether it must grow it: 2 of 45
// single curl diagnoses read 94 and 100 KB at GOMAXPROCS=2, and at
// GOMAXPROCS=1 every one read 85 KB. The figure is the least of three
// diagnoses after a warm-up one.
func TestDiagnosisAllocations(t *testing.T) {
	ceilings := map[string]uint64{"curl": 99_000, "apache-3": 253_000}
	for _, name := range []string{"curl", "apache-3"} {
		b := bugs.ByName(name)
		cfg := b.GistConfig()
		cfg.StopWhen = bugs.DeveloperOracle(b)
		report, disc, err := core.FirstFailure(cfg)
		if err != nil {
			t.Fatalf("%s: discovery: %v", name, err)
		}
		diagnose := func() {
			if _, err := core.RunFromReport(cfg, report, disc); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		diagnose()
		least := uint64(math.MaxUint64)
		for i := 0; i < 3; i++ {
			least = min(least, allocatedBytes(diagnose))
		}
		if least > ceilings[name] {
			t.Errorf("%s: a diagnosis allocates %d bytes, ceiling %d", name, least, ceilings[name])
		}
	}
}

// hookEvent is one hook call, compactly: the mask test records a few
// million of them.
type hookEvent struct {
	kind    byte // 's'tep, 'b'ranch, 'i'ndirect, 'l'oad, 'w'rite, s'c'hedule, s'p'awn
	tid, id int
	a, b    int64
	clock   int64
}

// accessEvent is one OnAccess call as a hookEvent, a load or a write as
// the hook's write flag says.
func accessEvent(t *vm.Thread, in *ir.Instr, addr, val, size int64, write bool, clock int64) hookEvent {
	kind := byte('l')
	if write {
		kind = 'w'
	}
	return hookEvent{kind: kind, tid: t.ID, id: in.ID, a: addr, b: val<<8 | size, clock: clock}
}

// maskedTracker is a hook consumer of the kind Hooks.StepMask is for: a
// per-thread on/off tracker driven by start and stop-after flags on
// instructions, whose OnStep does nothing at an unflagged instruction of
// a thread it is not tracking, and whose OnBranch and OnIndirect do
// nothing on such a thread. delivered collects every event it is handed;
// relevant collects the same events minus the calls the mask's contract
// allows an engine to skip — judged from the tracker's own state, not
// from the Traced bit the engine hands back.
type maskedTracker struct {
	mask                []uint8
	on, pending, seen   map[int]bool
	delivered, relevant []hookEvent
}

func newMaskedTracker(prog *ir.Program) *maskedTracker {
	mask := make([]uint8, len(prog.Instrs))
	for id := range mask {
		if id%11 == 3 {
			mask[id] |= 1 // start
		}
		if id%7 == 2 {
			mask[id] |= 2 // stop after
		}
	}
	return trackerWithMask(mask)
}

func trackerWithMask(mask []uint8) *maskedTracker {
	return &maskedTracker{mask: mask, on: map[int]bool{}, pending: map[int]bool{}, seen: map[int]bool{}}
}

func (m *maskedTracker) reset() {
	clear(m.on)
	clear(m.pending)
	clear(m.seen)
	m.delivered, m.relevant = m.delivered[:0], m.relevant[:0]
}

func (m *maskedTracker) both(e hookEvent) {
	m.delivered = append(m.delivered, e)
	m.relevant = append(m.relevant, e)
}

// flow records a branch or indirect event, relevant while the thread is
// tracked.
func (m *maskedTracker) flow(e hookEvent) {
	m.delivered = append(m.delivered, e)
	if m.on[e.tid] {
		m.relevant = append(m.relevant, e)
	}
}

func (m *maskedTracker) hooks(withMask bool) vm.Hooks {
	b2i := func(b bool) int64 {
		if b {
			return 1
		}
		return 0
	}
	h := vm.Hooks{
		OnStep: func(t *vm.Thread, in *ir.Instr, clock int64) {
			e := hookEvent{kind: 's', tid: t.ID, id: in.ID, clock: clock}
			m.delivered = append(m.delivered, e)
			flags := m.mask[in.ID]
			if flags != 0 || m.on[t.ID] || !m.seen[t.ID] {
				m.relevant = append(m.relevant, e)
			}
			m.seen[t.ID] = true
			if m.pending[t.ID] {
				m.on[t.ID], m.pending[t.ID] = false, false
			}
			if flags&1 != 0 {
				m.on[t.ID] = true
			}
			if m.on[t.ID] && flags&2 != 0 {
				m.pending[t.ID] = true
			}
			t.Traced = m.on[t.ID]
		},
		OnBranch: func(t *vm.Thread, in *ir.Instr, taken bool, clock int64) {
			m.flow(hookEvent{kind: 'b', tid: t.ID, id: in.ID, a: b2i(taken), clock: clock})
		},
		OnIndirect: func(t *vm.Thread, in *ir.Instr, target *ir.Instr, clock int64) {
			m.flow(hookEvent{kind: 'i', tid: t.ID, id: in.ID, a: int64(target.ID), clock: clock})
		},
		OnAccess: func(t *vm.Thread, in *ir.Instr, addr, val, size int64, write bool, clock int64) {
			m.both(accessEvent(t, in, addr, val, size, write, clock))
		},
		OnSchedule: func(from, to int, clock int64) {
			m.both(hookEvent{kind: 'c', tid: from, id: to, clock: clock})
		},
		OnSpawn: func(parent, child int, fn *ir.Func, clock int64) {
			m.both(hookEvent{kind: 'p', tid: parent, id: child, a: int64(fn.ID), clock: clock})
		},
	}
	if withMask {
		h.StepMask = m.mask
	}
	return h
}

// TestStepMaskFiltersHookStream pins the engine half of the StepMask
// contract. With a mask, the bytecode engine must deliver exactly the
// events of the unmasked run minus two sets: the OnStep calls at
// unflagged instructions of untraced threads, and the OnBranch and
// OnIndirect calls of untraced threads — no relevant event lost (each
// thread's first step included), no skippable one delivered — and
// everything else about the run must be unchanged. The interpreter must
// ignore the mask.
func TestStepMaskFiltersHookStream(t *testing.T) {
	names := []string{"pbzip2", "apache-3", "deadlock", "curl", "memcached"}
	for _, name := range names {
		b := bugs.ByName(name)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			prog := bytecode.Compile(b.Program())
			// One tracker per role, reset between runs: the event slices
			// keep their capacity, so the test's memory stays flat.
			trackers := [3]*maskedTracker{newMaskedTracker(b.Program()), newMaskedTracker(b.Program()), newMaskedTracker(b.Program())}
			for _, preempt := range []int{0, 1, 40} { // 0: the bug's own regime
				for seed := int64(0); seed < 10; seed++ {
					cfg := bugVMConfig(b, seed)
					if preempt > 0 {
						cfg.PreemptMean = preempt
					}
					run := func(tr *maskedTracker, withMask, onInterp bool) (*maskedTracker, *vm.Outcome) {
						tr.reset()
						c := cfg
						c.Hooks = tr.hooks(withMask)
						if onInterp {
							return tr, interp.Run(b.Program(), c)
						}
						out, _ := prog.Run(c)
						return tr, out
					}
					plain, want := run(trackers[0], false, false)
					masked, got := run(trackers[1], true, false)
					outcomesEqual(t, name, seed, want, got)
					if len(plain.relevant) == len(plain.delivered) || len(plain.relevant) == 0 {
						t.Fatalf("%s seed %d: the mask filters nothing or everything (%d of %d events); the test needs both kinds of step",
							name, seed, len(plain.relevant), len(plain.delivered))
					}
					if d := firstDiff(masked.delivered, plain.relevant); d != "" {
						t.Fatalf("%s seed %d preempt %d: masked run vs the unmasked run's relevant events: %s", name, seed, preempt, d)
					}
					if seed < 2 {
						oracle, ref := run(trackers[2], true, true)
						outcomesEqual(t, name, seed, ref, got)
						if d := firstDiff(oracle.delivered, plain.delivered); d != "" {
							t.Fatalf("%s seed %d preempt %d: the interpreter must ignore StepMask: %s", name, seed, preempt, d)
						}
					}
				}
			}
		})
	}
}

func scheduleRecorder(into *[]hookEvent) func(from, to int, clock int64) {
	return func(from, to int, clock int64) {
		*into = append(*into, hookEvent{kind: 'c', tid: from, id: to, clock: clock})
	}
}

func firstDiff(a, b []hookEvent) string {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return fmt.Sprintf("event %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	if len(a) != len(b) {
		return fmt.Sprintf("one stream is a prefix of the other (%d vs %d events)", len(a), len(b))
	}
	return ""
}
