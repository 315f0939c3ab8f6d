package bytecode_test

// The bytecode engine's contract is total observational equivalence
// with the interpreter: same outcomes, same failure-report bytes, and
// the same hook event stream at the same clocks. These tests check that
// contract directly at the engine level (the experiments package checks
// it again end-to-end through the whole diagnosis pipeline).

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/bugs"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/lang/sema"
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
				want := interp.Run(b.Program(), cfg)
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
		oracle := testing.AllocsPerRun(16, func() { interp.Run(src, next()) })
		cold := testing.AllocsPerRun(16, func() { bytecode.NewMachine(prog).Run(next()) })
		warm := testing.AllocsPerRun(16, func() { prog.Run(next()) })
		if warm >= cold || warm >= oracle/10 {
			t.Errorf("%s: a warm bytecode run allocates %.0f times, a cold machine %.0f, the interpreter %.0f; want warm < cold and warm < interpreter/10",
				name, warm, cold, oracle)
		}
	}
}

// TestInstrumentedRunAllocations puts a ceiling on what one run under a
// tracking plan allocates, decode included. The ceilings sit about 15 %
// above the counts measured when the plan became dense tables and the
// decoder stopped copying its output (38–103 per run); every cell is
// below what the same run allocated before that (56–368).
func TestInstrumentedRunAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds entries under the race detector; the counts need warm pools")
	}
	ceilings := map[string]float64{
		"pbzip2/sigma=2": 62, "pbzip2/sigma=8": 68, "pbzip2/sigma=32": 68,
		"curl/sigma=2": 46, "curl/sigma=8": 92, "curl/sigma=32": 108,
		"apache-3/sigma=2": 112, "apache-3/sigma=8": 118, "apache-3/sigma=32": 118,
		"memcached/sigma=2": 74, "memcached/sigma=8": 74, "memcached/sigma=32": 74,
	}
	for _, c := range instrumentedCases(t, []string{"pbzip2", "curl", "apache-3", "memcached"}, []int{2, 8, 32}) {
		seed := 0
		got := testing.AllocsPerRun(16, func() {
			seed++
			core.RunInstrumented(c.plan, c.specs[seed%8])
		})
		if got > ceilings[c.name] {
			t.Errorf("%s: an instrumented run allocates %.0f times, ceiling %.0f", c.name, got, ceilings[c.name])
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

// maskedTracker is a hook consumer of the kind Hooks.StepMask is for: a
// per-thread on/off tracker driven by start and stop-after flags on
// instructions, whose OnStep does nothing at an unflagged instruction of
// a thread it is not tracking. delivered collects every event it is
// handed; relevant collects the same events minus the OnStep calls the
// mask's contract allows an engine to skip — judged from the tracker's
// own state, not from the Traced bit the engine hands back.
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
			m.both(hookEvent{kind: 'b', tid: t.ID, id: in.ID, a: b2i(taken), clock: clock})
		},
		OnIndirect: func(t *vm.Thread, in *ir.Instr, target *ir.Instr, clock int64) {
			m.both(hookEvent{kind: 'i', tid: t.ID, id: in.ID, a: int64(target.ID), clock: clock})
		},
		OnLoad: func(t *vm.Thread, in *ir.Instr, addr, val, size, clock int64) {
			m.both(hookEvent{kind: 'l', tid: t.ID, id: in.ID, a: addr, b: val<<8 | size, clock: clock})
		},
		OnStore: func(t *vm.Thread, in *ir.Instr, addr, val, size, clock int64) {
			m.both(hookEvent{kind: 'w', tid: t.ID, id: in.ID, a: addr, b: val<<8 | size, clock: clock})
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
// events of the unmasked run minus the OnStep calls at unflagged
// instructions of untraced threads — no relevant step lost (each
// thread's first step included), no skippable step delivered — and
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

// cutSitesSrc reaches every instruction that cuts a grant: spawn, an
// unlock that wakes a waiter (workers yield holding the mutex, so others
// queue on it), yield, a join and a lock that block, and thread exit.
// Main spawns alone and workers often exit alone, when a grant is
// specMax decisions long; with two or more runnable threads a grant is
// short but usually holds the next decision drawn.
const cutSitesSrc = `
global int* mu;
global int total = 0;
void worker(int n) {
	int s = 0;
	for (int i = 0; i < n; i++) { s = s + i; }
	lock(mu);
	total = total + s;
	yield();
	unlock(mu);
	for (int i = 0; i < n; i++) { s = s + i; }
	total = total + 1;
}
int main() {
	mu = malloc(8);
	int w = 0;
	for (int i = 0; i < 12; i++) { w = w + i; }
	int a = spawn(worker, 9);
	int b = spawn(worker, 2);
	int c = spawn(worker, 5);
	lock(mu);
	w = w + 1;
	unlock(mu);
	join(b);
	join(a);
	join(c);
	return total + w;
}`

// TestGrantCutSites holds the draw-ahead scheduler to the interpreter's
// decision at every quantum expiry where a grant must be cut: the
// (from, to, clock) schedule stream and the outcome must agree for 64
// seeds at preemption means 1..6, with a step hook and without one (so
// with LocalAddr+Load pairs fused). The step hook also proves the sweep
// reaches each cut site while the grant holds a decision the cut must
// drop, and — for the sites that change the runnable set — that the set
// did change.
func TestGrantCutSites(t *testing.T) {
	src := ir.MustCompile("cuts.mc", cutSitesSrc)
	prog := bytecode.Compile(src)
	site := func(in *ir.Instr) (string, int) { // name, sign of the runnable-count change
		switch {
		case in.Op == ir.OpRet && in.Blk.Fn.Name == "worker":
			return "exit", -1
		case in.Op != ir.OpCallB:
			return "", 0
		case in.Builtin == sema.BuiltinSpawn:
			return "spawn", 1
		case in.Builtin == sema.BuiltinUnlock:
			return "wake-on-unlock", 1
		case in.Builtin == sema.BuiltinYield:
			return "yield", 0
		case in.Builtin == sema.BuiltinJoin:
			return "blocking join", -1
		case in.Builtin == sema.BuiltinLock:
			return "blocking lock", -1
		}
		return "", 0
	}
	reached := map[string]int{}
	for seed := int64(0); seed < 64; seed++ {
		for mean := 1; mean <= 6; mean++ {
			cfg := vm.Config{Seed: seed, PreemptMean: mean}
			var want, got, gotNoStep []hookEvent
			c := cfg
			c.Hooks.OnSchedule = scheduleRecorder(&want)
			ref := interp.Run(src, c)

			m := bytecode.NewMachine(prog)
			var pending string
			var sign, before int
			c.Hooks.OnSchedule = scheduleRecorder(&got)
			c.Hooks.OnStep = func(th *vm.Thread, in *ir.Instr, clock int64) {
				if pending != "" && (sign == 0 || (m.RunnableThreads()-before)*sign > 0) {
					reached[pending]++
				}
				pending = ""
				if name, s := site(in); name != "" && m.Speculating() {
					pending, sign, before = name, s, m.RunnableThreads()
				}
			}
			out := m.Run(c)
			name := fmt.Sprintf("cuts/mean=%d", mean)
			outcomesEqual(t, name, seed, ref, out)
			if d := firstDiff(want, got); d != "" {
				t.Fatalf("%s seed %d: schedules differ: %s", name, seed, d)
			}

			c.Hooks = vm.Hooks{OnSchedule: scheduleRecorder(&gotNoStep)}
			out, _ = prog.Run(c)
			outcomesEqual(t, name+"/no-step-hook", seed, ref, out)
			if d := firstDiff(want, gotNoStep); d != "" {
				t.Fatalf("%s seed %d, no step hook: schedules differ: %s", name, seed, d)
			}
		}
	}
	for _, name := range []string{"spawn", "wake-on-unlock", "yield", "blocking join", "blocking lock", "exit"} {
		if reached[name] == 0 {
			t.Errorf("the sweep never reached a %s while the grant held a decision to drop", name)
		}
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
