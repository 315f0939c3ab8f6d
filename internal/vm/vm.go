package vm

import (
	"fmt"
	"hash/fnv"
	"strings"

	"repro/internal/ir"
	"repro/internal/lang/token"
)

// ThreadState enumerates the scheduler states both engines keep per thread.
type ThreadState int

// Thread states.
const (
	ThreadRunnable ThreadState = iota
	ThreadBlocked
	ThreadDone
)

// Thread is what a hook sees of an engine's thread.
type Thread struct {
	ID int

	// Traced is the hook consumer's per-thread "tracing is on" bit, the
	// other half of Hooks.StepMask: an engine that honours the mask calls
	// OnStep at every step of a thread whose bit is set, and OnBranch and
	// OnIndirect only on such a thread. The consumer writes it from inside
	// OnStep; engines only read it.
	Traced bool
}

// StackEntry is one level of a captured call stack.
type StackEntry struct {
	Fn         string
	CallSiteID int // instruction ID of the callsite into Fn; -1 for the bottom frame
}

// FailureReport describes a failed run: the failure kind, the failing
// instruction (the paper's "statement where the failure manifests
// itself"), and the stack trace. Reports with equal IDs are "the same
// failure" for the purposes of cooperative aggregation (the paper matches
// program counters and stack traces).
type FailureReport struct {
	Kind     FaultKind
	InstrID  int
	Pos      token.Position
	ThreadID int
	Stack    []StackEntry
	Msg      string

	// OtherPCs are the current instructions of the other blocked threads
	// when the failure is a deadlock — a crash dump carries every
	// thread's stack, and for deadlocks the cycle's other participants
	// are part of the failure identity and of the slice roots.
	OtherPCs []int
}

// ID returns a stable identity for the failure across runs.
func (r *FailureReport) ID() string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%d", r.Kind, r.InstrID)
	for _, e := range r.Stack {
		fmt.Fprintf(h, "|%s@%d", e.Fn, e.CallSiteID)
	}
	for _, pc := range r.OtherPCs {
		fmt.Fprintf(h, "|o%d", pc)
	}
	return fmt.Sprintf("f%016x", h.Sum64())
}

// String renders the report like a crash dump header.
func (r *FailureReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s at instruction %%%d (%s), thread T%d\n", r.Kind, r.InstrID, r.Pos, r.ThreadID)
	if r.Msg != "" {
		fmt.Fprintf(&b, "  %s\n", r.Msg)
	}
	for i, e := range r.Stack {
		fmt.Fprintf(&b, "  #%d %s\n", i, e.Fn)
	}
	return b.String()
}

// Outcome is the result of one complete run.
type Outcome struct {
	Failed bool
	Report *FailureReport
	Exit   int64
	Steps  int64
	Prints []string
}

// Hooks are the VM's tracing callbacks. Any field may be nil. Hook code
// must not mutate VM state; it exists so the PT simulator, the watchpoint
// unit and the record/replay recorder can observe execution — exactly
// the attachment points the corresponding hardware provides.
type Hooks struct {
	// OnStep fires before every instruction.
	OnStep func(t *Thread, in *ir.Instr, clock int64)
	// StepMask, when non-nil, is the consumer's promise that OnStep does
	// nothing at instruction id unless StepMask[id] != 0 or the thread's
	// Traced bit is set, and that OnBranch and OnIndirect do nothing on a
	// thread whose Traced bit is clear, so an engine may skip those calls.
	// It is indexed by instruction ID and covers the whole program. Every
	// thread's first step is delivered regardless (threads are born with
	// Traced set), so the consumer sees each thread once and decides its
	// bit. Nil means "call OnStep, OnBranch and OnIndirect at every step
	// they fire on". The tree-walking interpreter ignores the mask and
	// always calls: under the promise above the extra calls are no-ops,
	// which is what lets it stay the oracle for the engine that skips
	// them. The bytecode engine takes a call of a pure function — one
	// that touches only its own frame — whole where no hook sees inside
	// it, running its thread ahead of the schedule; every hook still fires
	// at the interpreter's clock and sees shared memory as of that clock.
	StepMask []uint8
	// OnBranch fires at every conditional branch with its outcome.
	OnBranch func(t *Thread, in *ir.Instr, taken bool, clock int64)
	// OnIndirect fires at control transfers whose target is not a static
	// successor (calls, returns, spawns) — PT TIP packet material.
	OnIndirect func(t *Thread, in *ir.Instr, target *ir.Instr, clock int64)
	// OnLoad/OnStore fire after each successful access to shared memory:
	// globals, the string pool, the heap. Accesses to any thread's stack
	// are not reported, by either engine. That is all the modelled
	// hardware can see: a debug register is armed on the address of a
	// shared variable, an extended-PT PTWRITE packet is emitted for shared
	// accesses in a traced region, and rr's event log holds the loads a
	// replay could not recompute. A thread's frame is none of the three,
	// so an engine need not look up a hook for it.
	OnLoad  func(t *Thread, in *ir.Instr, addr, val, size int64, clock int64)
	OnStore func(t *Thread, in *ir.Instr, addr, val, size int64, clock int64)
	// OnSchedule fires when the scheduler switches threads.
	OnSchedule func(from, to int, clock int64)
	// OnSpawn fires when a thread is created.
	OnSpawn func(parent, child int, fn *ir.Func, clock int64)
}

// Workload is the program input for one run.
type Workload struct {
	Ints []int64
	Strs []string
}

// Config configures one run.
type Config struct {
	Seed int64
	// MaxSteps bounds the run; exceeding it is reported as a hang.
	MaxSteps int64
	// PreemptMean is the average number of instructions between
	// preemptions; smaller means more aggressive interleaving.
	PreemptMean int
	Workload    Workload
	Hooks       Hooks
}

// Normalized returns the config with the defaults applied, so a zero
// MaxSteps or PreemptMean means the same thing on every engine.
func (c Config) Normalized() Config {
	if c.MaxSteps == 0 {
		c.MaxSteps = 2_000_000
	}
	if c.PreemptMean == 0 {
		c.PreemptMean = 5
	}
	return c
}
