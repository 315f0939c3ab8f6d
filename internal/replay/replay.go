// Package replay implements the record/replay baseline Gist is compared
// against in Fig. 13 (Mozilla rr-style software record/replay).
//
// The recorder logs every source of nondeterminism the replayer would
// need: the scheduling decisions, thread creations, and every shared
// (non-stack) memory access with its value. Each logged event pays the
// software logging cost (synchronization + copy), which is what makes
// full record/replay roughly two orders of magnitude more expensive than
// hardware control-flow tracing — the paper's core comparison.
//
// Replay re-executes the program and verifies the recorded event stream
// is reproduced exactly, the fidelity property record/replay systems
// guarantee.
package replay

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/cost"
	"repro/internal/ir"
	"repro/internal/vm"
	"repro/internal/vm/bytecode"
)

// EventKind classifies recorded events.
type EventKind int

// Recorded event kinds.
const (
	EvLoad EventKind = iota
	EvStore
	EvSchedule
	EvSpawn
)

// Event is one recorded nondeterministic event.
type Event struct {
	Kind    EventKind
	Thread  int
	InstrID int
	Addr    int64
	Val     int64
	Clock   int64
}

// Log is a complete recording of one run.
type Log struct {
	Seed        int64
	Workload    vm.Workload
	PreemptMean int
	MaxSteps    int64
	Events      []Event
	Outcome     *vm.Outcome
}

// Record executes prog under full recording and returns the log and the
// overhead meter. Besides the per-event logging cost, every instruction
// executed while more than one thread is runnable pays the single-core
// serialization tax: rr deschedules all but one thread, so parallel
// phases slow down by the lost parallelism.
func Record(prog *ir.Program, cfg vm.Config) (*Log, *cost.Meter) {
	log := &Log{Seed: cfg.Seed, Workload: cfg.Workload, PreemptMean: cfg.PreemptMean, MaxSteps: cfg.MaxSteps}
	meter := &cost.Meter{}
	hooks := recordHooks(log, meter)
	bp, _ := analysis.Bytecode(prog)
	machine := bytecode.NewMachine(bp)
	base := hooks.OnStep
	hooks.OnStep = func(t *vm.Thread, in *ir.Instr, clock int64) {
		base(t, in, clock)
		if machine.RunnableThreads() > 1 {
			meter.AddExtra(cost.RRSerializeMC)
		}
	}
	cfg.Hooks = hooks
	log.Outcome = machine.Run(cfg)
	return log, meter
}

func recordHooks(log *Log, meter *cost.Meter) vm.Hooks {
	emit := func(e Event) {
		log.Events = append(log.Events, e)
		if meter != nil {
			meter.AddExtra(cost.RREventMC)
		}
	}
	return vm.Hooks{
		OnStep: func(t *vm.Thread, in *ir.Instr, clock int64) {
			if meter != nil {
				meter.AddInstr(1)
			}
		},
		OnLoad: func(t *vm.Thread, in *ir.Instr, addr, val, size int64, clock int64) {
			emit(Event{Kind: EvLoad, Thread: t.ID, InstrID: in.ID, Addr: addr, Val: val, Clock: clock})
		},
		OnStore: func(t *vm.Thread, in *ir.Instr, addr, val, size int64, clock int64) {
			emit(Event{Kind: EvStore, Thread: t.ID, InstrID: in.ID, Addr: addr, Val: val, Clock: clock})
		},
		OnSchedule: func(from, to int, clock int64) {
			emit(Event{Kind: EvSchedule, Thread: to, Addr: int64(from), Clock: clock})
		},
		OnSpawn: func(parent, child int, fn *ir.Func, clock int64) {
			emit(Event{Kind: EvSpawn, Thread: parent, Addr: int64(child), Clock: clock})
		},
	}
}

// Replay re-executes the recorded run and verifies that the event stream
// and the outcome match the log exactly. It returns the replayed outcome.
func Replay(prog *ir.Program, log *Log) (*vm.Outcome, error) {
	check := &Log{Seed: log.Seed, Workload: log.Workload}
	cfg := vm.Config{
		Seed:        log.Seed,
		Workload:    log.Workload,
		PreemptMean: log.PreemptMean,
		MaxSteps:    log.MaxSteps,
		Hooks:       recordHooks(check, nil),
	}
	bp, _ := analysis.Bytecode(prog)
	out, _ := bp.Run(cfg)
	if len(check.Events) != len(log.Events) {
		return out, fmt.Errorf("replay: event count mismatch: recorded %d, replayed %d", len(log.Events), len(check.Events))
	}
	for i := range log.Events {
		if log.Events[i] != check.Events[i] {
			return out, fmt.Errorf("replay: event %d diverged: recorded %+v, replayed %+v", i, log.Events[i], check.Events[i])
		}
	}
	if out.Failed != log.Outcome.Failed || out.Exit != log.Outcome.Exit || out.Steps != log.Outcome.Steps {
		return out, fmt.Errorf("replay: outcome diverged")
	}
	if out.Failed && out.Report.ID() != log.Outcome.Report.ID() {
		return out, fmt.Errorf("replay: failure identity diverged")
	}
	return out, nil
}

// OverheadPct runs prog under recording and returns the overhead
// percentage (the Fig. 13 measurement for the rr bar).
func OverheadPct(prog *ir.Program, cfg vm.Config) float64 {
	_, meter := Record(prog, cfg)
	return meter.OverheadPct()
}
