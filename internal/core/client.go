package core

import (
	"sort"

	"repro/internal/cost"
	"repro/internal/faults"
	"repro/internal/hw/pt"
	"repro/internal/hw/watch"
	"repro/internal/ir"
	"repro/internal/telemetry"
	"repro/internal/vm"
)

// RunSpec identifies one production run at one endpoint.
type RunSpec struct {
	EndpointID  int
	Seed        int64
	Workload    vm.Workload
	PreemptMean int
	MaxSteps    int64
}

// RunTrace is what an endpoint ships back to the Gist server for one run:
// the run outcome, the decoded control flow of the tracked regions, the
// watchpoint trap log (values + total order of shared accesses), and the
// overhead meter.
type RunTrace struct {
	Spec    RunSpec
	Outcome *vm.Outcome

	// Flow holds, per thread (= per PT core), the decoded instruction
	// sequences of the traced regions, concatenated in per-core order.
	Flow map[int][]int
	// Branches holds, per thread, the conditional-branch outcomes the
	// decoder recovered from TNT bits.
	Branches map[int][]pt.BranchObs
	// Executed is the set of instructions observed by control-flow
	// tracking (union of Flow).
	Executed map[int]bool
	// Traps is the watchpoint access log in global clock order.
	Traps []watch.Trap
	// WatchMisses counts shared accesses in the watch group that could
	// not be watched because all debug registers were armed (triggers
	// cooperative partitioning pressure).
	WatchMisses int

	Meter cost.Meter
	// DecodeErr reports a PT decode problem (trace corruption) that
	// salvage could not recover from; the run still contributes its
	// outcome, but the server must not feed its flow/branch data to
	// predictor extraction.
	DecodeErr error
	// SalvagedCores counts cores whose corrupt trace was partially
	// recovered by PSB resynchronization (SalvageDecode).
	SalvagedCores int
	// Late marks a report that arrived past the server's per-run
	// deadline (a hung endpoint); the server discards it.
	Late bool
	// DroppedTraps / ReorderedTraps count trap-log damage injected in
	// flight, for fleet-health accounting.
	DroppedTraps   int
	ReorderedTraps int
	// Truncated names the RunTrace field a truncation fault ate.
	Truncated faults.TruncateKind
}

// Failed reports whether the traced run failed.
func (rt *RunTrace) Failed() bool { return rt.Outcome.Failed }

// RunInstrumented executes one production run under the plan's
// instrumentation and collects the traces — the Gist client (Fig. 2,
// steps 2 and 4) — on a perfectly reliable endpoint.
func RunInstrumented(plan *Plan, spec RunSpec) *RunTrace {
	return RunInstrumentedFaults(plan, spec, faults.Decision{})
}

// RunInstrumentedFaults is RunInstrumented on a fallible endpoint: the
// decision injects the production failure modes of the fleet (endpoint
// crash, hang, ring-buffer overflow, trace corruption, trap loss and
// reordering, report truncation). A zero decision injects nothing and
// behaves byte-identically to RunInstrumented. A crashed endpoint
// returns nil: its report never reaches the server.
func RunInstrumentedFaults(plan *Plan, spec RunSpec, dec faults.Decision) *RunTrace {
	if dec.Crash {
		return nil
	}
	rt := &RunTrace{
		Spec:     spec,
		Flow:     make(map[int][]int),
		Branches: make(map[int][]pt.BranchObs),
		Executed: make(map[int]bool),
	}
	tracer := pt.NewTracer(pt.Config{BufBytes: dec.BufBytes(0)}, &rt.Meter)
	unit := watch.NewUnit(&rt.Meter)

	// threads is the client's per-thread tracking state, indexed by thread
	// ID. Every thread's first step reaches OnStep (see vm.Hooks.StepMask),
	// which is where its entry is made.
	type threadState struct {
		// pendingStop is the instruction after which tracing must be
		// disabled, or -1; the disable is performed when the thread takes
		// its next step so that the instruction's own packets are recorded
		// first.
		pendingStop int
		lastTraced  int
	}
	var threads []threadState
	thread := func(tid int) *threadState {
		for tid >= len(threads) {
			threads = append(threads, threadState{pendingStop: -1})
		}
		return &threads[tid]
	}

	var hooks vm.Hooks
	if plan.Feats.ControlFlow {
		if plan.Feats.ExtendedPT {
			// In the §6 extended-PT mode, tracing is simply always on: the
			// whole point of the extension is that trace cost is low enough
			// to keep PT running, with data packets making watchpoints
			// unnecessary. No step mask: every step must reach the hook.
			hooks.OnStep = func(t *vm.Thread, in *ir.Instr, clock int64) {
				if !tracer.Enabled(t.ID) {
					tracer.Enable(t.ID, in.ID)
				}
				tracer.InstrRetired(t.ID)
				thread(t.ID).lastTraced = in.ID
			}
		} else {
			// The hook does nothing at an instruction without a flag on a
			// thread that is not tracing, which is the promise StepMask
			// needs: the engine then calls it at flagged instructions, at
			// every step of a thread whose Traced bit it left set, and at
			// each thread's first step — which is what gives every thread
			// that retires an instruction its (possibly empty) PT core.
			hooks.StepMask = plan.stepFlags
			hooks.OnStep = func(t *vm.Thread, in *ir.Instr, clock int64) {
				st := thread(t.ID)
				if st.pendingStop >= 0 {
					tracer.Disable(t.ID, st.pendingStop)
					st.pendingStop = -1
				}
				flags := plan.stepFlags[in.ID]
				on := tracer.Enabled(t.ID)
				if !on && flags&planStart != 0 {
					tracer.Enable(t.ID, in.ID)
					on = true
				}
				if on {
					tracer.InstrRetired(t.ID)
					st.lastTraced = in.ID
					if flags&planStopAfter != 0 {
						st.pendingStop = in.ID
					}
				}
				t.Traced = on
			}
		}
		// Branch and TIP return early on a core that is not tracing, and
		// after every OnStep Traced is whether the core traces, so on a
		// thread whose bit is clear both hooks do nothing — the other half
		// of the StepMask promise. Every thread's first step makes its core
		// before any branch can reach one.
		hooks.OnBranch = func(t *vm.Thread, in *ir.Instr, taken bool, clock int64) {
			tracer.Branch(t.ID, in.ID, taken)
		}
		hooks.OnIndirect = func(t *vm.Thread, in *ir.Instr, target *ir.Instr, clock int64) {
			if in.Op == ir.OpCall || in.Op == ir.OpRet {
				tracer.TIP(t.ID, in.ID, target.ID)
			}
		}
	}
	// OnLoad and OnStore share one closure: the instruction says which of
	// the two it is.
	if plan.Feats.DataFlow && plan.Feats.ExtendedPT && plan.Feats.ControlFlow {
		// Extended-PT data flow (§6): every shared access inside a traced
		// region becomes a PTW packet; no debug registers, no groups.
		data := func(t *vm.Thread, in *ir.Instr, addr, val, size int64, clock int64) {
			tracer.Data(t.ID, in.ID, addr, val, size, in.Op == ir.OpStore, clock)
		}
		hooks.OnLoad, hooks.OnStore = data, data
	} else if grp := plan.GroupOf(spec.EndpointID); plan.Feats.DataFlow && grp >= 0 {
		// Without watch groups nothing is ever armed, so no access can trap
		// and the hooks stay nil.
		var armedClass [watch.NumRegisters]bool
		access := func(t *vm.Thread, in *ir.Instr, addr, val, size int64, clock int64) {
			// Arm a watchpoint the first time a tracked access touches its
			// location class (conceptually inserted right before the
			// access, so the triggering access itself traps too). One
			// debug register per class: the watchpoint watches "the
			// variable", so an array walk does not drain the register
			// file.
			if k := plan.watchRegister(in.ID, grp); k < watch.NumRegisters && !armedClass[k] && !unit.Watched(addr, size) {
				if _, err := unit.SetAny(watch.Watchpoint{Addr: addr, Size: size, Kind: watch.KindReadWrite}); err != nil {
					rt.WatchMisses++
				} else {
					armedClass[k] = true
				}
			}
			unit.CheckAccess(t.ID, in.ID, addr, size, val, in.Op == ir.OpStore, clock)
		}
		hooks.OnLoad, hooks.OnStore = access, access
	}

	execSpan := plan.Telemetry.StartSpan(telemetry.PhaseRunExec)
	rt.Outcome = exec(plan.exec, plan.Prog, vm.Config{
		Seed:        spec.Seed,
		MaxSteps:    spec.MaxSteps,
		PreemptMean: spec.PreemptMean,
		Workload:    spec.Workload,
		Hooks:       hooks,
	}, plan.Telemetry)
	execSpan.End()
	// Steps counts exactly the OnStep firings an unmasked run would see,
	// on either engine.
	rt.Meter.AddInstr(rt.Outcome.Steps)

	if plan.Feats.ControlFlow {
		decodeSpan := plan.Telemetry.StartSpan(telemetry.PhaseDecode)
		seen := make([]bool, len(plan.Prog.Instrs))
		for _, core := range tracer.Cores() {
			if tracer.Enabled(core) {
				tracer.Disable(core, thread(core).lastTraced)
			}
			buf, wrapped := tracer.CoreBytes(core)
			buf = dec.CorruptTrace(buf)
			flow, branches, data, err := pt.DecodeFlow(plan.Prog, buf, wrapped)
			if err != nil {
				// Corrupt trace: salvage the PSB-delimited chunks that
				// still parse and replay; only when nothing survives is
				// the core's flow abandoned (DecodeErr tells the server
				// to keep this run away from predictor extraction).
				segs, sbranches, sdata, srep := pt.SalvageDecode(plan.Prog, buf, wrapped)
				if !srep.Recovered() {
					rt.DecodeErr = err
					continue
				}
				rt.SalvagedCores++
				branches, data = sbranches, sdata
				flow = make([]int, 0, srep.Instrs)
				for _, seg := range segs {
					flow = append(flow, seg.Instrs...)
				}
			}
			rt.Branches[core] = branches
			if len(flow) > 0 {
				rt.Flow[core] = flow
			}
			for _, id := range flow {
				if !seen[id] {
					seen[id] = true
					rt.Executed[id] = true
				}
			}
			// Extended-PT data packets become the access log, exactly as
			// watchpoint traps would (the TSC is the total order).
			for _, d := range data {
				rt.Traps = append(rt.Traps, watch.Trap{
					Addr: d.Addr, Val: d.Val, Size: d.Size,
					IsWrite: d.IsWrite, InstrID: d.IP, Thread: core, Clock: d.TSC,
				})
			}
		}
		sort.Slice(rt.Traps, func(i, j int) bool { return rt.Traps[i].Clock < rt.Traps[j].Clock })
		decodeSpan.End()
	}
	// The decoded flow is the RunTrace's own; the raw ring buffers can go
	// back to the pool for the next run on this worker.
	tracer.Release()
	watchSpan := plan.Telemetry.StartSpan(telemetry.PhaseWatch)
	if plan.Feats.DataFlow && !plan.Feats.ExtendedPT {
		rt.Traps = unit.Traps()
	}
	unit.Release()
	rt.applyTransitFaults(dec)
	watchSpan.End()
	return rt
}

// applyTransitFaults degrades the finished RunTrace the way the network
// path between endpoint and server can: dropped/reordered trap records,
// truncated fields, and a hung report that will miss the deadline.
func (rt *RunTrace) applyTransitFaults(dec faults.Decision) {
	if !dec.Any() {
		return
	}
	rt.Traps, rt.DroppedTraps, rt.ReorderedTraps = dec.ApplyTraps(rt.Traps)
	switch dec.Truncate {
	case faults.TruncateOutcome:
		rt.Outcome = nil
	case faults.TruncateTraps:
		rt.Traps = rt.Traps[:dec.TruncateAt(len(rt.Traps))]
	case faults.TruncateBranches:
		var cores []int
		for core := range rt.Branches {
			cores = append(cores, core)
		}
		sort.Ints(cores)
		if len(cores) > 0 {
			delete(rt.Branches, dec.PickCore(cores))
		}
	}
	rt.Truncated = dec.Truncate
	rt.Late = dec.Hang
}

// FilterTraps keeps only traps on addresses that some relevant
// instruction (per isRelevant) accessed in this run. The watchpoint unit
// gives this behavior in hardware (only slice-armed addresses trap); the
// extended-PT mode logs every shared access in traced regions, so the
// server applies the same address-relevance filter in software.
func (rt *RunTrace) FilterTraps(isRelevant func(instrID int) bool) {
	relevant := make(map[int64]bool)
	for _, tr := range rt.Traps {
		if isRelevant(tr.InstrID) {
			relevant[tr.Addr] = true
		}
	}
	var kept []watch.Trap
	for _, tr := range rt.Traps {
		if relevant[tr.Addr] {
			kept = append(kept, tr)
		}
	}
	rt.Traps = kept
}

// BranchOutcomes returns each traced conditional branch's observed
// outcomes (a branch can take both arms in one run), straight from the
// decoder's TNT consumption.
func (rt *RunTrace) BranchOutcomes(prog *ir.Program) map[int]map[bool]bool {
	out := make(map[int]map[bool]bool)
	for _, obs := range rt.Branches {
		for _, o := range obs {
			m := out[o.IP]
			if m == nil {
				m = make(map[bool]bool)
				out[o.IP] = m
			}
			m[o.Taken] = true
		}
	}
	return out
}
