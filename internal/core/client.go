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

// RunTrace is one production run as the Gist server sees it: the run
// outcome, each core's PT ring buffer and the branch outcomes decoded
// from it, the watchpoint trap log (values + total order of shared
// accesses), and the overhead meter. The endpoint records the raw half
// (RecordRun: Spec, Outcome, PT, the watch unit's Traps, Meter);
// FinishRun derives Branches, the extended-PT trap log and the decode
// accounting from it, so an upload ships only what the server cannot
// regenerate. The decoded control flow is not kept: every run feeds
// predictor ranking through its branches and traps, but a sketch is
// drawn from one run's flow, which flow derives from PT on demand.
type RunTrace struct {
	Spec    RunSpec
	Outcome *vm.Outcome

	// PT holds each core's ring buffer, in tracer.Cores() order: after
	// RecordRun the packets the hardware wrote, after FinishRun the
	// bytes it decoded (in-flight corruption applied).
	PT []PTCore
	// Branches holds, per thread (= per PT core), the conditional-branch
	// outcomes the decoder recovered from TNT bits.
	Branches map[int][]pt.BranchObs
	// Traps is the watchpoint access log in global clock order.
	Traps []watch.Trap

	Meter cost.Meter
	// DecodeErr reports a PT decode problem (trace corruption) that
	// salvage could not recover from; the run still contributes its
	// outcome, but the server must not feed its flow/branch data to
	// predictor extraction.
	DecodeErr error
	// SalvagedCores counts cores whose corrupt trace was partially
	// recovered by PSB resynchronization (SalvageDecode).
	SalvagedCores int
	// DroppedTraps counts trap records lost in flight, for fleet-health
	// accounting.
	DroppedTraps int
}

// PTCore is one core's PT ring buffer as the tracer left it. Data is
// nil for a core that never traced; Wrapped marks a buffer whose oldest
// bytes the ring discarded (the decoder resyncs at a PSB).
type PTCore struct {
	Core    int    `json:"core"`
	Data    []byte `json:"data,omitempty"`
	Wrapped bool   `json:"wrapped,omitempty"`
}

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
//
// It is RecordRun followed by FinishRun: what a remote agent does,
// then what the wire and the server do with the agent's upload.
func RunInstrumentedFaults(plan *Plan, spec RunSpec, dec faults.Decision) *RunTrace {
	rt := RecordRun(plan, spec, dec)
	if rt != nil {
		FinishRun(plan, rt, dec)
	}
	return rt
}

// RecordRun is the endpoint's half of a production run: it executes the
// run under the plan's instrumentation and returns what the hardware
// recorded — the outcome, each core's raw PT ring buffer, the watchpoint
// trap log and the cost meter. Only the decision's endpoint faults apply
// here (crash, a forced-tiny ring buffer); a crashed endpoint returns
// nil. Everything that draws from the decision's stream happens in
// FinishRun.
//
// A run that never spawns is stored in the plan's run memo (memo.go),
// and a later run with the same workload, watch group, ring size and
// scheduler limits executes nothing: it gets a copy of the stored record
// stamped with its own Spec, counted in vm.run_memo_hit. Its PT bytes,
// Outcome and trap log are shared with the memo and must not be written.
func RecordRun(plan *Plan, spec RunSpec, dec faults.Decision) *RunTrace {
	if dec.Crash {
		return nil
	}
	key := memoKey{
		workload:    spec.Workload,
		group:       plan.groupOf(spec.EndpointID),
		bufBytes:    dec.BufBytes(0),
		preemptMean: spec.PreemptMean,
		maxSteps:    spec.MaxSteps,
	}
	if rt := plan.memo.lookup(&key, spec); rt != nil {
		plan.Telemetry.StartSpan(telemetry.PhaseRunExec).End()
		plan.Telemetry.Add("vm.run_memo_hit", 1)
		return rt
	}
	rt := &RunTrace{Spec: spec}
	tracer := pt.NewTracer(pt.Config{BufBytes: key.bufBytes}, &rt.Meter)
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

	spawned := false
	hooks := vm.Hooks{OnSpawn: func(int, int, *ir.Func, int64) { spawned = true }}
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
	if plan.Feats.DataFlow && plan.Feats.ExtendedPT && plan.Feats.ControlFlow {
		// Extended-PT data flow (§6): every shared access inside a traced
		// region becomes a PTW packet; no debug registers, no groups.
		hooks.OnAccess = func(t *vm.Thread, in *ir.Instr, addr, val, size int64, write bool, clock int64) {
			tracer.Data(t.ID, in.ID, addr, val, size, write, clock)
		}
	} else if grp := key.group; plan.Feats.DataFlow && grp >= 0 {
		// Without watch groups nothing is ever armed, so no access can trap
		// and the hook stays nil.
		var armedClass [watch.NumRegisters]bool
		hooks.OnAccess = func(t *vm.Thread, in *ir.Instr, addr, val, size int64, write bool, clock int64) {
			// Arm a watchpoint the first time a tracked access touches its
			// location class (conceptually inserted right before the
			// access, so the triggering access itself traps too). One
			// debug register per class: the watchpoint watches "the
			// variable", so an array walk does not drain the register
			// file. A fresh unit and at most NumRegisters classes per
			// group mean SetAny cannot run out of registers; should it
			// fail anyway, the class stays unarmed and a later access
			// tries again.
			if k := plan.watchRegister(in.ID, grp); k < watch.NumRegisters && !armedClass[k] && !unit.Watched(addr, size) {
				if _, err := unit.SetAny(watch.Watchpoint{Addr: addr, Size: size, Kind: watch.KindReadWrite}); err == nil {
					armedClass[k] = true
				}
			}
			unit.CheckAccess(t.ID, in.ID, addr, size, val, write, clock)
		}
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

	if cores := tracer.Cores(); len(cores) > 0 {
		rt.PT = make([]PTCore, len(cores))
		for i, core := range cores {
			if tracer.Enabled(core) {
				tracer.Disable(core, thread(core).lastTraced)
			}
			rt.PT[i].Core = core
		}
		// The ring buffers go back to the spare list for the next run,
		// so the trace keeps a copy, all cores in one array.
		raw := make([]byte, 0, tracer.BufferedBytes())
		for i := range rt.PT {
			buf, wrapped := tracer.CoreBytes(rt.PT[i].Core)
			rt.PT[i].Wrapped = wrapped
			if len(buf) > 0 {
				raw = append(raw, buf...)
				rt.PT[i].Data = raw[len(raw)-len(buf) : len(raw) : len(raw)]
			}
		}
	}
	tracer.Release()
	if plan.Feats.DataFlow && !plan.Feats.ExtendedPT {
		rt.Traps = unit.Traps()
	}
	unit.Release()
	if !spawned {
		plan.memo.store(&key, rt)
	}
	return rt
}

// FinishRun is the in-flight and server half of a production run: it
// applies the decision's faults that draw from its seeded stream, in the
// stream's order — trace corruption per core, then trap loss and
// reordering, then truncation — keeps the corrupted bytes on rt.PT,
// decodes each core's buffer into Branches (salvaging what a corrupt
// buffer still holds), and turns extended-PT data packets into the trap
// log. It replays the packets without copying out the flow; flow does
// that for the one run a sketch is drawn from. The decision must be
// fresh: FinishRun consumes its stream.
func FinishRun(plan *Plan, rt *RunTrace, dec faults.Decision) {
	rt.Branches = make(map[int][]pt.BranchObs)
	if plan.Feats.ControlFlow {
		decodeSpan := plan.Telemetry.StartSpan(telemetry.PhaseDecode)
		var ptw []watch.Trap
		for i := range rt.PT {
			c := &rt.PT[i]
			c.Data = dec.CorruptTrace(c.Data)
			_, branches, data, salvaged, err := decodeCore(plan.Prog, *c, false)
			if err != nil {
				// Nothing survived: DecodeErr tells the server to keep
				// this run away from predictor extraction.
				rt.DecodeErr = err
				continue
			}
			if salvaged {
				rt.SalvagedCores++
			}
			rt.Branches[c.Core] = branches
			// Extended-PT data packets become the access log, exactly as
			// watchpoint traps would (the TSC is the total order).
			for _, d := range data {
				ptw = append(ptw, watch.Trap{
					Addr: d.Addr, Val: d.Val, Size: d.Size,
					IsWrite: d.IsWrite, InstrID: d.IP, Thread: c.Core, Clock: d.TSC,
				})
			}
		}
		sort.Slice(ptw, func(i, j int) bool { return ptw[i].Clock < ptw[j].Clock })
		// With watch groups the unit's log is the access log; a stray
		// data packet in a corrupt buffer does not join it.
		if !plan.Feats.DataFlow || plan.Feats.ExtendedPT {
			rt.Traps = ptw
		}
		decodeSpan.End()
	}
	watchSpan := plan.Telemetry.StartSpan(telemetry.PhaseWatch)
	rt.applyTransitFaults(dec)
	watchSpan.End()
}

// decodeCore is the server's rule for one core's buffer: a clean decode,
// else the PSB-delimited chunks that still parse and replay
// (pt.SalvageDecode, salvaged true). err is the clean decode's error
// when nothing survives. Without wantFlow a clean decode copies out no
// flow.
func decodeCore(prog *ir.Program, c PTCore, wantFlow bool) (flow []int, branches []pt.BranchObs, data []pt.DataObs, salvaged bool, err error) {
	if wantFlow {
		flow, branches, data, err = pt.DecodeFlow(prog, c.Data, c.Wrapped)
	} else {
		branches, data, err = pt.DecodeBranches(prog, c.Data, c.Wrapped)
	}
	if err == nil {
		return flow, branches, data, false, nil
	}
	sflow, sbranches, sdata, rep := pt.SalvageDecode(prog, c.Data, c.Wrapped)
	if !rep.Recovered() {
		return nil, nil, nil, false, err
	}
	return sflow, sbranches, sdata, true, nil
}

// flow decodes, per thread (= per PT core), the instruction sequences
// of the traced regions, concatenated in per-core order, by the same
// rule FinishRun decoded the branches with. A core whose flow is empty
// has no entry, and a run FinishRun could not decode (DecodeErr) has no
// flow at all.
func (rt *RunTrace) flow(prog *ir.Program) map[int][]int {
	flows := make(map[int][]int)
	if rt.DecodeErr != nil {
		return flows
	}
	for _, c := range rt.PT {
		if flow, _, _, _, err := decodeCore(prog, c, true); err == nil && len(flow) > 0 {
			flows[c.Core] = flow
		}
	}
	return flows
}

// applyTransitFaults degrades the finished RunTrace the way the network
// path between endpoint and server can: dropped/reordered trap records,
// truncated fields, and a hung report that will miss the deadline.
func (rt *RunTrace) applyTransitFaults(dec faults.Decision) {
	if !dec.Any() {
		return
	}
	rt.Traps, rt.DroppedTraps = dec.ApplyTraps(rt.Traps)
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
}

// filterTraps keeps only traps on addresses that some relevant
// instruction (per isRelevant) accessed in this run. The watchpoint unit
// gives this behavior in hardware (only slice-armed addresses trap); the
// extended-PT mode logs every shared access in traced regions, so the
// server applies the same address-relevance filter in software.
func (rt *RunTrace) filterTraps(isRelevant func(instrID int) bool) {
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
