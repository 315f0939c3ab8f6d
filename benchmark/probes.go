package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/ir"
	"repro/internal/lang/parser"
	"repro/internal/lang/sema"
	"repro/internal/service"
	"repro/internal/shard"
	"repro/internal/slicer"
	"repro/internal/store"
	"repro/internal/vm"
	"repro/internal/vm/bytecode"
)

// Layer probes time each layer's public entry points directly, on inputs
// taken from the suite. A figure is the median of its calls; "suite sum"
// figures add the per-bug medians, so they read as the cost of one pass
// over all twelve bugs. Every probe makes at least 200 calls.
const (
	probeReps = 20 // calls per bug of each front-end and checkpoint function
	probeRuns = 25 // runs per bug of each VM probe
)

// timeCalls calls f n times and returns each call's duration in µs.
func timeCalls(n int, f func()) []float64 {
	out := make([]float64, n)
	for i := range out {
		t0 := time.Now()
		f()
		out[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	return out
}

// captureRunner is a core.Runner that runs each batch in process and
// keeps the last plan a campaign dispatched under, with its jobs: real
// inputs for the run probes, straight from core.
type captureRunner struct {
	plan *core.Plan
	jobs []core.RunJob
}

func (r *captureRunner) RunBatch(plan *core.Plan, jobs []core.RunJob) []*core.RunTrace {
	if plan != r.plan {
		r.plan, r.jobs = plan, nil
	}
	r.jobs = append(r.jobs, jobs...)
	out := make([]*core.RunTrace, len(jobs))
	for i, job := range jobs {
		out[i] = core.RunInstrumentedFaults(plan, job.Spec, job.Dec)
	}
	return out
}

// runProbes fills the probe metrics. It returns an error only when a
// layer rejects an input the set-up already accepted.
func runProbes(s *suite, m *metricSet) error {
	var (
		parseUS, buildUS, ticfgUS, sliceUS, compileUS, planUS  float64
		sketchUS, encUS, decUS, restoreUS                      float64
		srcBytes, irInstrs, sliceInstrs, codeInstrs, snapBytes int

		rawUS, instrUS, saveUS, traceEncUS, traceDecUS []float64
		steps                                          int64
		rawNS                                          float64
		mallocs                                        uint64
	)
	ckpt, err := store.Open("probe", "ckpt", store.Options{Backend: store.NewMemBackend(), NoFsync: true})
	if err != nil {
		return err
	}
	for _, c := range s.cases {
		b := c.bug
		name := b.Name + ".mc"
		fail := func(what string, err error) error { return fmt.Errorf("probe %s %s: %w", b.Name, what, err) }

		// lang, ir, cfg, slicer, vm.bytecode: the front end, stage by stage.
		var info *sema.Info
		var perr error
		parseUS += median(timeCalls(probeReps, func() {
			file, err := parser.ParseFile(name, b.Source)
			if err == nil {
				info, err = sema.Check(file)
			}
			perr = err
		}))
		if perr != nil {
			return fail("parse+check", perr)
		}
		srcBytes += len(b.Source)
		var prog *ir.Program
		buildUS += median(timeCalls(probeReps, func() { prog, perr = ir.Build(info, b.Source) }))
		if perr != nil {
			return fail("ir.Build", perr)
		}
		irInstrs += len(prog.Instrs)
		var g *cfg.TICFG
		ticfgUS += median(timeCalls(probeReps, func() { g = cfg.BuildTICFG(prog) }))
		var sl *slicer.Slice
		sliceUS += median(timeCalls(probeReps, func() { sl = slicer.Compute(g, c.report.InstrID) }))
		sliceInstrs += sl.InstrCount()
		var bp *bytecode.Program
		compileUS += median(timeCalls(probeReps, func() { bp = bytecode.Compile(prog) }))
		codeInstrs += bp.NumInstrs()

		// One serial campaign through the Runner seam captures the plan
		// and run specs of its last iteration and leaves a finished
		// campaign to snapshot.
		serial := c.cfg
		serial.Workers = 1
		camp, err := core.NewCampaign(serial, c.report, c.disc)
		if err != nil {
			return fail("NewCampaign", err)
		}
		capture := &captureRunner{}
		camp.UseRunner(capture)
		res, err := camp.Run()
		if err != nil {
			return fail("campaign", err)
		}

		// core (run) and vm.bytecode: the same runs with and without the
		// PT/watchpoint hooks, on the program the campaign ran.
		plan := capture.plan
		planUS += median(timeCalls(probeReps, func() { core.BuildPlan(serial.BuildGraph(), plan.Tracked, plan.Feats) }))
		raw := bytecode.Compile(plan.Prog)
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		for k := 0; k < probeRuns; k++ {
			spec := capture.jobs[k%len(capture.jobs)].Spec
			t0 := time.Now()
			out, _ := raw.Run(vm.Config{Seed: spec.Seed, MaxSteps: spec.MaxSteps, PreemptMean: spec.PreemptMean, Workload: spec.Workload})
			ns := float64(time.Since(t0).Nanoseconds())
			rawUS = append(rawUS, ns/1e3)
			rawNS += ns
			steps += out.Steps
		}
		runtime.ReadMemStats(&ms1)
		mallocs += ms1.Mallocs - ms0.Mallocs
		var rt *core.RunTrace
		for k := 0; k < probeRuns; k++ {
			spec := capture.jobs[k%len(capture.jobs)].Spec
			t0 := time.Now()
			rt = core.RunInstrumented(plan, spec)
			instrUS = append(instrUS, float64(time.Since(t0).Nanoseconds())/1e3)
		}

		// service (wire codec) on the last trace.
		var wire []byte
		traceEncUS = append(traceEncUS, timeCalls(probeReps, func() { wire, perr = json.Marshal(service.EncodeTrace(rt)) })...)
		if perr != nil {
			return fail("encode trace", perr)
		}
		traceDecUS = append(traceDecUS, timeCalls(probeReps, func() {
			var wt service.WireTrace
			if perr = json.Unmarshal(wire, &wt); perr == nil {
				service.DecodeTrace(&wt)
			}
		})...)
		if perr != nil {
			return fail("decode trace", perr)
		}

		// core (sketch, checkpoint) and store.
		sketchUS += median(timeCalls(probeReps, func() { _, perr = res.Sketch.MarshalIndentJSON() }))
		if perr != nil {
			return fail("sketch json", perr)
		}
		snap, err := camp.Snapshot()
		if err != nil {
			return fail("snapshot", err)
		}
		var payload []byte
		encUS += median(timeCalls(probeReps, func() { payload, perr = snap.Encode() }))
		if perr != nil {
			return fail("snapshot encode", perr)
		}
		snapBytes += len(payload)
		var decoded *core.CampaignSnapshot
		decUS += median(timeCalls(probeReps, func() { decoded, perr = core.DecodeCampaignSnapshot(payload) }))
		if perr != nil {
			return fail("snapshot decode", perr)
		}
		restoreUS += median(timeCalls(probeReps, func() { _, perr = core.RestoreCampaign(serial, decoded) }))
		if perr != nil {
			return fail("restore", perr)
		}
		saveUS = append(saveUS, timeCalls(probeReps, func() { _, perr = ckpt.Save(payload) })...)
		if perr != nil {
			return fail("store save", perr)
		}
	}

	m.set("lang.parse_check_us", parseUS)
	m.set("lang.src_kb_per_sec", float64(srcBytes)/1024/(parseUS/1e6))
	m.set("ir.build_us", buildUS)
	m.set("ir.instrs", float64(irInstrs))
	m.set("cfg.ticfg_us", ticfgUS)
	m.set("slicer.compute_us", sliceUS)
	m.set("slicer.slice_instrs", float64(sliceInstrs))
	m.set("vm.bytecode.compile_us", compileUS)
	m.set("vm.bytecode.code_instrs", float64(codeInstrs))
	m.set("vm.bytecode.raw_run_us_p50", median(rawUS))
	m.set("vm.bytecode.msteps_per_sec", float64(steps)/1e6/(rawNS/1e9))
	m.set("vm.bytecode.allocs_per_run", float64(mallocs)/float64(len(rawUS)))
	m.set("core.build_plan_us", planUS)
	m.set("core.instr_run_us_p50", median(instrUS))
	m.set("core.instr_over_raw", median(instrUS)/median(rawUS))
	m.set("core.sketch_json_us", sketchUS)
	m.set("core.sketch_bytes", float64(s.sketchBytes()))
	m.set("core.snapshot_encode_us", encUS)
	m.set("core.snapshot_decode_us", decUS)
	m.set("core.restore_us", restoreUS)
	m.set("core.snapshot_kb", float64(snapBytes)/1024)
	m.set("store.save_us_p50", median(saveUS))
	m.set("service.trace_encode_us", median(traceEncUS))
	m.set("service.trace_decode_us", median(traceDecUS))

	// ingest: one dedup decision. Too short to time singly, so each
	// sample is the mean of a batch over the suite's signatures.
	front := ingest.NewFrontend(0)
	var ingestNS []float64
	for rep := 0; rep < probeReps; rep++ {
		const batch = 1200
		t0 := time.Now()
		for k := 0; k < batch; k++ {
			c := s.cases[k%len(s.cases)]
			front.Ingest("probe", c.bug.Name, c.report, int64(k))
		}
		ingestNS = append(ingestNS, float64(time.Since(t0).Nanoseconds())/batch)
	}
	m.set("ingest.ingest_ns_op", median(ingestNS))

	// shard: one lease claim and one renewal; each claim is released so
	// the table the next one scans stays empty.
	leases, err := shard.NewLeaseTable(store.NewMemBackend(), "probe", 10*time.Second, true)
	if err != nil {
		return err
	}
	var claimUS, renewUS []float64
	for k := 0; k < 10*probeReps; k++ {
		campaign := fmt.Sprintf("c%03d", k)
		t0 := time.Now()
		won, _, err := leases.Claim(campaign, "w1")
		t1 := time.Now()
		if err != nil || !won {
			return fmt.Errorf("probe lease claim %s: won=%v err=%v", campaign, won, err)
		}
		if _, err := leases.Renew(campaign, "w1"); err != nil {
			return fmt.Errorf("probe lease renew %s: %w", campaign, err)
		}
		claimUS = append(claimUS, float64(t1.Sub(t0).Nanoseconds())/1e3)
		renewUS = append(renewUS, float64(time.Since(t1).Nanoseconds())/1e3)
		leases.Release(campaign, "w1")
	}
	m.set("shard.claim_us_p50", median(claimUS))
	m.set("shard.renew_us_p50", median(renewUS))
	return nil
}
