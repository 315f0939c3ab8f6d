package core

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/cfg"
	"repro/internal/faults"
	"repro/internal/hw/pt"
	"repro/internal/hw/watch"
	"repro/internal/ir"
	"repro/internal/slicer"
	"repro/internal/vm"
)

// TestZeroDecisionMatchesCleanClient pins the byte-identity contract: a
// zero fault decision must leave RunInstrumentedFaults indistinguishable
// from the clean client.
func TestZeroDecisionMatchesCleanClient(t *testing.T) {
	cfg := pbzipConfig(t).withDefaults()
	report, _, err := FirstFailure(cfg)
	if err != nil {
		t.Fatalf("discovery: %v", err)
	}
	g := cfg.BuildGraph()
	sl := slicer.Compute(g, report.InstrID)
	plan := BuildPlan(g, sl.Window(4), AllFeatures())
	for seed := int64(50); seed < 56; seed++ {
		spec := RunSpec{EndpointID: int(seed), Seed: seed, PreemptMean: 3, MaxSteps: 200_000}
		clean := RunInstrumented(plan, spec)
		faulty := RunInstrumentedFaults(plan, spec, faults.Decision{})
		if !reflect.DeepEqual(clean, faulty) {
			t.Fatalf("seed %d: zero decision changed the run trace", seed)
		}
	}
}

// TestFleetHealthCleanFleet: with injection disabled every dispatched
// run arrives and nothing is degraded.
func TestFleetHealthCleanFleet(t *testing.T) {
	res, err := Run(pbzipConfig(t))
	if err != nil {
		t.Fatalf("gist run: %v", err)
	}
	h := res.Health
	if h.Degraded() {
		t.Errorf("clean fleet reports degradation: %s", h)
	}
	if h.Dispatched != h.Arrived {
		t.Errorf("clean fleet lost runs: %s", h)
	}
	if h.Dispatched != res.TotalRuns {
		t.Errorf("health dispatched=%d but TotalRuns=%d", h.Dispatched, res.TotalRuns)
	}
	for i, it := range res.Iters {
		if it.Health.Degraded() {
			t.Errorf("iteration %d degraded on a clean fleet: %s", i, it.Health)
		}
	}
}

// TestGistSurvivesChaosPbzip is the core-level chaos regression: at a
// 10% composite fault rate the pbzip2 sketch must still contain the
// root cause, and the whole diagnosis must be deterministic in the
// injector seed.
func TestGistSurvivesChaosPbzip(t *testing.T) {
	run := func() *Result {
		cfg := pbzipConfig(t)
		cfg.Faults = faults.Composite(42, 0.10)
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("gist run under 10%% faults: %v", err)
		}
		return res
	}
	res := run()
	sk := res.Sketch
	if sk == nil {
		t.Fatal("no sketch under faults")
	}
	lines := map[int]bool{}
	for _, s := range sk.Steps {
		lines[s.Line] = true
	}
	for _, want := range []int{14, 15} { // f = fifo; unlock(f->mut)
		if !lines[want] {
			t.Errorf("sketch lost root-cause line %d under faults; lines: %v", want, lines)
		}
	}
	if !sk.Steps[len(sk.Steps)-1].IsFailure {
		t.Error("failure is no longer the last sketch step")
	}
	if !res.Health.Degraded() {
		t.Errorf("10%% composite faults injected but fleet health is clean: %s", res.Health)
	}

	res2 := run()
	if sk.Render() != res2.Sketch.Render() {
		t.Error("chaos diagnosis is not deterministic: sketches differ across identical runs")
	}
	if res.Health != res2.Health {
		t.Errorf("chaos diagnosis is not deterministic: health %s vs %s", res.Health, res2.Health)
	}
}

// TestRetryReseedsCrashedEndpoints: a starved iteration (one endpoint,
// so a budget of maxBatches runs, and a heavy crash rate) must spend
// retry passes with backoff and re-seed replacement runs for the lost
// endpoints.
func TestRetryReseedsCrashedEndpoints(t *testing.T) {
	cfg := pbzipConfig(t)
	cfg.Endpoints = 1
	cfg.Faults = faults.Config{Seed: 7, CrashRate: 0.5}
	res, _ := Run(cfg) // convergence is not the point; fleet behavior is
	if res == nil {
		t.Fatal("no result at all")
	}
	h := res.Health
	if h.Lost == 0 {
		t.Fatalf("50%% crash rate lost nothing: %s", h)
	}
	if h.Retries == 0 || h.Reseeded == 0 {
		t.Errorf("lost endpoints were not retried/re-seeded: %s", h)
	}
	if h.BackoffBatches < h.Retries {
		t.Errorf("each retry pass must cost at least one backoff batch: %s", h)
	}
	if h.Dispatched != h.Arrived+h.Lost+h.Deadlined+h.Quarantined {
		t.Errorf("health does not account for every dispatched run: %s", h)
	}
}

// TestValidateTraceRepairsDamage covers the server's admission checks:
// reordered trap logs are re-sorted, wild instruction IDs dropped,
// duplicated traps tolerated, and reports without a usable outcome
// quarantined.
func TestValidateTraceRepairsDamage(t *testing.T) {
	rt := &RunTrace{
		Outcome: &vm.Outcome{},
		Traps: []watch.Trap{
			{InstrID: 1, Clock: 5},
			{InstrID: 2, Clock: 3},
			{InstrID: 2, Clock: 3}, // duplicated delivery
			{InstrID: 999, Clock: 4},
		},
	}
	quarantine, repaired := validateTrace(rt, 10)
	if quarantine {
		t.Fatal("repairable trace was quarantined")
	}
	if repaired < 2 {
		t.Errorf("expected at least 2 repairs (wild ID + re-sort), got %d", repaired)
	}
	if len(rt.Traps) != 3 {
		t.Errorf("wild-ID trap not dropped: %v", rt.Traps)
	}
	for i := 1; i < len(rt.Traps); i++ {
		if rt.Traps[i].Clock < rt.Traps[i-1].Clock {
			t.Errorf("traps not re-sorted: %v", rt.Traps)
		}
	}

	if q, _ := validateTrace(&RunTrace{}, 10); !q {
		t.Error("trace without outcome must be quarantined")
	}
	if q, _ := validateTrace(&RunTrace{Outcome: &vm.Outcome{Failed: true}}, 10); !q {
		t.Error("failed run without a failure report must be quarantined")
	}
}

// TestDecodeErrRunsContributeNoBranchData: a quarantined-decode run may
// keep its outcome and traps, but predictor extraction must see none of
// its control-flow evidence.
func TestDecodeErrRunsContributeNoBranchData(t *testing.T) {
	prog := ir.MustCompile("curl.mc", curlProg)
	var branchID int
	for _, in := range prog.Instrs {
		if in.Op == ir.OpBr {
			branchID = in.ID
			break
		}
	}
	// The ring buffers of a real fully traced run, so the flow the
	// quarantine must withhold is there to be withheld.
	all := make([]int, len(prog.Instrs))
	for i := range all {
		all[i] = i
	}
	rec := RunInstrumented(BuildPlan(cfg.BuildTICFG(prog), all, AllFeatures()), RunSpec{Seed: 1, MaxSteps: 100_000})
	if len(rec.flow(prog)) == 0 {
		t.Fatal("the traced run decodes to no flow")
	}
	rt := &RunTrace{
		PT:        rec.PT,
		Branches:  map[int][]pt.BranchObs{0: {{IP: branchID, Taken: true}}},
		Traps:     []watch.Trap{{InstrID: 1, Addr: 8, Val: 3}, {InstrID: 1 << 20, Addr: 8}},
		DecodeErr: errors.New("simulated corruption"),
	}
	extractPredicates(prog, rt, func(k predKey) {
		if k.kind == PredBranch {
			t.Errorf("DecodeErr run leaked branch predictor %+v", k)
		}
		for _, id := range k.ids[:k.n] {
			if id < 0 || id >= len(prog.Instrs) {
				t.Errorf("predictor %+v names wild instruction %d", k, id)
			}
		}
	})

	quarantineTraceData(rt)
	if len(rt.flow(prog)) != 0 || rt.Branches != nil {
		t.Error("quarantineTraceData left control-flow payload behind")
	}
	if len(rt.Traps) == 0 {
		t.Error("quarantine must keep the trap log (it travels outside the PT trace)")
	}
}

// TestRunDeadlineDiscardsSlowRuns: a per-run step deadline must discard
// runs that consumed more steps than allowed, counting them as
// deadlined, while an unhindered config accepts them.
func TestRunDeadlineDiscardsSlowRuns(t *testing.T) {
	cfg := pbzipConfig(t)
	cfg.RunDeadlineSteps = 1 // nothing finishes in one step
	cfg.Endpoints = 1
	cfg.MaxIters = 1
	res, err := Run(cfg)
	if err == nil {
		t.Fatal("every run missed the deadline yet the diagnosis converged")
	}
	if res.Health.Deadlined == 0 {
		t.Errorf("no runs counted as deadlined: %s", res.Health)
	}
	if res.Health.Arrived != 0 {
		t.Errorf("runs beat an impossible deadline: %s", res.Health)
	}
}

// TestDiscoveryProgressAndBudget covers the hardened FirstFailure: a
// discovery that never sees a failure stops at maxDiscoveryRuns with an
// error instead of spinning on.
func TestDiscoveryProgressAndBudget(t *testing.T) {
	prog := ir.MustCompile("ok.mc", `int main() { return 0; }`)
	_, runs, err := FirstFailure(Config{Prog: prog})
	if err == nil {
		t.Fatal("program cannot fail; discovery must error")
	}
	if runs != maxDiscoveryRuns {
		t.Errorf("discovery stopped after %d runs, want %d", runs, maxDiscoveryRuns)
	}
}

// TestQuorumAnnotatesLowConfidence: an iteration that ranks predictors
// from fewer validated runs than the quorum must mark its sketch. One
// endpoint at a heavy crash rate starves the iteration; at this fixed
// seed it keeps one failing and one successful run, under minQuorum's
// three.
func TestQuorumAnnotatesLowConfidence(t *testing.T) {
	cfg := pbzipConfig(t)
	cfg.Endpoints = 1
	cfg.Faults = faults.Config{Seed: 1, CrashRate: 0.8}
	cfg.MaxIters = 1
	res, _ := Run(cfg)
	if res == nil || res.Sketch == nil {
		t.Fatal("no sketch")
	}
	if !res.Sketch.LowConfidence {
		t.Error("sketch not annotated low-confidence below quorum")
	}
	if res.Health.LowConfidenceIters == 0 {
		t.Errorf("health did not count the low-confidence iteration: %s", res.Health)
	}
}
