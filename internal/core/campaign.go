package core

import (
	"encoding/json"
	"fmt"

	"repro/internal/analysis"
	"repro/internal/cfg"
	"repro/internal/faults"
	"repro/internal/ir"
	"repro/internal/slicer"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/vm"
)

// A Campaign is one in-flight Gist diagnosis, decomposed into an
// explicit state machine. The paper's adaptive slice-tracking loop
// (§3.2.1) refines one failure sketch per failure *while the service
// keeps running*; holding every piece of iteration state — the sigma
// window, refinement-added statements, the seed cursor, per-iteration
// stats, fleet health — in an explicit, serializable struct is what
// lets a diagnosis be checkpointed, killed, resumed, and interleaved
// with other campaigns over a shared fleet.
//
// One AsT iteration is the stage sequence
//
//	Plan → Dispatch → Admit → Rank → Decide
//
// each a method on Campaign. Step runs them in order; Run loops Step to
// completion and is what RunFromReport wraps, byte-identical to the
// historical monolithic loop. Between Steps the campaign sits at an
// iteration boundary where Snapshot can serialize it; RestoreCampaign
// rebuilds an equivalent campaign that continues the diagnosis
// byte-for-byte.
//
// A Campaign is not safe for concurrent use; concurrency lives inside
// its fleet (a Runner: a Pool, private or shared, or a remote fleet)
// and across campaigns (internal/supervise).
type Campaign struct {
	cfg    Config // defaults applied
	label  string // names the campaign in outcomes, errors and logs (cfg.Label)
	report *vm.FailureReport
	runner Runner // executes the batches: a private Pool until UseRunner attaches the driver's fleet

	g   *cfg.TICFG
	sl  *slicer.Slice
	inj *faults.Injector

	// Serializable iteration-boundary state.
	res       *Result
	overheads []float64
	added     []int
	sigma     int
	seed      int64 // next production-run seed (the explicit seed cursor)
	iter      int

	finished bool
	// exhausted marks a campaign that stopped only because cfg.MaxIters
	// ran out — boundary state is intact and a restore with a larger
	// budget may continue, so Snapshot records it as unfinished.
	exhausted bool
	finErr    error

	// inIter guards Snapshot against mid-iteration capture when the
	// stage methods are driven individually.
	inIter bool

	st iterState
}

// iterState is the transient state of the iteration currently in
// flight. It is rebuilt by Plan every iteration and never serialized:
// checkpoints happen only at iteration boundaries.
type iterState struct {
	limit    int
	effSigma int
	window   []int
	plan     *Plan

	failing    []*RunTrace
	successful []*RunTrace

	health    FleetHealth
	lost      []int
	iterStart int
	addedNow  []int

	fleetSpan telemetry.Span
}

// NewCampaign prepares a diagnosis for a failure report: builds the
// TICFG and the static slice (merging deadlock participants), and
// positions the seed cursor right after the seeds discovery actually
// consumed — discovery used cfg.SeedBase..cfg.SeedBase+discRuns-1, so
// production-run seeds start at cfg.SeedBase+discRuns. A nil report
// means none was shipped: discovery (FirstFailure) finds the failure
// first and discRuns is ignored. (The historical loop skipped to
// cfg.SeedBase+maxDiscoveryRuns even when discovery stopped far
// earlier, wasting the gap; checkpoints store the cursor explicitly, so
// restored campaigns replay whatever cursor they were saved with.)
func NewCampaign(c Config, report *vm.FailureReport, discRuns int) (*Campaign, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	if report == nil {
		var err error
		if report, discRuns, err = FirstFailure(c); err != nil {
			return nil, err
		}
	}
	c = c.withDefaults()
	camp := &Campaign{cfg: c, label: c.Label, report: report}
	camp.prepare()
	camp.res.DiscoveryRuns = discRuns
	camp.seed = c.SeedBase + int64(discRuns)
	return camp, nil
}

// prepare builds the derived (non-serialized) campaign state: graph,
// slice, injector, and the result shell. Shared by NewCampaign and
// RestoreCampaign so both construction paths run the same analysis
// phases.
func (c *Campaign) prepare() {
	cfg := c.cfg
	tel := cfg.Telemetry
	sp := tel.StartSpan(telemetry.PhaseTICFG)
	c.g = cfg.BuildGraph()
	sp.End()
	sp = tel.StartSpan(telemetry.PhaseSlice)
	sl := analysis.Slice(cfg.Prog, c.report.InstrID)
	// Deadlock reports carry the other blocked threads' PCs (a crash dump
	// has every thread's stack): slice from each cycle participant and
	// merge, so the sketch shows the whole inversion.
	for _, pc := range c.report.OtherPCs {
		for _, id := range analysis.Slice(cfg.Prog, pc).Discovery {
			sl.Add(id)
		}
	}
	sp.End()
	c.sl = sl
	c.res = &Result{Slice: sl, Report: c.report}
	c.sigma = cfg.Sigma0
	c.inj = faults.NewInjector(cfg.Faults)
	c.runner = NewPool(cfg.Workers)
}

// Label returns the name the campaign goes by in outcomes, errors and logs.
func (c *Campaign) Label() string { return c.label }

// Iteration returns the index of the next AsT iteration to run (equals
// the number of completed iterations at a boundary).
func (c *Campaign) Iteration() int { return c.iter }

// Finished reports whether the diagnosis reached a terminal state.
func (c *Campaign) Finished() bool { return c.finished }

// TotalRuns returns the production runs consumed so far — live progress
// for schedulers measuring per-tenant fleet consumption.
func (c *Campaign) TotalRuns() int { return c.res.TotalRuns }

// UseRunner replaces the campaign's fleet with r: a supervisor's shared
// Pool or the service's remote fleet. Seed binding, admission order, and
// every counter are unchanged: the fleet decides only where runs execute
// and, through fleetChunk, how far ahead of admission they are
// dispatched.
func (c *Campaign) UseRunner(r Runner) { c.runner = r }

// runJobs executes one batch on the campaign's fleet. Results come back
// in job order whichever Runner that is.
func (c *Campaign) runJobs(jobs []RunJob) []*RunTrace {
	return c.runner.RunBatch(c.st.plan, jobs)
}

// need reports whether the current iteration still wants runs.
func (c *Campaign) need() bool {
	return len(c.st.failing) < failuresPerIter || len(c.st.successful) < minSuccesses
}

// makeJob binds one production run's identity — endpoint, seed,
// workload, fault decision — at dispatch time, before the worker pool
// touches it, so parallel execution cannot perturb the seed-to-run
// mapping.
func (c *Campaign) makeJob(e int, s int64) RunJob {
	cfg := c.cfg
	return RunJob{
		Spec: RunSpec{
			EndpointID:  e,
			Seed:        s,
			Workload:    cfg.workloadFor(e),
			PreemptMean: cfg.PreemptMean,
			MaxSteps:    cfg.MaxSteps,
		},
		Dec: c.inj.ForRun(e, s),
	}
}

// admit applies the server's admission logic to one arrived report,
// strictly in dispatch order: crashed and deadline-missing endpoints
// are recorded for the retry pass, arriving reports pass server-side
// validation, and undecodable traces are quarantined away from
// predictor extraction while keeping their outcome.
func (c *Campaign) admit(job RunJob, rt *RunTrace) {
	cfg := c.cfg
	tel := cfg.Telemetry
	st := &c.st
	spec := job.Spec
	// Fault-class accounting happens here, not at dispatch: admission
	// order is the part of the pipeline that is byte-identical at any
	// worker width, so the counters are width-stable even though
	// speculative chunks over-dispatch.
	if tel != nil && job.Dec.Any() {
		tel.Add("faults.injected_runs", 1)
		countFaults(tel, job.Dec)
	}
	st.health.Dispatched++
	c.res.TotalRuns++
	if rt == nil {
		st.health.Lost++
		st.lost = append(st.lost, spec.EndpointID)
		return
	}
	// A hung endpoint's report arrives past the per-run deadline.
	if job.Dec.Hang || (cfg.RunDeadlineSteps > 0 && rt.Outcome != nil && rt.Outcome.Steps > cfg.RunDeadlineSteps) {
		st.health.Deadlined++
		st.lost = append(st.lost, spec.EndpointID)
		return
	}
	quarantine, repaired := validateTrace(rt, len(cfg.Prog.Instrs))
	if quarantine {
		st.health.Quarantined++
		return
	}
	if repaired > 0 {
		st.health.Repaired++
	}
	st.health.Arrived++
	st.health.TrapsDropped += rt.DroppedTraps
	if rt.SalvagedCores > 0 {
		st.health.Salvaged++
	}
	if rt.DecodeErr != nil {
		st.health.DecodeErrs++
		quarantineTraceData(rt)
	}
	if cfg.Features.ExtendedPT {
		// The extended-PT trace logs every shared access; keep only
		// those on addresses the tracked slice touches, the same set
		// hardware watchpoints would have trapped on. The window is
		// drawn from the slice, so the slice covers it.
		rt.filterTraps(c.sl.Contains)
	}
	c.overheads = append(c.overheads, rt.Meter.OverheadPct())
	if rt.Outcome.Failed && rt.Outcome.Report.ID() == c.report.ID() {
		if len(st.failing) < failuresPerIter {
			st.failing = append(st.failing, rt)
		}
	} else if !rt.Outcome.Failed {
		st.successful = append(st.successful, rt)
	}
}

// Plan is stage 1 of an AsT iteration: size the tracked window from the
// current sigma, merge in every refinement-discovered statement, and
// build the instrumentation plan (PT start/stop points, watchpoint
// groups) for the fleet.
func (c *Campaign) Plan() {
	cfg := c.cfg
	c.inIter = true
	c.st = iterState{}
	st := &c.st
	st.limit = c.sl.LineCount()
	st.effSigma = min(c.sigma, st.limit)
	st.window = mergeWindow(c.sl.Window(st.effSigma), c.added)
	sp := cfg.Telemetry.StartSpan(telemetry.PhasePlan)
	st.plan = BuildPlan(c.g, st.window, cfg.Features)
	sp.End()
	st.plan.Telemetry = cfg.Telemetry
	st.plan.exec = cfg.exec
	st.iterStart = len(c.overheads)
}

// Dispatch is stage 2: fan the iteration's endpoint batches out over
// the fleet in speculative chunks while admitting reports strictly in
// dispatch order, stopping at exactly the run where a serial fleet
// would have stopped; speculated runs past that point are discarded
// unconsumed and their seeds are never burned.
func (c *Campaign) Dispatch() {
	cfg := c.cfg
	st := &c.st
	st.fleetSpan = cfg.Telemetry.StartSpan(telemetry.PhaseFleet)
	budget := maxBatches * cfg.Endpoints
	chunk := fleetChunk(c.runner)
	for done := 0; done < budget && c.need(); {
		n := chunk
		if done+n > budget {
			n = budget - done
		}
		jobs := make([]RunJob, n)
		for j := range jobs {
			jobs[j] = c.makeJob((done+j)%cfg.Endpoints, c.seed+int64(j))
		}
		results := c.runJobs(jobs)
		for j, rt := range results {
			if !c.need() {
				break
			}
			c.admit(jobs[j], rt)
			c.seed++
			done++
		}
	}
}

// Admit is stage 3: lost and deadlined endpoints get their batches
// retried with capped exponential backoff — each retry pass costs
// backoff simulated batch delays, then re-seeds a replacement run per
// missing endpoint. A retry batch always runs to completion (need()
// gates passes, not batch members), so the whole batch fans out across
// the pool at once.
func (c *Campaign) Admit() {
	st := &c.st
	backoff := 1
	for retry := 0; retry < maxRetries && len(st.lost) > 0 && c.need(); retry++ {
		st.health.Retries++
		st.health.BackoffBatches += backoff
		batch := st.lost
		st.lost = nil
		jobs := make([]RunJob, len(batch))
		for j, e := range batch {
			jobs[j] = c.makeJob(e, c.seed+int64(j))
		}
		results := c.runJobs(jobs)
		for j, rt := range results {
			st.health.Reseeded++
			c.admit(jobs[j], rt)
			c.seed++
		}
		if backoff < 8 {
			backoff *= 2
		}
	}
	st.fleetSpan.End()
}

// Rank is stage 4, run only when the failure recurred: refinement
// (§3.2.3) folds watchpoint-discovered statements into the slice, then
// the failing/successful populations are statistically compared, the
// predictors ranked, and the iteration's sketch rendered from the
// best-instrumented failing run.
func (c *Campaign) Rank() {
	cfg := c.cfg
	tel := cfg.Telemetry
	st := &c.st
	if len(st.failing) == 0 {
		return // Decide handles the did-not-recur path
	}
	c.res.FailureRecurrences += len(st.failing)

	// Refinement (§3.2.3): statements discovered by the watchpoints that
	// the alias-free static slice missed are added to the slice. Both
	// failing and successful runs contribute: in failing schedules the
	// racing store often happens before any tracked access arms a
	// watchpoint, while successful schedules catch it.
	refine := func(rt *RunTrace) {
		for _, tr := range rt.Traps {
			if c.sl.Add(tr.InstrID) {
				c.added = append(c.added, tr.InstrID)
				st.addedNow = append(st.addedNow, tr.InstrID)
			}
		}
	}
	for _, rt := range st.failing {
		refine(rt)
	}
	for _, rt := range st.successful {
		refine(rt)
	}

	// Quorum (§3.2): with too few validated runs the statistical
	// comparison is noise; rank anyway, but annotate the sketch so the
	// developer knows the confidence is degraded.
	lowConf := len(st.failing)+len(st.successful) < minQuorum
	if lowConf {
		st.health.LowConfidenceIters++
	}
	sp := tel.StartSpan(telemetry.PhaseRank)
	ranked := rankPredictors(cfg.Prog, st.failing, st.successful, cfg.Beta)
	sp.End()
	// Base the sketch on the best-instrumented failing run: under
	// cooperative watchpoint partitioning, different failing runs
	// observed different location classes.
	basis := st.failing[0]
	for _, rt := range st.failing[1:] {
		if betterBasis(rt, basis) {
			basis = rt
		}
	}
	sp = tel.StartSpan(telemetry.PhaseSketch)
	sketch := buildSketch(cfg.Title, st.plan, basis, basis.flow(cfg.Prog), ranked, c.added)
	sp.End()
	sketch.LowConfidence = lowConf
	c.res.Sketch = sketch
	c.res.Iters = append(c.res.Iters, IterStats{
		Sigma:         st.effSigma,
		TrackedInstrs: len(st.window),
		Failing:       len(st.failing),
		Successful:    len(st.successful),
		OverheadPct:   stats.Mean(c.overheads[st.iterStart:]),
		AddedInstrs:   st.addedNow,
		Health:        st.health,
	})
	c.res.Health.Merge(st.health)
}

// Decide is stage 5: fold the iteration into the diagnosis and pick the
// next move — stop at the developer oracle, stop when the window covers
// the slice and refinement converged, error out when the failure never
// recurs, or grow sigma and go around again. It returns true when the
// campaign reached a terminal state.
func (c *Campaign) Decide() bool {
	cfg := c.cfg
	st := &c.st
	c.inIter = false
	if len(st.failing) == 0 {
		c.res.Health.Merge(st.health)
		// The failure did not recur under this window's fleet budget;
		// grow the window and keep waiting, like a real deployment.
		c.growSigma()
		if st.effSigma >= st.limit {
			c.finish(fmt.Errorf("gist: failure %s did not recur (iteration %d)", c.report.ID(), c.iter))
			return true
		}
		c.iter++
		return false
	}
	if cfg.StopWhen != nil && cfg.StopWhen(c.res.Sketch) {
		c.finish(nil)
		return true
	}
	if len(st.addedNow) == 0 && st.effSigma >= st.limit {
		c.finish(nil) // window covers the slice and refinement converged
		return true
	}
	c.growSigma()
	c.iter++
	return false
}

func (c *Campaign) growSigma() {
	if c.cfg.SigmaGrowthAdd > 0 {
		c.sigma += c.cfg.SigmaGrowthAdd
	} else {
		c.sigma *= 2
	}
}

// finish moves the campaign to a terminal state. A nil err is the
// normal completion path: the diagnosis-wide overhead average is
// computed and a missing sketch becomes the "no sketch produced" error.
// The did-not-recur error path deliberately skips the average — exactly
// what the historical loop's early return did.
func (c *Campaign) finish(err error) {
	if c.finished {
		return
	}
	c.finished = true
	c.inIter = false
	if err == nil {
		c.res.AvgOverheadPct = stats.Mean(c.overheads)
		if c.res.Sketch == nil {
			err = fmt.Errorf("gist: no sketch produced")
		}
	}
	c.finErr = err
	// The diagnosis-wide FleetHealth aggregate doubles as the telemetry
	// counter inventory; push it on every terminal path so -metrics-json
	// sees the same numbers the Result carries.
	pushFleetCounters(c.cfg.Telemetry, c.res.Health)
}

// Abandon moves an unfinished campaign to a degraded terminal state —
// the supervisor's circuit breaker calls it after a campaign crash-loops
// past its restart budget. The latest checkpointed sketch is served
// marked low-confidence (degraded but actionable, like a quorum miss);
// a campaign abandoned before any sketch exists terminates with an
// error wrapping the abandonment reason.
func (c *Campaign) Abandon(reason error) {
	if c.finished {
		return
	}
	c.finished = true
	c.inIter = false
	c.res.AvgOverheadPct = stats.Mean(c.overheads)
	if c.res.Sketch != nil {
		c.res.Sketch.LowConfidence = true
	} else if reason != nil {
		c.finErr = fmt.Errorf("gist: campaign abandoned with no sketch: %w", reason)
	} else {
		c.finErr = fmt.Errorf("gist: campaign abandoned with no sketch")
	}
	pushFleetCounters(c.cfg.Telemetry, c.res.Health)
}

// Step runs one full AsT iteration — Plan through Decide — and reports
// whether the campaign finished (with the terminal error, if any). A
// Step on a finished campaign is a no-op returning the same terminal
// state, so drivers can poll freely.
func (c *Campaign) Step() (done bool, err error) {
	if c.finished {
		return true, c.finErr
	}
	if c.iter >= c.cfg.MaxIters {
		c.exhausted = true
		c.finish(nil)
		return true, c.finErr
	}
	c.Plan()
	c.Dispatch()
	c.Admit()
	c.Rank()
	if c.Decide() {
		return true, c.finErr
	}
	return false, nil
}

// Run steps the campaign to completion and returns its result — the
// historical RunFromReport behavior.
func (c *Campaign) Run() (*Result, error) {
	for {
		done, err := c.Step()
		if done {
			return c.res, err
		}
	}
}

// Result returns the finished campaign's outcome. Stepping drivers call
// it after Step reports done; the partial Result of an unfinished
// campaign is not exposed because its aggregate fields (AvgOverheadPct)
// are not yet computed.
func (c *Campaign) Result() (*Result, error) {
	if !c.finished {
		return nil, fmt.Errorf("gist: campaign not finished (iteration %d)", c.iter)
	}
	return c.res, c.finErr
}

// ------------------------------------------------------------ snapshot

// CampaignSnapshotVersion is the checkpoint schema version this build
// reads and writes. Unknown versions are rejected with a clear error so
// a stale checkpoint can never silently corrupt a diagnosis.
const CampaignSnapshotVersion = 1

// CampaignSnapshot is the versioned, serializable image of a campaign
// at an iteration boundary. Everything a resumed process cannot
// recompute deterministically is explicit: the failure report, the seed
// cursor, refinement-added statements (in discovery order, so the slice
// rebuilds byte-identically), the overhead samples, and the accumulated
// result including the latest sketch.
type CampaignSnapshot struct {
	Version int    `json:"version"`
	Label   string `json:"label,omitempty"`
	Title   string `json:"title"`

	Report        *vm.FailureReport `json:"report"`
	ReportID      string            `json:"report_id"`
	DiscoveryRuns int               `json:"discovery_runs"`

	Iter       int       `json:"iter"`
	Sigma      int       `json:"sigma"`
	SeedCursor int64     `json:"seed_cursor"`
	Added      []int     `json:"added,omitempty"`
	Overheads  []float64 `json:"overheads,omitempty"`

	FailureRecurrences int         `json:"failure_recurrences"`
	TotalRuns          int         `json:"total_runs"`
	Health             FleetHealth `json:"health"`
	Iters              []IterStats `json:"iters,omitempty"`

	// Sketch is the latest sketch, its own JSON form; the program and
	// report are reattached on restore.
	Sketch *Sketch `json:"sketch,omitempty"`

	// Finished marks a terminal campaign (developer oracle, convergence,
	// or the did-not-recur error — recorded in FinalErr). A campaign
	// that merely ran out of MaxIters snapshots as unfinished boundary
	// state, so resuming with a larger budget continues the diagnosis.
	Finished       bool    `json:"finished,omitempty"`
	FinalErr       string  `json:"final_err,omitempty"`
	AvgOverheadPct float64 `json:"avg_overhead_pct,omitempty"`
}

// Snapshot serializes the campaign at the current iteration boundary.
// It fails if called mid-iteration (between individually driven stage
// methods): transient fleet state is deliberately not serializable.
func (c *Campaign) Snapshot() (*CampaignSnapshot, error) {
	if c.inIter {
		return nil, fmt.Errorf("gist: snapshot mid-iteration %d; snapshots happen at iteration boundaries", c.iter)
	}
	snap := &CampaignSnapshot{
		Version:            CampaignSnapshotVersion,
		Label:              c.label,
		Title:              c.cfg.Title,
		Report:             c.report,
		ReportID:           c.report.ID(),
		DiscoveryRuns:      c.res.DiscoveryRuns,
		Iter:               c.iter,
		Sigma:              c.sigma,
		SeedCursor:         c.seed,
		Added:              append([]int(nil), c.added...),
		Overheads:          append([]float64(nil), c.overheads...),
		FailureRecurrences: c.res.FailureRecurrences,
		TotalRuns:          c.res.TotalRuns,
		Health:             c.res.Health,
		Iters:              append([]IterStats(nil), c.res.Iters...),
		// A copy, unbound like a decoded one: Abandon marks the live
		// sketch low-confidence in place, which a supervisor's last good
		// snapshot must never see. Nothing mutates a sketch's slices once
		// it is built, so shallow is enough.
		Sketch: c.res.Sketch.attach(nil, nil),
	}
	if c.finished && !c.exhausted {
		snap.Finished = true
		snap.AvgOverheadPct = c.res.AvgOverheadPct
		if c.finErr != nil {
			snap.FinalErr = c.finErr.Error()
		}
	}
	return snap, nil
}

// RenderSketchJSON rebuilds the snapshot's sketch against prog and
// renders it exactly as a live campaign does (MarshalIndentJSON), so a
// sketch reloaded from a durable checkpoint after cache eviction is
// byte-identical to the one the finishing campaign served from memory.
// It fails when the snapshot carries no sketch (a campaign checkpointed
// before its first ranking, or one that errored out).
func (s *CampaignSnapshot) RenderSketchJSON(prog *ir.Program) ([]byte, error) {
	if err := s.fits(prog); err != nil {
		return nil, err
	}
	if s.Sketch == nil {
		return nil, fmt.Errorf("gist: checkpoint for %s has no sketch", s.Title)
	}
	return s.Sketch.attach(prog, s.Report).MarshalIndentJSON()
}

// fits rejects a snapshot that cannot belong to prog: a CRC-valid
// checkpoint written for another build of the program names
// instructions this one does not have, and restoring or rendering it
// would index past the program. Every instruction ID the snapshot
// carries must lie in prog, and sigma must not be negative.
func (s *CampaignSnapshot) fits(prog *ir.Program) error {
	if s.Report == nil {
		return fmt.Errorf("gist: checkpoint has no failure report")
	}
	if s.Sigma < 0 {
		return fmt.Errorf("gist: checkpoint sigma %d is negative", s.Sigma)
	}
	ids := append([]int{s.Report.InstrID}, s.Report.OtherPCs...)
	ids = append(ids, s.Added...)
	if s.Sketch != nil {
		ids = append(ids, s.Sketch.AddedByRefinement...)
		for _, ranked := range [][]Ranked{s.Sketch.Predictors, s.Sketch.AllRanked} {
			for _, r := range ranked {
				ids = append(ids, r.InstrIDs...)
			}
		}
	}
	for _, id := range ids {
		if id < 0 || id >= len(prog.Instrs) {
			return fmt.Errorf("gist: checkpoint names instruction %d; %s has %d", id, prog.Name, len(prog.Instrs))
		}
	}
	return nil
}

// Encode renders the snapshot as compact JSON with a trailing newline.
// DecodeCampaignSnapshot reads either form, so the indented generations
// earlier builds wrote still resume.
func (s *CampaignSnapshot) Encode() ([]byte, error) {
	data, err := json.Marshal(s)
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// DecodeCampaignSnapshot parses a checkpoint, rejecting unknown schema
// versions before looking at anything else.
func DecodeCampaignSnapshot(data []byte) (*CampaignSnapshot, error) {
	var probe struct {
		Version int `json:"version"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, fmt.Errorf("gist: checkpoint is not valid JSON: %w", err)
	}
	if probe.Version != CampaignSnapshotVersion {
		return nil, fmt.Errorf("gist: checkpoint version %d not supported (this build reads version %d)",
			probe.Version, CampaignSnapshotVersion)
	}
	var snap CampaignSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("gist: checkpoint: %w", err)
	}
	if snap.Report == nil {
		return nil, fmt.Errorf("gist: checkpoint has no failure report")
	}
	if snap.ReportID != "" && snap.Report.ID() != snap.ReportID {
		return nil, fmt.Errorf("gist: checkpoint report identity %s does not match stored id %s",
			snap.Report.ID(), snap.ReportID)
	}
	return &snap, nil
}

// RestoreCampaign rebuilds a campaign from a snapshot under cfg. The
// static analysis is recomputed (it is memoized and deterministic), the
// refinement-added statements are replayed onto the slice in their
// original discovery order, and the explicit seed cursor is restored
// verbatim — so continuing the campaign reproduces the uninterrupted
// diagnosis byte-for-byte from the checkpointed boundary on.
func RestoreCampaign(c Config, snap *CampaignSnapshot) (*Campaign, error) {
	if snap == nil {
		return nil, fmt.Errorf("gist: nil checkpoint")
	}
	if snap.Version != CampaignSnapshotVersion {
		return nil, fmt.Errorf("gist: checkpoint version %d not supported (this build reads version %d)",
			snap.Version, CampaignSnapshotVersion)
	}
	if err := c.validate(); err != nil {
		return nil, err
	}
	if err := snap.fits(c.Prog); err != nil {
		return nil, err
	}
	c = c.withDefaults()
	camp := &Campaign{cfg: c, label: c.Label, report: snap.Report}
	if snap.Label != "" {
		camp.label = snap.Label
	}
	camp.prepare()

	// Replay refinement in discovery order so Slice.IDs/Discovery match
	// the uninterrupted run exactly.
	for _, id := range snap.Added {
		camp.added = append(camp.added, id)
		camp.sl.Add(id)
	}
	camp.sigma = snap.Sigma
	camp.seed = snap.SeedCursor
	camp.iter = snap.Iter
	camp.overheads = append([]float64(nil), snap.Overheads...)

	camp.res.DiscoveryRuns = snap.DiscoveryRuns
	camp.res.FailureRecurrences = snap.FailureRecurrences
	camp.res.TotalRuns = snap.TotalRuns
	camp.res.Health = snap.Health
	camp.res.Iters = append([]IterStats(nil), snap.Iters...)
	// A copy, like Snapshot's: Abandon marks the live sketch low-confidence
	// in place, and the snapshot may be a supervisor's last good one.
	camp.res.Sketch = snap.Sketch.attach(c.Prog, snap.Report)

	if snap.Finished {
		camp.finished = true
		camp.res.AvgOverheadPct = snap.AvgOverheadPct
		if snap.FinalErr != "" {
			camp.finErr = fmt.Errorf("%s", snap.FinalErr)
		}
	}
	return camp, nil
}

// betterBasis prefers a failing run with a clean decode over one whose
// trace had to be quarantined, then the run with the larger trap log
// (strictly larger, so the earliest run wins ties and the clean-fleet
// choice is unchanged).
func betterBasis(a, b *RunTrace) bool {
	if (a.DecodeErr == nil) != (b.DecodeErr == nil) {
		return a.DecodeErr == nil
	}
	return len(a.Traps) > len(b.Traps)
}

// countFaults records one admitted run's injected fault classes.
func countFaults(tel *telemetry.Tracer, dec faults.Decision) {
	for _, c := range []struct {
		name string
		hit  bool
	}{
		{"faults.crash", dec.Crash},
		{"faults.hang", dec.Hang},
		{"faults.overflow", dec.Overflow},
		{"faults.corrupt", dec.Corrupt},
		{"faults.drop_traps", dec.DropTraps},
		{"faults.reorder_traps", dec.ReorderTraps},
		{"faults.truncate", dec.Truncate != faults.TruncateNone},
	} {
		if c.hit {
			tel.Add(c.name, 1)
		}
	}
}

// pushFleetCounters mirrors a FleetHealth aggregate into telemetry
// counters, unifying the scattered per-subsystem accounting under one
// "fleet.*" namespace.
func pushFleetCounters(tel *telemetry.Tracer, h FleetHealth) {
	if tel == nil {
		return
	}
	for _, c := range h.counts() {
		tel.Add("fleet."+c.name, int64(*c.n))
	}
}
