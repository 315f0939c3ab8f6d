package core

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/cfg"
	"repro/internal/faults"
	"repro/internal/ir"
	"repro/internal/slicer"
	"repro/internal/telemetry"
	"repro/internal/vm"
)

// Config configures one end-to-end Gist diagnosis (Fig. 2).
type Config struct {
	Prog  *ir.Program
	Title string

	// Label names the campaign (the service uses "tenant/key") in
	// supervisor outcomes, error messages and logs, and is recorded in
	// its checkpoints. It never changes what the diagnosis computes.
	Label string

	// exec, when non-nil, replaces the bytecode engine for every run of
	// the diagnosis (discovery and instrumented fleet runs alike). Test
	// seam only — see exec in engine.go.
	exec execFunc

	// Sigma0 is the initial tracked-slice size in statements (§3.2.1;
	// the paper uses 2). Each AsT iteration doubles it.
	Sigma0 int
	// SigmaGrowthAdd, when positive, switches AsT to additive window
	// growth (sigma += SigmaGrowthAdd) instead of the paper's
	// multiplicative doubling — the growth-strategy ablation.
	SigmaGrowthAdd int
	// Features gates static/control-flow/data-flow tracking (Fig. 10).
	Features Features

	// Endpoints is the number of production runs per AsT iteration (the
	// cooperative fleet slice assigned to this failure).
	Endpoints int
	// MaxBatches bounds how many endpoint batches one iteration may
	// consume while waiting for the failure to recur.
	MaxBatches int
	// FailuresPerIter is how many failing runs each AsT iteration
	// consumes before re-planning (the paper's per-iteration failure
	// recurrences; Table 1 counts their total).
	FailuresPerIter int
	// MinSuccesses is how many successful runs each iteration gathers for
	// the statistical comparison before it stops early.
	MinSuccesses int
	// MaxIters bounds AsT iterations.
	MaxIters int

	// WorkloadPool is the set of inputs endpoints run; endpoint k uses
	// pool[k mod len]. An empty pool means empty workloads.
	WorkloadPool []vm.Workload

	PreemptMean int
	MaxSteps    int64
	SeedBase    int64
	// Beta is the F-measure beta; the paper uses 0.5.
	Beta float64

	// StopWhen is the developer oracle: given the iteration's sketch,
	// decide whether it contains the root cause and AsT can stop. If nil,
	// AsT runs until the window covers the whole slice.
	StopWhen func(*Sketch) bool

	// MaxDiscoveryRuns bounds the search for the first failure.
	MaxDiscoveryRuns int
	// DiscoveryStepBudget bounds the total interpreted steps discovery
	// may consume across runs, so a hang-class bug with an unlucky seed
	// cannot burn the whole MaxDiscoveryRuns budget; 0 means unlimited.
	DiscoveryStepBudget int64

	// Faults configures the fault-injected fleet; the zero value keeps
	// every endpoint perfectly reliable (byte-identical to the
	// pre-chaos pipeline).
	Faults faults.Config
	// RunDeadlineSteps is the per-run step deadline the server applies
	// to arriving reports: a run whose outcome consumed more steps, or
	// whose endpoint hung, is discarded so it cannot stall the
	// iteration. 0 disables the deadline.
	RunDeadlineSteps int64
	// MinQuorum is the minimum number of validated failing+successful
	// runs an iteration needs before its predictor ranking is
	// considered trustworthy; below it the sketch is annotated as low
	// confidence. 0 means 3.
	MinQuorum int

	// Workers bounds how many endpoint runs the server executes
	// concurrently (discovery, iteration, and retry batches). Results
	// are admitted in dispatch order, so any worker count produces
	// byte-identical diagnoses; 0 means GOMAXPROCS.
	Workers int

	// Telemetry, when non-nil, receives phase spans (discovery, TICFG
	// build, slicing, planning, fleet collection, ranking, sketch
	// rendering, and the client-side run/decode/watch phases) plus
	// fleet and fault counters. Telemetry only observes: the diagnosis
	// is byte-identical with it nil or set, at any worker width.
	Telemetry *telemetry.Tracer
}

// Validate rejects configurations that out-of-range CLI flags (or
// library callers) could smuggle in: negative worker counts, fault
// probabilities outside [0,1], negative budgets. Zero values are always
// valid — they mean "use the default". Run, RunFromReport, and
// FirstFailure all call this, so every entry point is guarded.
func (c Config) Validate() error {
	for _, f := range []struct {
		name string
		v    int64
	}{
		{"Workers", int64(c.Workers)},
		{"Sigma0", int64(c.Sigma0)},
		{"SigmaGrowthAdd", int64(c.SigmaGrowthAdd)},
		{"Endpoints", int64(c.Endpoints)},
		{"MaxBatches", int64(c.MaxBatches)},
		{"FailuresPerIter", int64(c.FailuresPerIter)},
		{"MinSuccesses", int64(c.MinSuccesses)},
		{"MaxIters", int64(c.MaxIters)},
		{"MaxSteps", c.MaxSteps},
		{"RunDeadlineSteps", c.RunDeadlineSteps},
		{"MinQuorum", int64(c.MinQuorum)},
		{"MaxDiscoveryRuns", int64(c.MaxDiscoveryRuns)},
		{"DiscoveryStepBudget", c.DiscoveryStepBudget},
	} {
		if f.v < 0 {
			return fmt.Errorf("gist: config %s = %d is negative", f.name, f.v)
		}
	}
	if c.Beta < 0 {
		return fmt.Errorf("gist: config Beta = %g is negative", c.Beta)
	}
	if err := c.Faults.Validate(); err != nil {
		return fmt.Errorf("gist: %w", err)
	}
	return nil
}

// maxRetries caps the retry passes (with capped exponential backoff) the
// AsT controller spends re-seeding replacement runs for lost endpoints
// in one iteration.
const maxRetries = 3

func (c Config) withDefaults() Config {
	if c.Sigma0 == 0 {
		c.Sigma0 = 2
	}
	if c.Endpoints == 0 {
		c.Endpoints = 40
	}
	if c.MaxBatches == 0 {
		c.MaxBatches = 8
	}
	if c.FailuresPerIter == 0 {
		c.FailuresPerIter = 2
	}
	if c.MinSuccesses == 0 {
		c.MinSuccesses = 6
	}
	if c.MaxIters == 0 {
		c.MaxIters = 12
	}
	if c.PreemptMean == 0 {
		c.PreemptMean = 3
	}
	if c.MaxSteps == 0 {
		c.MaxSteps = 200_000
	}
	if c.Beta == 0 {
		c.Beta = 0.5
	}
	if c.MaxDiscoveryRuns == 0 {
		c.MaxDiscoveryRuns = 4000
	}
	if c.MinQuorum == 0 {
		c.MinQuorum = 3
	}
	if c.Workers == 0 {
		c.Workers = defaultWorkers()
	}
	if c.Workers < 1 {
		c.Workers = 1
	}
	if !c.Features.Static && !c.Features.ControlFlow && !c.Features.DataFlow {
		c.Features = AllFeatures()
	}
	return c
}

// IterStats records one AsT iteration for the evaluation harness.
type IterStats struct {
	Sigma         int
	TrackedLines  int
	TrackedInstrs int
	Failing       int
	Successful    int
	// OverheadPct is the mean client overhead across this iteration's
	// instrumented runs.
	OverheadPct float64
	// AddedInstrs are statements discovered by data-flow refinement this
	// iteration.
	AddedInstrs []int
	// Health summarizes fleet behavior during this iteration: losses,
	// decode errors, quarantined runs, retries.
	Health FleetHealth
}

// Result is the outcome of a Gist diagnosis.
type Result struct {
	Sketch *Sketch
	Slice  *slicer.Slice
	Report *vm.FailureReport
	Iters  []IterStats

	// FailureRecurrences counts the failing production runs consumed
	// after the initial failure (Table 1's "# failure recurrences").
	FailureRecurrences int
	TotalRuns          int
	// AvgOverheadPct is the mean client overhead across all instrumented
	// runs of the diagnosis.
	AvgOverheadPct float64
	// DiscoveryRuns is how many runs were needed to see the first failure.
	DiscoveryRuns int
	// Health aggregates fleet behavior across the whole diagnosis.
	Health FleetHealth
}

// workloadFor picks the workload for an endpoint.
func (c Config) workloadFor(k int) vm.Workload {
	if len(c.WorkloadPool) == 0 {
		return vm.Workload{}
	}
	return c.WorkloadPool[k%len(c.WorkloadPool)]
}

// FirstFailure runs uninstrumented executions until the target program
// fails, returning the failure report (the crash dump a production
// deployment would ship) and how many runs it took. A positive
// RunDeadlineSteps caps each run's steps (a hung run trips the VM's
// hang fault at the deadline instead of burning the whole MaxSteps
// allowance), and DiscoveryStepBudget bounds the total steps across
// runs.
//
// Runs execute on the fleet's worker pool (Config.Workers) in
// speculative chunks; outcomes are consumed in seed order, so the
// report, run count, and budget errors are identical to serial search.
func FirstFailure(cfg Config) (*vm.FailureReport, int, error) {
	if err := cfg.Validate(); err != nil {
		return nil, 0, err
	}
	cfg = cfg.withDefaults()
	sp := cfg.Telemetry.StartSpan(telemetry.PhaseDiscovery)
	defer sp.End()
	maxSteps := cfg.MaxSteps
	if cfg.RunDeadlineSteps > 0 && cfg.RunDeadlineSteps < maxSteps {
		maxSteps = cfg.RunDeadlineSteps
	}
	var totalSteps int64
	pool := NewPool(cfg.Workers)
	chunk := fleetChunk(pool.Width())
	for base := 0; base < cfg.MaxDiscoveryRuns; base += chunk {
		n := chunk
		if base+n > cfg.MaxDiscoveryRuns {
			n = cfg.MaxDiscoveryRuns - base
		}
		outs := parallelMap(pool, n, func(j int) *vm.Outcome {
			i := base + j
			return exec(cfg.exec, cfg.Prog, vm.Config{
				Seed:        cfg.SeedBase + int64(i),
				PreemptMean: cfg.PreemptMean,
				MaxSteps:    maxSteps,
				Workload:    cfg.workloadFor(i),
			}, cfg.Telemetry)
		})
		for j, out := range outs {
			i := base + j
			totalSteps += out.Steps
			if out.Failed {
				return out.Report, i + 1, nil
			}
			if cfg.DiscoveryStepBudget > 0 && totalSteps >= cfg.DiscoveryStepBudget {
				return nil, i + 1, fmt.Errorf("gist: discovery step budget %d exhausted after %d runs", cfg.DiscoveryStepBudget, i+1)
			}
		}
	}
	return nil, cfg.MaxDiscoveryRuns, fmt.Errorf("gist: no failure in %d discovery runs", cfg.MaxDiscoveryRuns)
}

// Run performs the full Gist pipeline: slice statically, then adaptively
// track increasingly larger slice portions across the endpoint fleet,
// refining the slice and re-ranking failure predictors after each
// iteration, until the developer oracle is satisfied or the window covers
// the whole slice.
func Run(cfg Config) (*Result, error) {
	return RunFromReport(cfg, nil, 0)
}

// RunFromReport performs the pipeline for a known failure report (nil
// means discover one first): it is a thin wrapper over the Campaign
// state machine (campaign.go), which owns the adaptive slice-tracking
// loop.
func RunFromReport(cfg Config, report *vm.FailureReport, discRuns int) (*Result, error) {
	camp, err := NewCampaign(cfg, report, discRuns)
	if err != nil {
		return nil, err
	}
	return camp.Run()
}

// BuildGraph returns the TICFG for the configured program, constructing
// it on first use and returning the process-wide memoized graph after
// that (the graph is read-only once built, so sharing is safe).
func (c Config) BuildGraph() *cfg.TICFG { return analysis.Graph(c.Prog) }
