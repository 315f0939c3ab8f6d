package core

import (
	"runtime"
	"sync"

	"repro/internal/faults"
)

// This file is the deterministic parallel execution layer for the
// endpoint fleet. The paper amortizes tracking across 1,136 cooperating
// endpoints (§3.2); those endpoints run concurrently in production, and
// the simulator models that by executing production runs on a bounded
// worker pool.
//
// Determinism contract: every production run is a pure function of
// (plan, spec, fault decision) — the plan is read-only during
// execution, and each run owns its VM, PT tracer, watchpoint unit, and
// fault RNG. The server binds seeds to runs at job-creation time (in
// dispatch order, before any parallelism starts) and admits results
// strictly in dispatch order, so every sketch, predictor ranking, and
// FleetHealth counter is byte-identical for any worker count, including
// under chaos injection.

// RunJob is one production run awaiting execution: the spec the
// endpoint will run and the fault decision injected into it. It is
// exported so an alternative Runner (the service's remote fleet) can
// execute the same batch the in-process fleet would.
type RunJob struct {
	Spec RunSpec
	Dec  faults.Decision
}

// Runner executes one dispatched batch and returns the traces in job
// order, nil for runs whose endpoint crashed or whose trace was lost in
// transit. Because every run is a pure function of (plan, spec,
// decision) and the campaign admits results strictly in dispatch order,
// swapping the in-process fleet for a remote Runner cannot change a
// single byte of the diagnosis — only where the runs execute.
type Runner interface {
	RunBatch(plan *Plan, jobs []RunJob) []*RunTrace
}

// Pool is the fleet's bounded worker pool: at most width endpoint runs
// execute at once among everything drawing from it. A campaign owns a
// private pool of width Config.Workers unless a supervisor shares one
// across its tenants (Campaign.UsePool). Each campaign keeps
// dispatching jobs and admitting results in its own deterministic
// order; the pool only bounds how many runs execute at once, so sharing
// it affects wall-clock interleaving and nothing else.
type Pool struct {
	width int
	sem   chan struct{}
}

// NewPool returns a pool executing at most width runs concurrently
// (0 = GOMAXPROCS).
func NewPool(width int) *Pool {
	if width <= 0 {
		width = defaultWorkers()
	}
	return &Pool{width: width, sem: make(chan struct{}, width)}
}

// Width returns the pool's concurrency bound.
func (p *Pool) Width() int { return p.width }

// RunBatch makes the pool the in-process fleet, the Runner every
// campaign starts with: each job is one instrumented run on a pool
// slot.
func (p *Pool) RunBatch(plan *Plan, jobs []RunJob) []*RunTrace {
	return parallelMap(p, len(jobs), func(i int) *RunTrace {
		return RunInstrumentedFaults(plan, jobs[i].Spec, jobs[i].Dec)
	})
}

// parallelMap evaluates f(0..n-1) on pool slots and returns the results
// indexed by input. Each f(i) must be a pure function of i; callers
// consume results in index order, which is what makes a parallel fleet
// byte-identical to a serial one. A slot is acquired before its
// goroutine spawns, so a batch never holds more goroutines than the
// pool has slots; when at most one call could be in flight anyway (a
// serial fleet, a batch of one) the calls run inline on the caller's
// goroutine, still one slot each.
func parallelMap[T any](pool *Pool, n int, f func(int) T) []T {
	out := make([]T, n)
	inline := pool.width == 1 || n == 1
	var wg sync.WaitGroup
	for i := range out {
		pool.sem <- struct{}{}
		if inline {
			onSlot(pool, out, i, f)
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			onSlot(pool, out, i, f)
		}(i)
	}
	wg.Wait()
	return out
}

// onSlot stores f(i) on the slot its caller acquired and frees the
// slot even when f panics: an inline call unwinds into a supervised
// step's recovery, and a shared pool must not lose the slot to it.
func onSlot[T any](pool *Pool, out []T, i int, f func(int) T) {
	defer func() { <-pool.sem }()
	out[i] = f(i)
}

// fleetChunk is how many runs the server dispatches ahead of admission.
// A serial server dispatches one run at a time (no speculation — the
// historical loop exactly); a parallel server keeps the pipe a few
// batches deep, bounding the work ordered admission may discard when an
// iteration's quota fills mid-chunk. Discarded runs never burn seeds,
// so speculation costs only wall-clock slack, never determinism.
func fleetChunk(workers int) int {
	if workers <= 1 {
		return 1
	}
	return 4 * workers
}

func defaultWorkers() int { return runtime.GOMAXPROCS(0) }
