// Package supervise wraps the multi-campaign scheduler in a
// self-healing supervisor: every campaign step runs under panic
// recovery and a watchdog deadline, a campaign that crashes or hangs is
// replaced by one restored from its last good checkpoint after a capped
// exponential backoff (measured in scheduler rounds, so recovery is
// deterministic), and a campaign that crash-loops past its restart
// budget trips a per-bug circuit breaker: the slot is retired and the
// last checkpointed state is served as a degraded, low-confidence
// diagnosis instead of poisoning the whole deployment.
//
// The paper's deployment model (§3.3) assumes the diagnosis service
// itself keeps running for weeks while failures recur; this layer is
// what makes that survivable. Because a campaign's diagnosis is a pure
// function of its iteration-boundary state, a supervised restart
// reproduces the uninterrupted run byte-for-byte — supervision changes
// availability, never answers.
//
// Checkpoints flow through internal/store when a tenant has one
// attached: after every successful step the boundary snapshot is saved
// durably, so a process kill (not just a goroutine crash) resumes from
// at most one iteration back. The in-memory copy of the last good
// snapshot is the restart source within a process; the store matters
// across process death.
package supervise

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// StepFault is an injected failure consulted at step entry — the
// supervisor's own fault dimension, separate from the pipeline and disk
// classes in internal/faults. Faults are injected before the campaign
// is touched, so an abandoned (hung) step goroutine never mutates
// campaign state behind the restored replacement's back.
type StepFault int

const (
	StepNone StepFault = iota
	// StepPanic makes the step goroutine panic before stepping.
	StepPanic
	// StepHang makes the step goroutine block, without stepping, until
	// the watchdog abandons it.
	StepHang
)

// Config tunes the supervisor. The zero value gets sane defaults.
type Config struct {
	// StepTimeout is the watchdog deadline for one campaign step
	// (default 30s). A step that overruns is abandoned and the campaign
	// restarted from its last good checkpoint.
	StepTimeout time.Duration
	// MaxRestarts is the circuit-breaker threshold: restart number
	// MaxRestarts+1 trips the breaker instead (default 3).
	MaxRestarts int
	// BackoffCap bounds the exponential restart backoff, in scheduler
	// rounds (default 8): restart n waits min(2^(n-1), BackoffCap)
	// rounds before the campaign is stepped again.
	BackoffCap int
	// Telemetry receives supervise.* counters; nil is fine.
	Telemetry *telemetry.Tracer
	// OnRestore, when non-nil, is called with every campaign restored
	// from checkpoint before it re-enters the scheduler. The service
	// uses it to reattach its remote runner — restoration rebuilds the
	// campaign from serialized state, which cannot carry a live
	// transport.
	OnRestore func(c *core.Campaign)
}

func (c Config) withDefaults() Config {
	if c.StepTimeout <= 0 {
		c.StepTimeout = 30 * time.Second
	}
	if c.MaxRestarts <= 0 {
		c.MaxRestarts = 3
	}
	if c.BackoffCap <= 0 {
		c.BackoffCap = 8
	}
	return c
}

// Outcome is one supervised campaign's result: the scheduler outcome
// plus the supervision history that produced it.
type Outcome struct {
	sched.Outcome
	// Restarts is how many times the campaign was restored from its
	// last good checkpoint after a crash or hang.
	Restarts int
	// Panics and WatchdogTrips break Restarts down by cause.
	Panics        int
	WatchdogTrips int
	// Checkpoints is how many boundary snapshots were durably saved.
	Checkpoints int
	// BreakerTripped marks a campaign abandoned by the circuit breaker;
	// its Result is the degraded, low-confidence last checkpoint.
	BreakerTripped bool
	// Drained marks a campaign checkpointed and suspended by a drain
	// request; its Err is the campaign's not-finished error.
	Drained bool
	// Released marks a campaign retired by RetireSlot because its
	// ownership moved to another process; the last durable checkpoint
	// generation is where the new owner resumes.
	Released bool
}

// SketchJSON renders the outcome for publication: the sketch bytes
// exactly as `gist -json` prints them, and whether they are a degraded,
// low-confidence diagnosis. An outcome that carries no sketch reports
// why instead.
func (o Outcome) SketchJSON() (sketch []byte, lowConfidence bool, err error) {
	if o.Result == nil || o.Result.Sketch == nil {
		if o.Err != nil {
			return nil, false, o.Err
		}
		return nil, false, errors.New("campaign produced no sketch")
	}
	sketch, err = o.Result.Sketch.MarshalIndentJSON()
	if err != nil {
		return nil, false, fmt.Errorf("marshal sketch: %w", err)
	}
	return sketch, o.Result.Sketch.LowConfidence, nil
}

// tenant is the supervisor's per-slot bookkeeping.
type tenant struct {
	label    string
	cfg      core.Config
	ckpt     *store.Store // nil = in-memory supervision only
	lastGood *core.CampaignSnapshot
	steps    int // guarded step attempts, feeds the fault script
	backoff  int // rounds left to sit out before the next step
	faultFn  func(step int) StepFault

	restarts      int
	panics        int
	watchdogTrips int
	checkpoints   int
	breaker       bool
	drained       bool
	released      bool
	dead          bool // could not restore; Err carries the reason
	deadErr       error
}

// Supervisor drives campaigns through a sched.Scheduler with per-step
// guards and checkpoint-based restarts. Not safe for concurrent use,
// except RequestDrain which may be called from any goroutine (a signal
// handler).
type Supervisor struct {
	cfg      Config
	sched    *sched.Scheduler
	tenants  []*tenant
	draining atomic.Bool
}

// New returns a supervisor over a fresh scheduler whose shared fleet
// has the given width (0 = GOMAXPROCS).
func New(width int, cfg Config) *Supervisor {
	s := &Supervisor{cfg: cfg.withDefaults(), sched: sched.New(width)}
	s.sched.SetStepper(s.step)
	return s
}

// Scheduler exposes the underlying scheduler (for width queries).
func (s *Supervisor) Scheduler() *sched.Scheduler { return s.sched }

// ErrNoCheckpoint reports that a store holds no generation that both
// decodes and restores.
var ErrNoCheckpoint = errors.New("supervise: no valid checkpoint generation")

// Resume restores a campaign from ckpt under the newest-valid-wins
// rule: the newest generation whose payload decodes and restores under
// cfg wins, and every newer one that does not is Discarded —
// quarantined with the reason — on the way down. It returns
// ErrNoCheckpoint when no generation survives (or ckpt is nil).
func Resume(cfg core.Config, ckpt *store.Store) (*core.Campaign, error) {
	if ckpt == nil {
		return nil, ErrNoCheckpoint
	}
	for latest := ckpt.Latest(); latest != nil; latest = ckpt.Latest() {
		snap, err := core.DecodeCampaignSnapshot(latest.Payload)
		if err == nil {
			var c *core.Campaign
			if c, err = core.RestoreCampaign(cfg, snap); err == nil {
				return c, nil
			}
		}
		ckpt.Discard(fmt.Errorf("supervise: resume: %w", err))
	}
	return nil, ErrNoCheckpoint
}

// Checkpoint snapshots c, which must sit at an iteration boundary, and
// saves the snapshot to ckpt as the next durable generation. saved is
// false when there is no store or the save failed (fsync fault, full
// disk, sealed store) — tolerated: the previous durable generation
// stands. err means no snapshot could be taken.
func Checkpoint(c *core.Campaign, ckpt *store.Store) (snap *core.CampaignSnapshot, saved bool, err error) {
	if snap, err = c.Snapshot(); err != nil || ckpt == nil {
		return snap, false, err
	}
	if payload, err := snap.Encode(); err == nil {
		_, err = ckpt.Save(payload)
		saved = err == nil
	}
	return snap, saved, nil
}

// Add enrolls a campaign. cfg must be the configuration the campaign
// was built (or restored) with — it is what restarts restore under.
// ckpt, when non-nil, receives a durable boundary snapshot after every
// successful step; the enrollment snapshot is saved immediately so even
// a step-zero kill can resume. The campaign must sit at an iteration
// boundary (freshly built or restored).
func (s *Supervisor) Add(cfg core.Config, c *core.Campaign, ckpt *store.Store) (int, error) {
	t := &tenant{label: c.Label(), cfg: cfg, ckpt: ckpt}
	if err := s.checkpoint(t, c); err != nil {
		return 0, fmt.Errorf("supervise: enrolling %s: %w", c.Label(), err)
	}
	slot := s.sched.Len()
	s.sched.Add(c)
	s.tenants = append(s.tenants, t)
	return slot, nil
}

// Adopt enrolls a campaign that may already have durable state — left
// by a dead process, a drained server, or an earlier CLI run. It
// Resumes from ckpt, and when no generation survives builds the
// campaign with fresh: it had not reached its first durable boundary,
// so building it from scratch is byte-identical to resuming. A nil
// fresh means resume or fail with ErrNoCheckpoint. It reports the slot
// and whether a checkpoint was resumed.
func (s *Supervisor) Adopt(cfg core.Config, ckpt *store.Store, fresh func() (*core.Campaign, error)) (int, bool, error) {
	c, err := Resume(cfg, ckpt)
	resumed := err == nil
	switch {
	case resumed:
		if s.cfg.OnRestore != nil {
			s.cfg.OnRestore(c)
		}
	case fresh == nil:
		return 0, false, err
	default:
		if c, err = fresh(); err != nil {
			return 0, false, err
		}
	}
	slot, err := s.Add(cfg, c, ckpt)
	if err == nil && resumed {
		s.count("supervise.adopted", s.tenants[slot], 1)
	}
	return slot, resumed, err
}

// RunRound drives one scheduler round: every live campaign is stepped
// once under the supervision guards. It returns how many campaigns were
// live; 0 means every enrolled campaign is finished or retired. Callers
// that interleave supervision with other per-round work (the shard
// worker renews leases between rounds) drive this instead of Run.
func (s *Supervisor) RunRound() int { return s.sched.RunRound() }

// RetireSlot permanently excludes a slot from future rounds without
// tripping the breaker: campaign ownership moved to another process,
// which resumes from the last durable checkpoint generation. The
// outcome is marked Released.
func (s *Supervisor) RetireSlot(slot int) {
	t := s.tenants[slot]
	t.released = true
	s.sched.Retire(slot)
	s.count("supervise.released", t, 1)
}

// SetStepFault installs a fault script for one slot: fn is consulted
// with the slot's step-attempt index before each guarded step. Used by
// tests; nil clears the script.
func (s *Supervisor) SetStepFault(slot int, fn func(step int) StepFault) {
	s.tenants[slot].faultFn = fn
}

// RequestDrain asks the supervisor to stop at the next round boundary,
// checkpoint every in-flight campaign, and return. Safe from any
// goroutine; the CLI wires SIGINT/SIGTERM here.
func (s *Supervisor) RequestDrain() { s.draining.Store(true) }

// Draining reports whether a drain has been requested.
func (s *Supervisor) Draining() bool { return s.draining.Load() }

// Run drives all enrolled campaigns to completion — or to the breaker,
// or to a drain request — and returns the outcomes in enrollment
// order.
func (s *Supervisor) Run() []Outcome {
	for !s.draining.Load() {
		if s.sched.RunRound() == 0 {
			break
		}
	}
	if s.draining.Load() {
		s.drain()
	}
	return s.Outcomes()
}

// drain checkpoints every live campaign at the current round boundary.
func (s *Supervisor) drain() {
	for i, t := range s.tenants {
		c := s.sched.Campaign(i)
		if c.Finished() || s.sched.Retired(i) {
			continue
		}
		t.drained = true
		s.count("supervise.drained", t, 1)
		_ = s.checkpoint(t, c) // a failed snapshot keeps the last good one
	}
}

// Outcomes returns the per-slot outcomes in enrollment order.
func (s *Supervisor) Outcomes() []Outcome {
	base := s.sched.Outcomes()
	outs := make([]Outcome, len(base))
	for i, t := range s.tenants {
		outs[i] = Outcome{
			Outcome:        base[i],
			Restarts:       t.restarts,
			Panics:         t.panics,
			WatchdogTrips:  t.watchdogTrips,
			Checkpoints:    t.checkpoints,
			BreakerTripped: t.breaker,
			Drained:        t.drained,
			Released:       t.released,
		}
		if t.dead {
			outs[i].Result, outs[i].Err = nil, t.deadErr
		}
	}
	return outs
}

// step is the scheduler's Stepper: guard one campaign step, checkpoint
// on success, restart or break on failure. It runs concurrently with
// other slots' steps and touches only its own slot.
func (s *Supervisor) step(slot int, c *core.Campaign) {
	t := s.tenants[slot]
	if t.dead {
		s.sched.Retire(slot)
		return
	}
	if t.backoff > 0 {
		t.backoff--
		s.count("supervise.backoff_rounds", t, 1)
		return
	}
	if s.guardedStep(t, c) {
		_ = s.checkpoint(t, c) // a failed snapshot keeps the last good one
		return
	}

	// The step crashed or hung. Restart from the last good checkpoint,
	// or trip the breaker once the restart budget is spent.
	t.restarts++
	s.count("supervise.restarts", t, 1)
	reason := fmt.Errorf("supervise: %s crashed/hung %d time(s) at iteration %d",
		t.label, t.restarts, t.lastGood.Iter)
	restored, err := core.RestoreCampaign(t.cfg, t.lastGood)
	if err == nil && s.cfg.OnRestore != nil {
		s.cfg.OnRestore(restored)
	}
	if err != nil {
		// The checkpoint itself cannot be restored — nothing to heal
		// from. Retire the slot with the restore error.
		t.dead = true
		t.deadErr = fmt.Errorf("supervise: cannot restore %s from checkpoint: %w", t.label, err)
		s.sched.Retire(slot)
		s.count("supervise.breaker_trips", t, 1)
		return
	}
	if t.restarts > s.cfg.MaxRestarts {
		t.breaker = true
		s.count("supervise.breaker_trips", t, 1)
		restored.Abandon(reason)
		s.sched.Replace(slot, restored)
		s.sched.Retire(slot)
		return
	}
	t.backoff = 1 << (t.restarts - 1)
	if t.backoff > s.cfg.BackoffCap {
		t.backoff = s.cfg.BackoffCap
	}
	s.sched.Replace(slot, restored)
}

// guardedStep runs one campaign step under panic recovery and the
// watchdog. It reports whether the step completed normally; on false
// the campaign object may be in an arbitrary state and must be
// replaced, never stepped again.
func (s *Supervisor) guardedStep(t *tenant, c *core.Campaign) bool {
	var fault StepFault
	if t.faultFn != nil {
		fault = t.faultFn(t.steps)
	}
	t.steps++
	abandoned := make(chan struct{})
	done := make(chan bool, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				done <- false
			}
		}()
		switch fault {
		case StepPanic:
			panic(fmt.Sprintf("supervise: injected panic in %s step %d", t.label, t.steps-1))
		case StepHang:
			// Injected hangs never touch the campaign: block until the
			// watchdog gives up, then exit cleanly. Campaign state and
			// the seed cursor stay exactly at the boundary.
			<-abandoned
			return
		}
		c.Step() // terminal errors surface via Result, not here
		done <- true
	}()
	timer := time.NewTimer(s.cfg.StepTimeout)
	defer timer.Stop()
	select {
	case ok := <-done:
		if !ok {
			t.panics++
			s.count("supervise.panics", t, 1)
		}
		return ok
	case <-timer.C:
		close(abandoned)
		t.watchdogTrips++
		s.count("supervise.watchdog_trips", t, 1)
		return false
	}
}

// checkpoint records c's boundary snapshot as the slot's in-process
// restart source and saves it to the tenant's store, if any. A failed
// save is counted and tolerated: the previous durable generation stands
// and the in-memory copy still powers in-process restarts. Only a
// failed snapshot is an error.
func (s *Supervisor) checkpoint(t *tenant, c *core.Campaign) error {
	snap, saved, err := Checkpoint(c, t.ckpt)
	if err != nil {
		return err
	}
	t.lastGood = snap
	switch {
	case saved:
		t.checkpoints++
		s.count("supervise.checkpoints", t, 1)
	case t.ckpt != nil:
		s.count("supervise.checkpoint_errors", t, 1)
	}
	return nil
}

func (s *Supervisor) count(name string, t *tenant, n int64) {
	s.cfg.Telemetry.AddL(t.label, name, n)
}
