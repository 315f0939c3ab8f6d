// Package supervise drives several concurrent Gist campaigns — one per
// distinct failure — over one shared endpoint fleet, and keeps them
// alive while it does.
//
// The paper's deployment (§3.3) diagnoses many failures at once and
// assumes the diagnosis service itself keeps running for weeks while
// failures recur. The supervisor models both with one loop. Each round,
// every live campaign executes exactly one AsT iteration, all of a
// round's iterations running concurrently over the one fleet the
// supervisor was built with (a shared core.Pool, or the service's
// remote fleet), which it attaches to every campaign it enrolls or
// restores. The round barrier is the fairness rule — no
// campaign can start iteration k+1 until every live campaign has
// finished iteration k, so a cheap bug cannot starve an expensive one
// of fleet slots and vice versa. Every step runs under panic recovery
// and a watchdog deadline; a campaign that crashes or hangs is replaced
// by one restored from its last good checkpoint after a capped
// exponential backoff (measured in rounds, so recovery is
// deterministic), and a campaign that crash-loops past its restart
// budget trips a per-bug circuit breaker: the slot is retired and the
// last checkpointed state is served as a degraded, low-confidence
// diagnosis instead of poisoning the whole deployment.
//
// Determinism: a campaign's diagnosis is a pure function of its own
// configuration and iteration-boundary state; the fleet only decides
// *when* runs execute, never which runs or in what admission order, and
// a supervised restart resumes from exactly such a boundary. Every
// Outcome is therefore byte-identical to running the same campaign
// serially, on any fleet, under any goroutine interleaving and
// across any number of restarts — supervision changes availability,
// never answers.
//
// Checkpoints flow through internal/store when a slot has one
// attached: after every successful step the boundary snapshot is saved
// durably, so a process kill (not just a goroutine crash) resumes from
// at most one iteration back. The in-memory copy of the last good
// snapshot is the restart source within a process; the store matters
// across process death.
package supervise

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
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
	// Telemetry receives supervise.* counters — panics, watchdog trips,
	// checkpoints, releases — that Outcome does not repeat; nil is fine.
	Telemetry *telemetry.Tracer
}

// The restart policy every supervised campaign gets.
const (
	// maxRestarts is the circuit-breaker threshold: restart number
	// maxRestarts+1 trips the breaker instead.
	maxRestarts = 3
	// backoffCap bounds the exponential restart backoff, in rounds:
	// restart n waits min(2^(n-1), backoffCap) rounds before the
	// campaign is stepped again.
	backoffCap = 8
)

func (c Config) withDefaults() Config {
	if c.StepTimeout <= 0 {
		c.StepTimeout = 30 * time.Second
	}
	return c
}

// Outcome is one supervised campaign's result, the scheduling trace the
// fairness analysis consumes, and the supervision events its drivers
// act on. Everything else the supervisor observes is a telemetry
// counter.
type Outcome struct {
	Label  string
	Result *core.Result
	Err    error
	// RunsPerRound records the production runs the campaign consumed in
	// each round it was live in (AsT iterations stepped plus rounds sat
	// out in restart backoff) — the per-tenant fleet-share series Jain's
	// fairness index is computed over.
	RunsPerRound []int
	// Restarts is how many times the campaign was restored from its
	// last good checkpoint after a crash or hang.
	Restarts int
	// BreakerTripped marks a campaign abandoned by the circuit breaker;
	// its Result is the degraded, low-confidence last checkpoint.
	BreakerTripped bool
	// Drained marks a campaign checkpointed and suspended by a drain
	// request; its Err is the campaign's not-finished error.
	Drained bool
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

// slot is everything the supervisor keeps for one enrolled campaign.
type slot struct {
	id       int
	camp     *core.Campaign // swapped for a restored one after a crash or hang
	cfg      core.Config
	ckpt     *store.Store // nil = in-memory supervision only
	lastGood *core.CampaignSnapshot
	steps    int // guarded step attempts, feeds the fault script
	backoff  int // rounds left to sit out before the next step
	faultFn  func(step int) StepFault

	// retired excludes the slot from every later round: the breaker
	// tripped, the checkpoint could not be restored, or RetireSlot.
	retired bool
	// restoreErr is why lastGood could not be restored; it replaces the
	// campaign's own result in the outcome.
	restoreErr error

	// out accumulates the label, the round trace and the supervision
	// history; Result and Err are filled in when it is read.
	out Outcome
}

// settled reports whether the slot will never be stepped again.
func (sl *slot) settled() bool { return sl.retired || sl.camp.Finished() }

// Supervisor steps campaigns in concurrent round-robin rounds over one
// fleet, with per-step guards and checkpoint-based restarts. Not safe for concurrent use — all concurrency is internal —
// except RequestDrain, which may be called from any goroutine (a signal
// handler).
type Supervisor struct {
	cfg   Config
	fleet core.Runner
	// slots holds the enrolled campaigns not yet Forgotten, in
	// enrollment order; ids come from nextID, so they ascend.
	slots    []*slot
	nextID   int
	draining atomic.Bool
}

// New returns a supervisor that runs every campaign it enrolls or
// restores on fleet: a core.Pool shared across its campaigns, or a
// remote Runner.
func New(fleet core.Runner, cfg Config) *Supervisor {
	return &Supervisor{cfg: cfg.withDefaults(), fleet: fleet}
}

// find returns the index in s.slots of the slot numbered id, or -1.
func (s *Supervisor) find(id int) int {
	i := sort.Search(len(s.slots), func(i int) bool { return s.slots[i].id >= id })
	if i < len(s.slots) && s.slots[i].id == id {
		return i
	}
	return -1
}

// ErrNoCheckpoint reports that a store holds no generation that both
// decodes and restores.
var ErrNoCheckpoint = errors.New("supervise: no valid checkpoint generation")

// resume restores a campaign from ckpt under the newest-valid-wins
// rule: the newest generation whose payload decodes and restores under
// cfg wins, and every newer one that does not is Discarded —
// quarantined with the reason — on the way down. It returns
// ErrNoCheckpoint when no generation survives (or ckpt is nil).
func resume(cfg core.Config, ckpt *store.Store) (*core.Campaign, error) {
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

// checkpoint snapshots c, which must sit at an iteration boundary, and
// saves the snapshot to ckpt as the next durable generation. saved is
// false when there is no store or the save failed (fsync fault, full
// disk, sealed store) — tolerated: the previous durable generation
// stands. err means no snapshot could be taken.
func checkpoint(c *core.Campaign, ckpt *store.Store) (snap *core.CampaignSnapshot, saved bool, err error) {
	if snap, err = c.Snapshot(); err != nil || ckpt == nil {
		return snap, false, err
	}
	if payload, err := snap.Encode(); err == nil {
		_, err = ckpt.Save(payload)
		saved = err == nil
	}
	return snap, saved, nil
}

// Add enrolls a campaign, attaching it to the supervisor's fleet, and returns
// its slot number. cfg must be the configuration the campaign was built
// (or restored) with — it is what restarts restore under. ckpt, when
// non-nil, receives a durable boundary snapshot after every successful
// step; the enrollment snapshot is saved immediately so even a
// step-zero kill can resume. The campaign must sit at an iteration
// boundary (freshly built or restored) and not be stepped elsewhere.
func (s *Supervisor) Add(cfg core.Config, c *core.Campaign, ckpt *store.Store) (int, error) {
	sl := &slot{id: s.nextID, camp: c, cfg: cfg, ckpt: ckpt, out: Outcome{Label: c.Label()}}
	if err := s.checkpoint(sl); err != nil {
		return 0, fmt.Errorf("supervise: enrolling %s: %w", c.Label(), err)
	}
	c.UseRunner(s.fleet)
	s.nextID++
	s.slots = append(s.slots, sl)
	return sl.id, nil
}

// Adopt enrolls a campaign that may already have durable state — left
// by a dead process, a drained server, or an earlier CLI run. It
// Resumes from ckpt, and when no generation survives builds the
// campaign with fresh: it had not reached its first durable boundary,
// so building it from scratch is byte-identical to resuming. A nil
// fresh means resume or fail with ErrNoCheckpoint. It reports the slot
// and whether a checkpoint was resumed.
func (s *Supervisor) Adopt(cfg core.Config, ckpt *store.Store, fresh func() (*core.Campaign, error)) (int, bool, error) {
	c, err := resume(cfg, ckpt)
	resumed := err == nil
	if !resumed {
		if fresh == nil {
			return 0, false, err
		}
		if c, err = fresh(); err != nil {
			return 0, false, err
		}
	}
	id, err := s.Add(cfg, c, ckpt)
	if err == nil && resumed {
		s.cfg.Telemetry.Add("supervise.adopted", 1)
	}
	return id, resumed, err
}

// RunRound steps every live (unfinished, unretired) campaign exactly
// once, concurrently, under the supervision guards, and folds the round
// into each one's fairness trace. It returns how many campaigns were
// live; 0 means every enrolled campaign is settled. Callers that
// interleave supervision with other per-round work (the shard worker
// renews leases between rounds) drive this instead of Run.
func (s *Supervisor) RunRound() int {
	var live []*slot
	for _, sl := range s.slots {
		if !sl.settled() {
			live = append(live, sl)
		}
	}
	var wg sync.WaitGroup
	for _, sl := range live {
		wg.Add(1)
		// Each goroutine touches only its own slot, so the trace it
		// records is independent of how the round interleaved. A step
		// that swapped in a restored campaign reads the replacement,
		// which the checkpoint positioned at the pre-crash boundary.
		go func(sl *slot) {
			defer wg.Done()
			before := sl.camp.TotalRuns()
			s.step(sl)
			sl.out.RunsPerRound = append(sl.out.RunsPerRound, sl.camp.TotalRuns()-before)
		}(sl)
	}
	wg.Wait()
	return len(live)
}

// RetireSlot permanently excludes a slot from future rounds without
// tripping the breaker: campaign ownership moved to another process,
// which resumes from the last durable checkpoint generation. It counts
// supervise.released.
func (s *Supervisor) RetireSlot(slot int) {
	s.slots[s.find(slot)].retired = true
	s.cfg.Telemetry.Add("supervise.released", 1)
}

// SetStepFault installs a fault script for one slot: fn is consulted
// with the slot's step-attempt index before each guarded step. Used by
// tests; nil clears the script.
func (s *Supervisor) SetStepFault(slot int, fn func(step int) StepFault) {
	s.slots[s.find(slot)].faultFn = fn
}

// RequestDrain asks the supervisor to stop at the next round boundary,
// checkpoint every in-flight campaign, and return. Safe from any
// goroutine; the CLI wires SIGINT/SIGTERM here.
func (s *Supervisor) RequestDrain() { s.draining.Store(true) }

// Run drives all enrolled campaigns to completion — or to the breaker,
// or to a drain request — and returns Outcomes.
func (s *Supervisor) Run() []Outcome {
	for !s.draining.Load() && s.RunRound() > 0 {
	}
	if s.draining.Load() {
		s.drain()
	}
	return s.Outcomes()
}

// drain checkpoints every live campaign at the current round boundary.
func (s *Supervisor) drain() {
	for _, sl := range s.slots {
		if sl.settled() {
			continue
		}
		sl.out.Drained = true
		s.cfg.Telemetry.Add("supervise.drained", 1)
		_ = s.checkpoint(sl) // a failed snapshot keeps the last good one
	}
}

// Outcomes returns the outcome of every slot the supervisor holds, in
// enrollment order; as long as no slot has been Forgotten, a slot's
// number is its index. A finished campaign carries its Result, the
// breaker's victim its degraded last checkpoint; an unfinished, drained
// or released one carries the campaign's not-finished error.
func (s *Supervisor) Outcomes() []Outcome {
	outs := make([]Outcome, len(s.slots))
	for i, sl := range s.slots {
		outs[i] = sl.outcome()
	}
	return outs
}

// Settled reports whether a slot will never be stepped again — its
// campaign finished, the breaker or an unrestorable checkpoint retired
// it, or RetireSlot released it — and, when so, returns its outcome.
func (s *Supervisor) Settled(slot int) (Outcome, bool) {
	sl := s.slots[s.find(slot)]
	if !sl.settled() {
		return Outcome{}, false
	}
	return sl.outcome(), true
}

// Forget drops a settled slot whose outcome the caller has collected,
// so a long-lived supervisor holds (and scans, and copies) only the
// campaigns still in flight; the campaign, its result and its last good
// snapshot become garbage. The slot's number is never reused.
func (s *Supervisor) Forget(slot int) {
	i := s.find(slot)
	s.slots = append(s.slots[:i], s.slots[i+1:]...)
}

func (sl *slot) outcome() Outcome {
	out := sl.out
	out.RunsPerRound = append([]int(nil), sl.out.RunsPerRound...)
	if out.Result, out.Err = sl.camp.Result(); sl.restoreErr != nil {
		out.Result, out.Err = nil, sl.restoreErr
	}
	return out
}

// step is one slot's turn within a round: sit out a backoff round, or
// guard one campaign step, checkpoint on success, restart or break on
// failure. It runs concurrently with other slots' steps and touches
// only its own slot.
func (s *Supervisor) step(sl *slot) {
	label := sl.out.Label
	if sl.backoff > 0 {
		sl.backoff--
		s.cfg.Telemetry.Add("supervise.backoff_rounds", 1)
		return
	}
	if s.guardedStep(sl) {
		_ = s.checkpoint(sl) // a failed snapshot keeps the last good one
		return
	}

	// The step crashed or hung. Restart from the last good checkpoint,
	// or trip the breaker once the restart budget is spent.
	sl.out.Restarts++
	s.cfg.Telemetry.Add("supervise.restarts", 1)
	restored, err := core.RestoreCampaign(sl.cfg, sl.lastGood)
	if err != nil {
		// The checkpoint itself cannot be restored — nothing to heal
		// from. Retire the slot with the restore error.
		sl.restoreErr = fmt.Errorf("supervise: cannot restore %s from checkpoint: %w", label, err)
		sl.retired = true
		s.cfg.Telemetry.Add("supervise.breaker_trips", 1)
		return
	}
	restored.UseRunner(s.fleet)
	sl.camp = restored
	if sl.out.Restarts > maxRestarts {
		sl.out.BreakerTripped = true
		s.cfg.Telemetry.Add("supervise.breaker_trips", 1)
		restored.Abandon(fmt.Errorf("supervise: %s crashed/hung %d time(s) at iteration %d",
			label, sl.out.Restarts, sl.lastGood.Iter))
		sl.retired = true
		return
	}
	sl.backoff = min(1<<(sl.out.Restarts-1), backoffCap)
}

// guardedStep runs one campaign step under panic recovery and the
// watchdog. It reports whether the step completed normally; on false
// the campaign object may be in an arbitrary state and must be
// replaced, never stepped again.
func (s *Supervisor) guardedStep(sl *slot) bool {
	var fault StepFault
	if sl.faultFn != nil {
		fault = sl.faultFn(sl.steps)
	}
	sl.steps++
	c, label, step := sl.camp, sl.out.Label, sl.steps-1
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
			panic(fmt.Sprintf("supervise: injected panic in %s step %d", label, step))
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
			s.cfg.Telemetry.Add("supervise.panics", 1)
		}
		return ok
	case <-timer.C:
		close(abandoned)
		s.cfg.Telemetry.Add("supervise.watchdog_trips", 1)
		return false
	}
}

// checkpoint records the slot campaign's boundary snapshot as the
// in-process restart source and saves it to the slot's store, if any. A
// failed save is counted and tolerated: the previous durable generation
// stands and the in-memory copy still powers in-process restarts. Only
// a failed snapshot is an error.
func (s *Supervisor) checkpoint(sl *slot) error {
	snap, saved, err := checkpoint(sl.camp, sl.ckpt)
	if err != nil {
		return err
	}
	sl.lastGood = snap
	switch {
	case saved:
		s.cfg.Telemetry.Add("supervise.checkpoints", 1)
	case sl.ckpt != nil:
		s.cfg.Telemetry.Add("supervise.checkpoint_errors", 1)
	}
	return nil
}
