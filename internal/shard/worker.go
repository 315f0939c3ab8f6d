package shard

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/bugs"
	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/supervise"
	"repro/internal/telemetry"
)

// WorkerOptions configures one worker process.
type WorkerOptions struct {
	// Backend is the fleet's shared medium; nil means DirBackend.
	Backend store.Backend
	// Root is the fleet root on the backend (the coordinator's root).
	Root string
	// ID is the worker's fleet-unique name (the CLI uses "w<worker-id>").
	// It doubles as the lease tiebreak, so it must be stable.
	ID string
	// Index is the worker's 0-based shard index; assignments whose shard
	// maps onto it are claimed immediately, others only after they sit
	// unowned for takeoverRounds rounds (the dead-worker takeover path).
	Index int
	// Shards is the fleet size Index lives in.
	Shards int
	// LeaseTTL is how long an ownership claim lasts unrenewed (default
	// 10s). Leases are renewed every round, so it must exceed the
	// worst-case round duration.
	LeaseTTL time.Duration
	// Width is the worker's fleet pool width (0 = GOMAXPROCS).
	Width int
	// NoFsync disables checkpoint and lease fsync.
	NoFsync bool
	// RoundDelay, when positive, sleeps this long after every round that
	// stepped at least one campaign. Diagnosis stays byte-identical (the
	// delay is outside the deterministic core); it only widens the
	// kill window for crash-recovery testing, like gist -iter-delay.
	RoundDelay time.Duration
	// ConfigFor maps a bug name to its campaign configuration; nil means
	// bugs.ConfigFor.
	ConfigFor func(bug string) (core.Config, error)
	// Telemetry receives supervise.* and store.* counters.
	Telemetry *telemetry.Tracer
	// Logf, when non-nil, receives one line per notable worker event.
	Logf func(format string, args ...any)
}

// takeoverRounds is how many consecutive rounds a foreign campaign must
// be observed unowned before a worker steals it.
const takeoverRounds = 2

func (o WorkerOptions) withDefaults() WorkerOptions {
	if o.Backend == nil {
		o.Backend = store.DirBackend{}
	}
	if o.ID == "" {
		o.ID = fmt.Sprintf("w%d", o.Index+1)
	}
	if o.Shards <= 0 {
		o.Shards = 1
	}
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 10 * time.Second
	}
	if o.ConfigFor == nil {
		o.ConfigFor = bugs.ConfigFor
	}
	return o
}

// Validate rejects a worker configuration no operator can have meant.
// It is what `gist worker` checks before opening the fleet root, so each
// message names the flag that sets the offending field (-worker-id is
// Index+1). Like the service's validators it judges what was given
// rather than what NewWorker would default.
func (o WorkerOptions) Validate() error {
	switch {
	case o.Shards <= 0:
		return fmt.Errorf("-shards %d must be positive", o.Shards)
	case o.Index < 0:
		return fmt.Errorf("-worker-id %d must be positive (workers are numbered 1..-shards)", o.Index+1)
	case o.Index >= o.Shards:
		return fmt.Errorf("-worker-id %d out of range: -shards is %d", o.Index+1, o.Shards)
	case o.Root == "":
		return fmt.Errorf("-state-dir must not be empty (it is the fleet's shared root)")
	case o.LeaseTTL <= 0:
		return fmt.Errorf("-lease %v must be positive", o.LeaseTTL)
	case o.Width < 0:
		return fmt.Errorf("-workers %d is negative (0 means GOMAXPROCS)", o.Width)
	case o.RoundDelay < 0:
		return fmt.Errorf("-iter-delay %v is negative", o.RoundDelay)
	}
	return nil
}

// owned is the worker's bookkeeping for one campaign it holds.
type owned struct {
	a       Assignment
	name    string
	slot    int
	resumed bool
	stolen  bool
}

// Stats summarizes the work a worker executed locally.
type Stats struct {
	// Runs is the production runs campaigns consumed on this worker
	// (runs a campaign consumed on a previous owner are not counted).
	Runs int
	// Campaigns is how many campaigns this worker enrolled.
	Campaigns int
	// Takeovers is how many of those were stolen from a dead worker's
	// shard; Resumed is how many were restored from another process's
	// durable checkpoint generation.
	Takeovers int
	Resumed   int
	// LostLeases is how many campaigns this worker retired because
	// ownership moved away mid-diagnosis.
	LostLeases int
	// Finished is how many done records this worker published.
	Finished int
}

// Worker is one campaign-owning process in the shard fleet. Each round
// it adopts newly assigned (or orphaned) campaigns, renews its leases
// (retiring campaigns whose ownership moved away), steps every live
// campaign once through the supervisor, and publishes finished
// diagnoses. Not safe for concurrent use; Stats may be read after Run
// returns.
type Worker struct {
	o      WorkerOptions
	leases *LeaseTable
	sup    *supervise.Supervisor

	slots   map[string]int // campaign name -> supervisor slot
	holding map[int]*owned // slot -> campaign held
	unowned map[string]int // campaign name -> consecutive rounds seen unowned

	stats Stats
}

// NewWorker opens a worker over the fleet root.
func NewWorker(o WorkerOptions) (*Worker, error) {
	o = o.withDefaults()
	if o.Index < 0 || o.Index >= o.Shards {
		return nil, fmt.Errorf("shard: worker index %d out of range for %d shards", o.Index, o.Shards)
	}
	leases, err := NewLeaseTable(o.Backend, o.Root, o.LeaseTTL, o.NoFsync)
	if err != nil {
		return nil, err
	}
	for _, dir := range []string{AssignDir(o.Root), DoneDir(o.Root), StateRoot(o.Root)} {
		if err := o.Backend.EnsureDir(dir); err != nil {
			return nil, fmt.Errorf("shard: %w", err)
		}
	}
	return &Worker{
		o:      o,
		leases: leases,
		sup: supervise.New(o.Width, supervise.Config{
			Telemetry: o.Telemetry,
		}),
		slots:   map[string]int{},
		holding: map[int]*owned{},
		unowned: map[string]int{},
	}, nil
}

// ID returns the worker's fleet-unique name.
func (w *Worker) ID() string { return w.o.ID }

// Stats returns the worker's work summary. Call only between rounds or
// after Run returns.
func (w *Worker) Stats() Stats {
	s := w.stats
	for _, out := range w.sup.Outcomes() {
		s.Runs += runsOf(out)
	}
	return s
}

// runsOf sums the production runs a campaign consumed under this
// worker's supervisor.
func runsOf(out supervise.Outcome) int {
	n := 0
	for _, runs := range out.RunsPerRound {
		n += runs
	}
	return n
}

// forget lets go of a settled campaign whose outcome has been dealt
// with: its runs move into the running total Stats reports and the
// supervisor drops the slot, so a long-lived worker holds only the
// campaigns still in flight.
func (w *Worker) forget(slot int, out supervise.Outcome) {
	w.stats.Runs += runsOf(out)
	w.sup.Forget(slot)
	delete(w.holding, slot)
}

// Round performs one fleet round: adopt, renew, step, publish. It
// returns how many campaigns this worker stepped; 0 means it holds no
// live work right now (more may arrive — keep polling).
func (w *Worker) Round() (int, error) {
	if err := w.adopt(); err != nil {
		return 0, err
	}
	w.renew()
	live := w.sup.RunRound()
	if err := w.publish(); err != nil {
		return live, err
	}
	return live, nil
}

// Run drives rounds until ctx is cancelled, idling between rounds that
// found no live work. A cancelled context stops the loop without
// releasing leases — exactly what a killed process leaves behind — so
// graceful shutdown is the caller's choice, not a side effect.
func (w *Worker) Run(ctx context.Context, idle time.Duration) error {
	if idle <= 0 {
		idle = 200 * time.Millisecond
	}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		live, err := w.Round()
		if err != nil {
			return err
		}
		wait := w.o.RoundDelay
		if live == 0 {
			wait = idle
		}
		if wait > 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(wait):
			}
		}
	}
}

// adopt scans the assignment table and claims what this worker should
// own: its own shard's campaigns immediately, foreign campaigns only
// after they sit unowned long enough to conclude their worker is dead.
func (w *Worker) adopt() error {
	as, err := Assignments(w.o.Backend, w.o.Root)
	if err != nil {
		return err
	}
	for _, a := range as {
		name := a.Campaign()
		if _, ok := w.slots[name]; ok {
			continue
		}
		rec, err := ReadDone(w.o.Backend, w.o.Root, name)
		if err == nil && rec != nil {
			delete(w.unowned, name)
			continue
		}
		mine := a.Shard%w.o.Shards == w.o.Index
		if !mine {
			owner, err := w.leases.Owner(name)
			if err != nil {
				return err
			}
			if owner != nil {
				w.unowned[name] = 0
				continue
			}
			// Unowned foreign campaign: its worker may just be between
			// claim and first renewal. Steal only after observing it
			// unowned for takeoverRounds consecutive rounds.
			w.unowned[name]++
			if w.unowned[name] <= takeoverRounds {
				continue
			}
		}
		won, lease, err := w.leases.Claim(name, w.o.ID)
		if err != nil {
			return err
		}
		if !won {
			if lease != nil {
				w.unowned[name] = 0
			}
			continue
		}
		delete(w.unowned, name)
		if err := w.enroll(a, name, !mine); err != nil {
			// The campaign cannot be built (unknown bug, poisoned
			// checkpoint dir): publish the failure so submitters are not
			// left polling, and release the claim.
			w.logf("enroll %s failed: %v", name, err)
			rec := &DoneRecord{Tenant: a.Tenant, Bug: a.Bug, Key: a.Key, Worker: w.o.ID, Err: err.Error()}
			if werr := WriteDone(w.o.Backend, w.o.Root, rec, w.o.NoFsync); werr != nil {
				return werr
			}
			w.leases.Release(name, w.o.ID)
		}
	}
	return nil
}

// enroll builds or resumes the campaign and hands it to the supervisor.
func (w *Worker) enroll(a Assignment, name string, stolen bool) error {
	cfg, err := w.o.ConfigFor(a.Bug)
	if err != nil {
		return err
	}
	cfg.Label = a.Tenant + "/" + a.Key
	if cfg.Telemetry == nil {
		cfg.Telemetry = w.o.Telemetry
	}
	ckpt, err := OpenCampaignStore(w.o.Backend, StateRoot(w.o.Root), a.Tenant, a.Key, w.o.NoFsync, w.o.Telemetry)
	if err != nil {
		return err
	}
	slot, resumed, err := w.sup.Adopt(cfg, ckpt, func() (*core.Campaign, error) {
		c, err := core.NewCampaign(cfg, a.Report, a.DiscoveryRuns)
		if err != nil && a.Report == nil {
			err = fmt.Errorf("discovery: %w", err)
		}
		return c, err
	})
	if err != nil {
		return err
	}
	w.slots[name] = slot
	w.holding[slot] = &owned{a: a, name: name, slot: slot, resumed: resumed, stolen: stolen}
	w.stats.Campaigns++
	if stolen {
		w.stats.Takeovers++
	}
	if resumed {
		w.stats.Resumed++
	}
	w.logf("enrolled %s (slot %d, stolen=%v, resumed=%v)", name, slot, stolen, resumed)
	return nil
}

// renew extends every held lease; a campaign whose ownership moved away
// is retired locally so the new owner's resume is the only live driver.
func (w *Worker) renew() {
	for _, slot := range w.slotOrder() {
		oc := w.holding[slot]
		if _, err := w.leases.Renew(oc.name, w.o.ID); err != nil {
			if !errors.Is(err, ErrLeaseLost) {
				// Backend trouble: keep driving — the diagnosis is
				// deterministic, so even a takeover racing this worker
				// produces identical bytes — and retry next round.
				w.logf("renew %s: %v", oc.name, err)
				continue
			}
			w.logf("lease lost: %s (slot %d)", oc.name, slot)
			w.sup.RetireSlot(slot)
			out, _ := w.sup.Settled(slot)
			w.forget(slot, out)
			delete(w.slots, oc.name)
			w.stats.LostLeases++
		}
	}
}

// publish writes done records for held campaigns that finished (or were
// abandoned by the breaker) and releases their leases.
func (w *Worker) publish() error {
	for _, slot := range w.slotOrder() {
		oc := w.holding[slot]
		out, settled := w.sup.Settled(slot)
		if !settled {
			continue
		}
		rec := &DoneRecord{
			Tenant: oc.a.Tenant, Bug: oc.a.Bug, Key: oc.a.Key,
			Worker: w.o.ID, Restarts: out.Restarts, Resumed: oc.resumed,
		}
		var err error
		if rec.Sketch, rec.LowConfidence, err = out.SketchJSON(); err != nil {
			rec.Err = err.Error()
		}
		if err := WriteDone(w.o.Backend, w.o.Root, rec, w.o.NoFsync); err != nil {
			return err
		}
		w.leases.Release(oc.name, w.o.ID)
		w.forget(slot, out)
		w.stats.Finished++
		w.logf("done: %s (low_confidence=%v restarts=%d)", oc.name, rec.LowConfidence, rec.Restarts)
	}
	return nil
}

// slotOrder returns held slots in ascending order, so every walk over
// the holdings is deterministic.
func (w *Worker) slotOrder() []int {
	slots := make([]int, 0, len(w.holding))
	for slot := range w.holding {
		slots = append(slots, slot)
	}
	sort.Ints(slots)
	return slots
}

func (w *Worker) logf(format string, args ...any) {
	if w.o.Logf != nil {
		w.o.Logf(format, args...)
	}
}
