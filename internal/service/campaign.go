package service

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/shard"
	"repro/internal/supervise"
	"repro/internal/vm"
)

// campaignState tracks one diagnosis end to end. Finished sketch bytes
// live in the server's LRU sketch cache (reloadable from the checkpoint
// store), not here — retaining them per campaign is exactly the
// unbounded growth the cache exists to prevent.
type campaignState struct {
	state         string
	err           error
	lowConfidence bool
	restarts      int
	done          chan struct{}
	// deadline is the absolute diagnosis deadline (zero = none);
	// expired is set by the reaper when it passes, and abort is closed
	// at the same moment so a launch parked in the queue unparks.
	deadline time.Time
	expired  bool
	abort    chan struct{}
}

// campaignKey names one diagnosis stream within a tenant: the bug name,
// refined by the failure signature for report submits. Discovery
// submits (no report, sig "") keep the bare bug name, so the pre-ingest
// wire behavior is unchanged for them.
func campaignKey(bug, sig string) string {
	if sig == "" {
		return bug
	}
	return bug + "#" + sig
}

// settle ends a campaign in a terminal state and wakes its waiters.
func (s *Server) settle(cs *campaignState, state string, err error, lowConfidence bool, restarts int) {
	s.mu.Lock()
	cs.state, cs.err, cs.lowConfidence, cs.restarts = state, err, lowConfidence, restarts
	close(cs.done)
	s.mu.Unlock()
}

// failCampaign settles a campaign as StateFailed with err. label is the
// campaign's tenant/key name.
func (s *Server) failCampaign(cs *campaignState, label string, err error) {
	s.settle(cs, StateFailed, err, false, 0)
	s.logf("campaign failed: %s: %v", label, err)
}

// launch runs one admitted campaign under the global in-flight cap:
// park in the bounded launch queue until a slot frees (or the deadline
// reaper, a drain-less Close, aborts the wait), then run. run must not
// touch wg/campWG itself.
func (s *Server) launch(cs *campaignState, label string, run func()) {
	defer s.wg.Done()
	defer s.campWG.Done()
	var shed error
	if s.slotCh != nil {
		select {
		case s.slotCh <- struct{}{}:
			defer func() { <-s.slotCh }()
		case <-cs.abort:
			shed = fmt.Errorf("deadline exceeded before launch")
			s.metrics.add(func(m *Counters) { m.DeadlineExpired++ })
		case <-s.closed:
			shed = fmt.Errorf("server closed while queued for launch")
		}
	}
	s.mu.Lock()
	if s.slotCh != nil {
		s.launchQ--
	}
	if shed == nil {
		s.inflight++
		if cs.state == StateQueued {
			cs.state = StateRunning
		}
	}
	s.mu.Unlock()
	if shed != nil {
		s.failCampaign(cs, label, shed)
		return
	}
	defer func() {
		s.mu.Lock()
		s.inflight--
		s.mu.Unlock()
	}()
	run()
}

// placeCampaign is runCampaign's coordinator-mode counterpart: publish
// the assignment to the shard fleet, then poll for the done record a
// worker publishes. The worker checkpoints under the server's StateRoot
// through the same shard.OpenCampaignStore, so sketch fetch and reload
// are oblivious to which process diagnosed the bug.
func (s *Server) placeCampaign(cs *campaignState, tenant, bug, key, sig string, report *vm.FailureReport, discRuns int) {
	fail := func(err error) { s.failCampaign(cs, tenant+"/"+key, err) }
	if _, err := s.opts.Placer.Assign(shard.Assignment{
		Tenant: tenant, Bug: bug, Key: key, Signature: sig,
		Report: report, DiscoveryRuns: discRuns,
	}); err != nil {
		fail(fmt.Errorf("place: %w", err))
		return
	}
	tick := time.NewTicker(placePoll)
	defer tick.Stop()
	for {
		select {
		case <-s.closed:
			fail(fmt.Errorf("server closed while campaign was on the fleet"))
			return
		case <-tick.C:
		}
		rec, err := s.opts.Placer.Done(tenant, key)
		if err != nil || rec == nil {
			continue
		}
		if rec.Err != "" {
			fail(fmt.Errorf("worker %s: %s", rec.Worker, rec.Err))
			return
		}
		s.cache.Put(tenant+"/"+key, rec.Sketch)
		s.settle(cs, StateDone, nil, rec.LowConfidence, rec.Restarts)
		s.logf("campaign done (fleet): tenant=%s key=%s worker=%s low_confidence=%v restarts=%d",
			tenant, key, rec.Worker, rec.LowConfidence, rec.Restarts)
		return
	}
}

// ---- campaign lifecycle ----------------------------------------------

// runCampaign drives one diagnosis stream through the campaign
// lifecycle: open the campaign's checkpoint store, resume from its
// newest valid generation — what a drained or killed predecessor over
// the same state left behind — or build the campaign from the submitted
// report (nil: server-side discovery, exactly as core.Run would), and
// supervise it to completion on the remote runner, the supervisor's
// fleet.
// key is the campaignKey the stream is registered under.
func (s *Server) runCampaign(cs *campaignState, tenant, bug, key string, cfg core.Config, report *vm.FailureReport, discRuns int) {
	cfg.Label = tenant + "/" + key
	fail := func(err error) { s.failCampaign(cs, cfg.Label, err) }

	// cs.deadline is written once, before the launch goroutine starts.
	runner := &remoteRunner{s: s, tenant: tenant, bug: bug, fcfg: cfg.Faults, deadline: cs.deadline}
	// A campaign admitted but expired while queued must not burn runs.
	if runner.disowned() == errPastDeadline {
		s.metrics.add(func(m *Counters) { m.DeadlineExpired++ })
		fail(fmt.Errorf("deadline exceeded before launch"))
		return
	}

	ckpt, err := shard.OpenCampaignStore(s.opts.Backend, s.opts.StateRoot, tenant, key, s.opts.NoFsync, nil)
	if err != nil {
		fail(fmt.Errorf("checkpoint store: %w", err))
		return
	}
	sup := supervise.New(runner, supervise.Config{StepTimeout: stepTimeout})
	// Once the deadline reaper or Close writes this campaign's runs off,
	// what it computes from them is not the batch diagnosis and must never
	// become a generation a restarted server resumes: seal the store at
	// its last clean boundary and stop at the next one.
	runner.disown = func(why error) {
		ckpt.Seal(why)
		sup.RequestDrain()
	}
	_, resumed, err := sup.Adopt(cfg, ckpt, func() (*core.Campaign, error) {
		camp, err := core.NewCampaign(cfg, report, discRuns)
		if err != nil {
			if report == nil {
				return nil, fmt.Errorf("discovery: %w", err)
			}
			return nil, fmt.Errorf("campaign: %w", err)
		}
		return camp, nil
	})
	if err != nil {
		fail(err)
		return
	}
	if resumed {
		s.logf("campaign resumed from checkpoint: tenant=%s key=%s", tenant, key)
	}
	// Register the supervisor so a server drain reaches mid-flight
	// campaigns; a drain that began before this launch acquired its
	// slot drains the campaign at its first boundary.
	s.mu.Lock()
	s.sups[sup] = struct{}{}
	draining := s.draining
	s.mu.Unlock()
	if draining {
		sup.RequestDrain()
	}
	out := sup.Run()[0]
	s.mu.Lock()
	delete(s.sups, sup)
	s.mu.Unlock()
	why := runner.disowned()
	switch {
	case why == errPastDeadline:
		// The campaign's runs are written off once the deadline passes;
		// whatever the degraded machinery produced from them is not a
		// trustworthy diagnosis, so the deadline surfaces as failure — an
		// admitted sketch is either byte-identical to batch or never
		// served.
		fail(fmt.Errorf("deadline exceeded after %d restarts", out.Restarts))
		return
	case out.Drained:
		// By BeginDrain, or unwound by Close with the store sealed: either
		// way a restarted server resumes from the last clean boundary.
		s.settle(cs, StateDrained, out.Err, false, out.Restarts)
		s.logf("campaign drained to checkpoint: tenant=%s key=%s", tenant, key)
		return
	case why != nil:
		// Close wrote off the runs of what turned out to be the last step.
		fail(why)
		return
	}
	sketch, lowConfidence, err := out.SketchJSON()
	if err != nil {
		fail(err)
		return
	}
	// Populate the cache before the campaign reads as done, so a fetch
	// racing completion hits either the cache or the store — never a gap.
	s.cache.Put(tenant+"/"+key, sketch)
	s.mu.Lock()
	s.health.Merge(out.Result.Health)
	s.mu.Unlock()
	s.settle(cs, StateDone, nil, lowConfidence, out.Restarts)
	s.logf("campaign done: tenant=%s key=%s low_confidence=%v restarts=%d",
		tenant, key, lowConfidence, out.Restarts)
}

// ---- fleet plumbing ---------------------------------------------------

// remoteRunner is the core.Runner that hands a campaign's batches to
// the agent fleet over the wire.
type remoteRunner struct {
	s      *Server
	tenant string
	bug    string
	fcfg   faults.Config
	// deadline is the campaign deadline stamped on every task (zero =
	// none).
	deadline time.Time
	// disown is called at the end of every batch that finished disowned
	// (see disowned) — a batch whose runs may have been written off.
	disown func(why error)
}

// RunBatch enqueues every job as a task and blocks until each is
// uploaded, reassigned to exhaustion, or written off — then returns the
// traces in job order, exactly like the in-process fleet.
func (r *remoteRunner) RunBatch(plan *core.Plan, jobs []core.RunJob) []*core.RunTrace {
	tasks := make([]*task, len(jobs))
	r.s.mu.Lock()
	t := r.s.tenant(r.tenant)
	now := r.s.now()
	why := r.disowned()
	for i, job := range jobs {
		r.s.nextTask++
		tk := &task{
			id:       r.s.nextTask,
			tenant:   r.tenant,
			bug:      r.bug,
			window:   plan.Tracked,
			feats:    plan.Feats,
			spec:     job.Spec,
			fcfg:     r.fcfg,
			queued:   now,
			deadline: r.deadline,
			doneCh:   make(chan struct{}),
		}
		r.s.tasks[tk.id] = tk
		tasks[i] = tk
		// A batch issued after Close swept the task table would block its
		// campaign forever (Close only writes off tasks that exist at
		// close time), and one issued past the deadline would be declined
		// by every agent and written off a reaper sweep at a time. Write
		// such tasks off here so the campaign winds down.
		if why == nil {
			r.s.dispatch(t, tk)
		} else {
			r.s.markLost(tk)
		}
	}
	if why == errPastDeadline {
		r.s.metrics.add(func(m *Counters) { m.DeadlineExpired += int64(len(tasks)) })
	}
	r.s.mu.Unlock()

	out := make([]*core.RunTrace, len(jobs))
	for i, tk := range tasks {
		<-tk.doneCh
		r.s.mu.Lock()
		if !tk.lost && !tk.crashed {
			out[i] = tk.trace
		}
		r.s.mu.Unlock()
		// The agent shipped what it recorded; decoding, and the faults
		// the decision injects in flight, happen here, from the job's
		// own fresh decision stream.
		if out[i] != nil {
			core.FinishRun(plan, out[i], jobs[i].Dec)
		}
	}
	if why := r.disowned(); why != nil {
		r.disown(why)
	}
	return out
}

var (
	errServerClosed = errors.New("server closed mid-campaign")
	errPastDeadline = errors.New("campaign deadline exceeded")
)

// disowned reports why the server no longer stands behind the
// campaign's runs — it closed, or the campaign deadline passed — or nil.
func (r *remoteRunner) disowned() error {
	select {
	case <-r.s.closed:
		return errServerClosed
	default:
	}
	if !r.deadline.IsZero() && r.s.now().After(r.deadline) {
		return errPastDeadline
	}
	return nil
}
