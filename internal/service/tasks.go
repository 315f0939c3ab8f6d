package service

import (
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/stats"
)

// task is one dispatched production run in flight between the campaign
// and the agent fleet. All fields are guarded by the server mutex
// except doneCh, which is closed exactly once (under the mutex) when
// the task completes or is written off.
type task struct {
	id     uint64
	tenant string
	bug    string
	window []int
	feats  core.Features
	spec   core.RunSpec
	fcfg   faults.Config
	queued time.Time

	attempt    int // lease grants so far
	agent      string
	leaseUntil time.Time // zero while queued
	leasedAt   time.Time // when the current lease was granted
	// deadline is the campaign deadline stamped on the task (zero =
	// none); the reaper writes past-deadline tasks off.
	deadline time.Time
	// hedged marks a task the reaper speculatively re-dispatched after
	// its runtime crossed the hedge threshold; at most one hedge per
	// task, and the idempotency key admits whichever upload lands first.
	hedged bool

	done    bool
	lost    bool
	crashed bool
	trace   *core.RunTrace
	doneCh  chan struct{}
}

// waiter is one parked long-poll.
type waiter struct {
	agent string
	ch    chan *task // buffered 1; delivery happens under the mutex
}

// agentInfo is the server's view of one registered agent.
type agentInfo struct {
	lastSeen time.Time
}

// tenantState is one tenant's agents, queue, campaigns, and rate
// limiter.
type tenantState struct {
	name      string
	agents    map[string]*agentInfo
	queue     []*task
	waiters   []*waiter
	campaigns map[string]*campaignState // by campaignKey(bug, signature)
	bucket    *tokenBucket              // nil until the first submit under TenantRPS
}

// tenant returns (creating if needed) a tenant's state. Caller holds mu.
func (s *Server) tenant(name string) *tenantState {
	t := s.tenants[name]
	if t == nil {
		t = &tenantState{
			name:      name,
			agents:    map[string]*agentInfo{},
			campaigns: map[string]*campaignState{},
		}
		s.tenants[name] = t
	}
	return t
}

// touch records agent liveness at the given instant. Caller holds mu.
func (t *tenantState) touch(agent string, now time.Time) {
	if agent == "" {
		return
	}
	a := t.agents[agent]
	if a == nil {
		a = &agentInfo{}
		t.agents[agent] = a
	}
	a.lastSeen = now
}

// live reports whether any agent of the tenant has been seen within the
// window ending at now. Caller holds mu.
func (t *tenantState) live(now time.Time, window time.Duration) bool {
	cutoff := now.Add(-window)
	for _, a := range t.agents {
		if a.lastSeen.After(cutoff) {
			return true
		}
	}
	return false
}

// pop dequeues the next pending task, skipping written-off ones.
// Caller holds mu.
func (t *tenantState) pop() *task {
	for len(t.queue) > 0 {
		tk := t.queue[0]
		t.queue = t.queue[1:]
		if tk.done {
			continue
		}
		return tk
	}
	return nil
}

// unpark removes a waiter from the parked list. Caller holds mu.
func (t *tenantState) unpark(w *waiter) {
	for i, o := range t.waiters {
		if o == w {
			t.waiters = append(t.waiters[:i], t.waiters[i+1:]...)
			return
		}
	}
}

// dispatch hands a task to a parked waiter or queues it. Caller holds
// mu.
func (s *Server) dispatch(t *tenantState, tk *task) {
	if len(t.waiters) > 0 {
		w := t.waiters[0]
		t.waiters = t.waiters[1:]
		s.lease(tk, w.agent)
		w.ch <- tk
		return
	}
	t.queue = append(t.queue, tk)
}

// lease grants a task to an agent. Caller holds mu.
func (s *Server) lease(tk *task, agent string) {
	now := s.now()
	tk.attempt++
	tk.agent = agent
	tk.leasedAt = now
	tk.leaseUntil = now.Add(s.opts.LeaseTTL)
}

// markDone settles a task exactly once: flips the done flag (a queue
// still holding it skips it), wakes the batch waiter, and takes the task
// out of the table. A late upload for it then finds no entry and an ID
// at most nextTask, which handleUpload answers as an accepted duplicate.
// Caller holds mu.
func (s *Server) markDone(tk *task) {
	tk.done = true
	close(tk.doneCh)
	delete(s.tasks, tk.id)
}

// markLost writes a task off: the campaign sees a nil trace, which its
// Lost/retry/quorum machinery absorbs. Caller holds mu.
func (s *Server) markLost(tk *task) {
	tk.lost = true
	s.markDone(tk)
	s.metrics.add(func(m *Counters) { m.LostTasks++ })
}

// reap is the lease reaper loop; reapOnce holds the logic. The tick
// tightens to half the hedge floor when hedging is on, so a straggler
// is noticed well before its lease would expire.
func (s *Server) reap() {
	defer s.wg.Done()
	tick := s.opts.LeaseTTL / 4
	if s.opts.HedgeAfter > 0 && s.opts.HedgeAfter/2 < tick {
		tick = s.opts.HedgeAfter / 2
	}
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	for {
		select {
		case <-s.closed:
			return
		case <-ticker.C:
		}
		s.reapOnce(s.now())
	}
}

// reapOnce runs one reaper sweep at the given instant: past-deadline
// tasks and campaigns are written off, expired leases send tasks back
// to the queue for reassignment (or write them off past the attempt
// budget), over-threshold leased tasks are hedged to a second agent,
// and queued tasks with no live fleet are written off after
// noAgentLeases lease TTLs. Tests drive it directly with an injected
// clock instead of sleeping through wall time.
func (s *Server) reapOnce(now time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	hedgeTh := s.hedgeThreshold()
	for _, tk := range s.tasks {
		t := s.tenant(tk.tenant)
		if !tk.deadline.IsZero() && now.After(tk.deadline) {
			s.logf("task %d (%s/%s) written off: deadline exceeded", tk.id, tk.tenant, tk.bug)
			s.metrics.add(func(m *Counters) { m.DeadlineExpired++ })
			s.markLost(tk)
			continue
		}
		if !tk.leaseUntil.IsZero() && now.After(tk.leaseUntil) {
			// The agent holding the lease went quiet.
			if tk.attempt >= maxTaskAttempts {
				s.logf("task %d (%s/%s) lost after %d attempts", tk.id, tk.tenant, tk.bug, tk.attempt)
				s.markLost(tk)
				continue
			}
			tk.agent = ""
			tk.leaseUntil = time.Time{}
			s.metrics.add(func(m *Counters) { m.Reassigned++ })
			s.logf("task %d (%s/%s) lease expired; requeued (attempt %d)", tk.id, tk.tenant, tk.bug, tk.attempt)
			s.dispatch(t, tk)
			continue
		}
		if hedgeTh > 0 && !tk.hedged && !tk.leaseUntil.IsZero() &&
			tk.attempt < maxTaskAttempts && now.Sub(tk.leasedAt) > hedgeTh {
			// Straggler: the lease is alive but the run has outlived the
			// hedge threshold. Re-dispatch the same task — same ID, same
			// spec — to a second agent; determinism makes both results
			// byte-identical and the idempotency key admits exactly one.
			tk.hedged = true
			s.metrics.add(func(m *Counters) { m.HedgedTasks++ })
			s.logf("task %d (%s/%s) hedged after %v (threshold %v)", tk.id, tk.tenant, tk.bug, now.Sub(tk.leasedAt), hedgeTh)
			s.dispatch(t, tk)
			continue
		}
		if tk.leaseUntil.IsZero() && !t.live(now, 2*s.opts.LeaseTTL) &&
			now.Sub(tk.queued) > noAgentLeases*s.opts.LeaseTTL {
			s.logf("task %d (%s/%s) lost: no live agents", tk.id, tk.tenant, tk.bug)
			s.markLost(tk)
		}
	}
	// Campaign deadlines: mark expiry exactly once and unpark queued
	// launches. Running campaigns see their remaining tasks written off
	// above on subsequent sweeps and fail on completion.
	for _, t := range s.tenants {
		for _, cs := range t.campaigns {
			if cs.deadline.IsZero() || cs.expired {
				continue
			}
			if (cs.state == StateQueued || cs.state == StateRunning) && now.After(cs.deadline) {
				cs.expired = true
				close(cs.abort)
			}
		}
	}
}

// hedgeThreshold is the leased runtime above which a task is hedged:
// the p95 of completed run durations once enough samples exist, floored
// by HedgeAfter. Zero when hedging is off. Caller holds mu.
func (s *Server) hedgeThreshold() time.Duration {
	if s.opts.HedgeAfter <= 0 {
		return 0
	}
	th := s.opts.HedgeAfter
	if len(s.runDur) >= 20 {
		sl := append([]float64(nil), s.runDur...)
		sort.Float64s(sl)
		if p := time.Duration(stats.Percentile(sl, 0.95) * float64(time.Millisecond)); p > th {
			th = p
		}
	}
	return th
}

// observeRunDuration records one completed run's leased runtime in the
// bounded sample ring. Caller holds mu.
func (s *Server) observeRunDuration(d time.Duration) {
	const ringCap = 512
	ms := float64(d.Microseconds()) / 1000
	if len(s.runDur) < ringCap {
		s.runDur = append(s.runDur, ms)
		return
	}
	s.runDur[s.runDurPos] = ms
	s.runDurPos = (s.runDurPos + 1) % ringCap
}

// wireTask renders a task for the wire, deadline rebased to a remaining
// budget. Caller holds mu (or the task is freshly leased and unshared).
func (s *Server) wireTask(tk *task) *WireTask {
	w := &WireTask{
		TaskID:  tk.id,
		Tenant:  tk.tenant,
		Bug:     tk.bug,
		Window:  tk.window,
		Feats:   tk.feats,
		Spec:    tk.spec,
		Faults:  tk.fcfg,
		Attempt: tk.attempt,
	}
	if !tk.deadline.IsZero() {
		w.DeadlineMs = tk.deadline.Sub(s.now()).Milliseconds()
		if w.DeadlineMs == 0 {
			w.DeadlineMs = -1 // expired exactly now; the agent must decline
		}
	}
	return w
}
