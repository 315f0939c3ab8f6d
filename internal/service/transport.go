package service

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/shard"
)

// ---- HTTP plumbing ----------------------------------------------------

// httpError is an error with a status code and, for shed replies, a
// Retry-After hint.
type httpError struct {
	code       int
	msg        string
	retryAfter time.Duration
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &httpError{code: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// overloaded builds the 429 shed reply: the standard Retry-After header
// (integer seconds, rounded up) plus the millisecond-precision header
// the wire client prefers.
func overloaded(retryAfter time.Duration, format string, args ...any) error {
	if retryAfter <= 0 {
		retryAfter = time.Second
	}
	return &httpError{
		code:       http.StatusTooManyRequests,
		msg:        fmt.Sprintf(format, args...),
		retryAfter: retryAfter,
	}
}

// jsonHandler adapts a typed handler: read the body (at most
// maxBodyBytes of it), verify its checksum, decode JSON, dispatch,
// encode the response. The checksum check runs before any decoding so a
// transport-corrupted body can never half-apply.
func jsonHandler[Req, Resp any](s *Server, f func(*Req) (*Resp, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeError(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
		if err != nil {
			writeError(w, http.StatusBadRequest, "read body: %v", err)
			return
		}
		if len(body) > maxBodyBytes {
			writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", maxBodyBytes)
			return
		}
		if want := r.Header.Get(ChecksumHeader); want != "" {
			if got := BodyChecksum(body); got != want {
				s.metrics.add(func(m *Counters) { m.BadChecksum++ })
				writeError(w, http.StatusBadRequest, "body checksum mismatch: have %s, header says %s", got, want)
				return
			}
		}
		var req Req
		if err := json.Unmarshal(body, &req); err != nil {
			writeError(w, http.StatusBadRequest, "decode request: %v", err)
			return
		}
		resp, err := f(&req)
		if err != nil {
			code := http.StatusInternalServerError
			if he, ok := err.(*httpError); ok {
				code = he.code
				if he.retryAfter > 0 {
					secs := int64(math.Ceil(he.retryAfter.Seconds()))
					if secs < 1 {
						secs = 1
					}
					w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
					w.Header().Set(RetryAfterMsHeader, strconv.FormatInt(he.retryAfter.Milliseconds(), 10))
				}
			}
			writeError(w, code, "%v", err)
			return
		}
		data, err := json.Marshal(resp)
		if err != nil {
			writeError(w, http.StatusInternalServerError, "encode response: %v", err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(data)
	}
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	data, _ := json.Marshal(ErrorResponse{Err: fmt.Sprintf(format, args...)})
	w.Write(data)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

// ---- handlers ---------------------------------------------------------

func (s *Server) handleSubmit(req *SubmitRequest) (*SubmitResponse, error) {
	if req.Tenant == "" || req.Bug == "" {
		return nil, badRequest("submit: tenant and bug are required")
	}
	if req.DiscoveryRuns < 0 {
		return nil, badRequest("submit: discovery_runs must be >= 0, got %d", req.DiscoveryRuns)
	}
	if req.DeadlineMs < 0 {
		return nil, badRequest("submit: deadline_ms must be >= 0, got %d", req.DeadlineMs)
	}
	cfg, err := s.opts.ConfigFor(req.Bug)
	if err != nil {
		return nil, badRequest("submit: %v", err)
	}
	// Ingest under the server mutex so the dedup decision and the
	// campaign registration are one atomic step: exactly the Novel
	// caller registers, everyone else observes the registered campaign.
	// The admission gates run under the same lock, before the ingest
	// mutation, so a shed report leaves no trace in the frontend.
	s.mu.Lock()
	now := s.now()
	t := s.tenant(req.Tenant)
	// Gate 1: per-tenant rate limit. Every submit — fold or novel —
	// spends a token; a flooding tenant is bounced here with the time
	// until its next token as the Retry-After.
	if s.opts.TenantRPS > 0 {
		if t.bucket == nil {
			t.bucket = newTokenBucket(s.opts.TenantRPS, s.opts.TenantBurst)
		}
		if ok, ra := t.bucket.take(now); !ok {
			s.mu.Unlock()
			s.metrics.add(func(m *Counters) { m.ShedRateLimited++ })
			return nil, overloaded(ra, "submit: tenant %s over its rate limit (%g/s)", req.Tenant, s.opts.TenantRPS)
		}
	}
	if s.draining {
		s.mu.Unlock()
		s.metrics.add(func(m *Counters) { m.ShedLaunches++ })
		return nil, overloaded(shedRetryAfter, "submit: server is draining")
	}
	// Gate 2: priority shedding. A recurrence fold is an O(1) cluster
	// update and always admitted past this point; a novel signature
	// must launch a campaign, which queues behind the in-flight cap up
	// to the launch budget and is shed beyond it. The novelty probe is
	// read-only: a shed report must stay novel for its retry.
	// The bound is on total occupancy (running + parked) rather than on
	// the two counts separately: a just-admitted campaign sits in
	// launchQ until its goroutine grabs a slot, and checking the counts
	// separately would let submits racing that handoff overshoot the
	// queue bound.
	novel := !s.front.Known(req.Tenant, req.Bug, req.Report)
	if novel && s.slotCh != nil && s.inflight+s.launchQ >= s.opts.MaxInflight+s.opts.LaunchBudget {
		inflight, queued := s.inflight, s.launchQ
		s.mu.Unlock()
		s.metrics.add(func(m *Counters) { m.ShedLaunches++ })
		return nil, overloaded(shedRetryAfter,
			"submit: launch queue full (%d campaigns in flight, %d queued)", inflight, queued)
	}
	dec := s.front.Ingest(req.Tenant, req.Bug, req.Report, req.Seed)
	resp := &SubmitResponse{
		Tenant: req.Tenant, Bug: req.Bug,
		Signature: dec.Key.Sig, Reports: dec.Reports,
	}
	if !dec.Novel {
		s.mu.Unlock()
		s.metrics.add(func(m *Counters) { m.FoldedReports++ })
		resp.Duplicate = true
		return resp, nil
	}
	cs := &campaignState{state: StateRunning, done: make(chan struct{}), abort: make(chan struct{})}
	if req.DeadlineMs > 0 {
		cs.deadline = now.Add(time.Duration(req.DeadlineMs) * time.Millisecond)
	}
	key := campaignKey(req.Bug, dec.Key.Sig)
	t.campaigns[key] = cs
	if s.slotCh != nil {
		// Account the launch-queue seat under the same lock as the
		// budget check, so the bound can never be overshot by a race.
		cs.state = StateQueued
		s.launchQ++
		// The high-water mark counts campaigns parked beyond the
		// in-flight cap, not raw launchQ: a just-admitted campaign sits
		// in launchQ until its goroutine grabs a free slot, and that
		// transient would read as queue growth. The occupancy gate
		// bounds this excess by exactly LaunchBudget.
		if excess := s.inflight + s.launchQ - s.opts.MaxInflight; excess > s.maxLaunchQ {
			s.maxLaunchQ = excess
		}
	}
	s.mu.Unlock()
	s.metrics.add(func(m *Counters) { m.NovelSignatures++ })

	s.logf("submit: tenant=%s bug=%s sig=%q deadline_ms=%d", req.Tenant, req.Bug, dec.Key.Sig, req.DeadlineMs)
	s.wg.Add(1)
	s.campWG.Add(1)
	run := func() { s.runCampaign(cs, req.Tenant, req.Bug, key, cfg, req.Report, req.DiscoveryRuns) }
	if s.opts.Placer != nil {
		run = func() {
			s.placeCampaign(cs, req.Tenant, req.Bug, key, dec.Key.Sig, req.Report, req.DiscoveryRuns)
		}
	}
	go s.launch(cs, req.Tenant+"/"+key, run)
	return resp, nil
}

func (s *Server) handleStatus(req *StatusRequest) (*StatusResponse, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.tenants[req.Tenant]
	if t == nil {
		return &StatusResponse{State: StateUnknown}, nil
	}
	cs := t.campaigns[campaignKey(req.Bug, req.Signature)]
	if cs == nil {
		return &StatusResponse{State: StateUnknown}, nil
	}
	resp := &StatusResponse{
		State:         cs.state,
		LowConfidence: cs.lowConfidence,
		Restarts:      cs.restarts,
	}
	if cs.err != nil {
		resp.Err = cs.err.Error()
	}
	return resp, nil
}

func (s *Server) handleSketch(req *SketchRequest) (*SketchResponse, error) {
	key := campaignKey(req.Bug, req.Signature)
	s.mu.Lock()
	t := s.tenants[req.Tenant]
	var cs *campaignState
	if t != nil {
		cs = t.campaigns[key]
	}
	done := cs != nil && cs.state == StateDone
	s.mu.Unlock()
	if !done {
		return &SketchResponse{}, nil
	}
	ck := req.Tenant + "/" + key
	if sketch := s.cache.Get(ck); sketch != nil {
		return &SketchResponse{Ready: true, Sketch: sketch}, nil
	}
	// Cache miss: the sketch was evicted (or the cache is tiny).
	// Re-render it from the campaign's durable checkpoint — the
	// supervisor saved the finished snapshot, so the bytes come back
	// identical.
	sketch, err := s.reloadSketch(req.Tenant, req.Bug, key)
	if err != nil {
		return nil, fmt.Errorf("sketch: reload %s/%s: %w", req.Tenant, key, err)
	}
	s.metrics.add(func(m *Counters) { m.SketchReloads++ })
	s.cache.Put(ck, sketch)
	return &SketchResponse{Ready: true, Sketch: sketch}, nil
}

// reloadSketch re-renders a finished campaign's sketch bytes from its
// checkpoint store. Called outside the server mutex (store access may
// touch disk).
func (s *Server) reloadSketch(tenant, bug, key string) ([]byte, error) {
	cfg, err := s.opts.ConfigFor(bug)
	if err != nil {
		return nil, err
	}
	ckpt, err := shard.OpenCampaignStore(s.opts.Backend, s.opts.StateRoot, tenant, key, s.opts.NoFsync, nil)
	if err != nil {
		return nil, err
	}
	latest := ckpt.Latest()
	if latest == nil {
		return nil, fmt.Errorf("no checkpoint generations")
	}
	snap, err := core.DecodeCampaignSnapshot(latest.Payload)
	if err != nil {
		return nil, err
	}
	return snap.RenderSketchJSON(cfg.Prog)
}

func (s *Server) handleRegister(req *RegisterRequest) (*RegisterResponse, error) {
	if req.Tenant == "" || req.Agent == "" {
		return nil, badRequest("register: tenant and agent are required")
	}
	s.mu.Lock()
	t := s.tenant(req.Tenant)
	t.touch(req.Agent, s.now())
	s.mu.Unlock()
	s.logf("register: tenant=%s agent=%s", req.Tenant, req.Agent)
	return &RegisterResponse{LeaseMs: s.opts.LeaseTTL.Milliseconds()}, nil
}

func (s *Server) handlePoll(req *PollRequest) (*PollResponse, error) {
	if req.Tenant == "" || req.Agent == "" {
		return nil, badRequest("poll: tenant and agent are required")
	}
	s.mu.Lock()
	t := s.tenant(req.Tenant)
	t.touch(req.Agent, s.now())
	if tk := t.pop(); tk != nil {
		s.lease(tk, req.Agent)
		resp := &PollResponse{Task: s.wireTask(tk)}
		s.mu.Unlock()
		return resp, nil
	}
	w := &waiter{agent: req.Agent, ch: make(chan *task, 1)}
	t.waiters = append(t.waiters, w)
	s.mu.Unlock()

	wait := time.Duration(req.WaitMs) * time.Millisecond
	if wait <= 0 || wait > s.opts.PollTimeout {
		wait = s.opts.PollTimeout
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case tk := <-w.ch:
		return &PollResponse{Task: s.wireTask(tk)}, nil
	case <-timer.C:
	case <-s.closed:
	}
	s.mu.Lock()
	t.unpark(w)
	s.mu.Unlock()
	// A delivery may have raced the timeout; it went through the
	// buffered channel under the mutex, so one non-blocking receive
	// settles it.
	select {
	case tk := <-w.ch:
		return &PollResponse{Task: s.wireTask(tk)}, nil
	default:
		return &PollResponse{}, nil
	}
}

func (s *Server) handleHeartbeat(req *HeartbeatRequest) (*HeartbeatResponse, error) {
	if req.Tenant == "" || req.Agent == "" {
		return nil, badRequest("heartbeat: tenant and agent are required")
	}
	s.mu.Lock()
	t := s.tenant(req.Tenant)
	now := s.now()
	t.touch(req.Agent, now)
	for _, tk := range s.tasks {
		if !tk.done && tk.tenant == req.Tenant && tk.agent == req.Agent && !tk.leaseUntil.IsZero() {
			tk.leaseUntil = now.Add(s.opts.LeaseTTL)
		}
	}
	s.mu.Unlock()
	return &HeartbeatResponse{OK: true}, nil
}

func (s *Server) handleUpload(req *UploadRequest) (*UploadResponse, error) {
	if req.Tenant == "" || req.TaskID == 0 {
		return nil, badRequest("upload: tenant and task_id are required")
	}
	if req.Trace == nil && !req.Crashed {
		return nil, badRequest("upload: task %d carries neither a trace nor a crash marker", req.TaskID)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.tenant(req.Tenant)
	t.touch(req.Agent, s.now())
	tk := s.tasks[req.TaskID]
	if tk == nil || tk.tenant != req.Tenant {
		// Unknown task: a retry that outlived its campaign (or a
		// restarted server). Acknowledge as a duplicate so the agent
		// moves on.
		s.metrics.add(func(m *Counters) { m.DuplicateUploads++ })
		return &UploadResponse{Duplicate: true}, nil
	}
	if tk.done {
		// The idempotency key already admitted this task (a retried
		// upload, a duplicated delivery, or a run the reaper wrote
		// off). Exactly-once admission means this delivery is a no-op.
		s.metrics.add(func(m *Counters) { m.DuplicateUploads++ })
		return &UploadResponse{Accepted: true, Duplicate: true}, nil
	}
	if w := req.Trace; !req.Crashed && (w.Spec.EndpointID != tk.spec.EndpointID || w.Spec.Seed != tk.spec.Seed) {
		// Task IDs restart at 1 with every server process while agents
		// and checkpointed campaigns outlive it, so a late upload for a
		// predecessor's task k can name this server's task k — another
		// run. Admit nothing; the task stays pending for its own agent.
		// (A bare crash marker carries no spec and is trusted.)
		s.metrics.add(func(m *Counters) { m.DuplicateUploads++ })
		return &UploadResponse{Duplicate: true}, nil
	}
	tk.crashed = req.Crashed
	if !req.Crashed {
		tk.trace = DecodeTrace(req.Trace)
	}
	if tk.hedged {
		s.metrics.add(func(m *Counters) { m.HedgedResults++ })
	}
	if !tk.leasedAt.IsZero() {
		// Completed-run durations feed the hedge threshold's p95.
		s.observeRunDuration(s.now().Sub(tk.leasedAt))
	}
	s.markDone(tk)
	s.metrics.add(func(m *Counters) { m.Uploads++ })
	return &UploadResponse{Accepted: true}, nil
}
