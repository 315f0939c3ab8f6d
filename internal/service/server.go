package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/bugs"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/ingest"
	"repro/internal/shard"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/supervise"
	"repro/internal/telemetry"
	"repro/internal/vm"
)

// Options tunes the diagnosis server. The zero value is usable: state
// lives on an in-memory backend, leases last 10 seconds, and campaigns
// are configured from the registered bug suite.
type Options struct {
	// Backend is the checkpoint medium; nil means in-memory (process
	// lifetime only). The CLI passes a DirBackend when -state-dir is
	// set.
	Backend store.Backend
	// StateRoot is the directory (on Backend) under which per-tenant
	// checkpoint stores live; "" means "state".
	StateRoot string
	// LeaseTTL is how long an agent holds a task before the reaper
	// reassigns it (default 10s).
	LeaseTTL time.Duration
	// PollTimeout caps how long a long-poll is held open (default 5s).
	PollTimeout time.Duration
	// MaxTaskAttempts is how many lease grants a task gets before it is
	// reported lost to the campaign (default 3).
	MaxTaskAttempts int
	// NoAgentTimeout is how long a queued task may sit with no live
	// agent in its tenant before it is reported lost, which lets a
	// campaign degrade to a low-confidence sketch instead of hanging
	// when the whole fleet vanishes (default 4×LeaseTTL).
	NoAgentTimeout time.Duration
	// NoFsync disables checkpoint fsync (mirrors the CLI flag).
	NoFsync bool
	// SketchCacheBytes bounds the LRU cache finished sketches are served
	// from (default 8 MiB; < 0 disables the bound). Evicted sketches are
	// re-rendered on demand from the campaign's checkpoint store, so the
	// cache keeps server memory flat without losing anything.
	SketchCacheBytes int64
	// DoneTaskTTL is how long a completed task's idempotency key is
	// retained for duplicate-upload detection before eviction (default
	// 4×LeaseTTL). Live tasks are never evicted.
	DoneTaskTTL time.Duration
	// MaxDoneTasks caps retained completed-task keys regardless of age
	// (default 65536, FIFO by completion).
	MaxDoneTasks int
	// Placer, when non-nil, runs the server coordinator-only: submits
	// are placed on the shard fleet instead of diagnosed in-process, and
	// worker processes own the campaigns. Backend and StateRoot are
	// derived from the placer (the fleet's shared root) so the sketch
	// fetch path reads the workers' checkpoint stores unchanged.
	Placer *shard.Coordinator
	// PlacePoll is how often a coordinator-mode campaign polls the fleet
	// for its done record (default 150ms).
	PlacePoll time.Duration
	// TenantRPS caps each tenant's submit rate on /v1/reports with a
	// token bucket (tokens/sec); 0 disables rate limiting. A tenant
	// over its rate is bounced with HTTP 429 and a Retry-After telling
	// it when the next token accrues — the front-door gate that keeps
	// one flooding tenant from starving the rest.
	TenantRPS float64
	// TenantBurst is the bucket depth (max burst admitted at once);
	// 0 means max(1, ceil(2×TenantRPS)).
	TenantBurst int
	// MaxInflight caps concurrently running campaigns; 0 = unbounded.
	// Admitted novel signatures beyond it park in the launch queue.
	MaxInflight int
	// LaunchBudget bounds the launch queue behind the in-flight cap;
	// novel submits beyond it are shed with 429. 0 means 4×MaxInflight.
	// Ignored while MaxInflight is 0.
	LaunchBudget int
	// HedgeAfter floors the hedged-dispatch threshold: a leased task
	// running longer than max(HedgeAfter, p95 of completed run
	// durations) is speculatively re-dispatched to a second agent and
	// the first valid upload wins. 0 disables hedging.
	HedgeAfter time.Duration
	// Now overrides the server's clock (leases, reaper, heartbeat
	// cutoff, done-task TTL, token buckets, deadlines); nil means
	// time.Now. Tests drive lease expiry without sleeping through it.
	Now func() time.Time
	// ConfigFor maps a bug name to its campaign configuration; nil
	// means bugs.ConfigFor.
	ConfigFor func(bug string) (core.Config, error)
	// Telemetry receives service.* counters; nil is fine.
	Telemetry *telemetry.Tracer
	// Logf, when non-nil, receives one line per notable server event.
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.Placer != nil {
		// Coordinator mode: the fleet's shared medium is the server's
		// medium, so reloadSketch finds worker-written checkpoints.
		o.Backend = o.Placer.Backend()
		o.StateRoot = o.Placer.CheckpointRoot()
	}
	if o.PlacePoll <= 0 {
		o.PlacePoll = 150 * time.Millisecond
	}
	if o.Backend == nil {
		o.Backend = store.NewMemBackend()
	}
	if o.StateRoot == "" {
		o.StateRoot = "state"
	}
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 10 * time.Second
	}
	if o.PollTimeout <= 0 {
		o.PollTimeout = 5 * time.Second
	}
	if o.MaxTaskAttempts <= 0 {
		o.MaxTaskAttempts = 3
	}
	if o.NoAgentTimeout <= 0 {
		o.NoAgentTimeout = 4 * o.LeaseTTL
	}
	if o.SketchCacheBytes == 0 {
		o.SketchCacheBytes = 8 << 20
	}
	if o.DoneTaskTTL <= 0 {
		o.DoneTaskTTL = 4 * o.LeaseTTL
	}
	if o.MaxDoneTasks <= 0 {
		o.MaxDoneTasks = 65536
	}
	if o.TenantBurst <= 0 && o.TenantRPS > 0 {
		o.TenantBurst = int(math.Ceil(2 * o.TenantRPS))
		if o.TenantBurst < 1 {
			o.TenantBurst = 1
		}
	}
	if o.LaunchBudget <= 0 && o.MaxInflight > 0 {
		o.LaunchBudget = 4 * o.MaxInflight
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	if o.ConfigFor == nil {
		o.ConfigFor = bugs.ConfigFor
	}
	return o
}

// Validate rejects a server configuration no operator can have meant.
// It is what `gist serve` checks before listening, so each message names
// the flag that sets the offending field. It judges what was given:
// NewServer defaults a zero LeaseTTL or StateRoot, but on the command
// line only an explicit `-lease 0` or `-state-dir ""` produces one.
func (o Options) Validate() error {
	switch {
	case o.StateRoot == "":
		return fmt.Errorf("-state-dir must not be empty")
	case o.LeaseTTL <= 0:
		return fmt.Errorf("-lease %v must be positive", o.LeaseTTL)
	case o.PollTimeout <= 0:
		return fmt.Errorf("-poll-timeout %v must be positive", o.PollTimeout)
	case o.SketchCacheBytes < 0:
		return fmt.Errorf("-ingest-cache-bytes %d must be >= 0 (0 = default)", o.SketchCacheBytes)
	case o.TenantRPS < 0:
		return fmt.Errorf("-tenant-rps %g must be >= 0 (0 = unlimited)", o.TenantRPS)
	case o.TenantBurst < 0:
		return fmt.Errorf("-tenant-burst %d must be >= 0 (0 = default)", o.TenantBurst)
	case o.TenantBurst > 0 && o.TenantRPS == 0:
		return fmt.Errorf("-tenant-burst %d requires -tenant-rps > 0 (no bucket to size without a rate)", o.TenantBurst)
	case o.MaxInflight < 0:
		return fmt.Errorf("-max-inflight %d must be >= 0 (0 = uncapped)", o.MaxInflight)
	case o.LaunchBudget < 0:
		return fmt.Errorf("-launch-budget %d must be >= 0 (0 = default)", o.LaunchBudget)
	case o.LaunchBudget > 0 && o.MaxInflight == 0:
		return fmt.Errorf("-launch-budget %d requires -max-inflight > 0 (nothing queues without an inflight cap)", o.LaunchBudget)
	case o.HedgeAfter < 0:
		return fmt.Errorf("-hedge-after %v must be >= 0 (0 = hedging off)", o.HedgeAfter)
	}
	return nil
}

// ValidateListen checks a -listen address: host:port with a port. An
// empty host (":8443") binds all interfaces and is fine.
func ValidateListen(addr string) error {
	if _, port, err := net.SplitHostPort(addr); err != nil || port == "" {
		return fmt.Errorf("-listen %q is not host:port", addr)
	}
	return nil
}

const (
	// maxSeedsPerSignature bounds each failure signature's recorded seed
	// evidence, as in core.ClusterConfig.
	maxSeedsPerSignature = 16
	// shedRetryAfter is the Retry-After advertised on a launch-budget or
	// drain shed; rate-limit sheds compute theirs from the bucket refill.
	shedRetryAfter = time.Second
	// stepTimeout is the supervisor watchdog deadline per campaign step.
	// Remote steps wait on real agents, so it is a generous 5 minutes —
	// watchdog trips restore from checkpoint and re-dispatch, they are
	// for wedged campaigns, not slow fleets.
	stepTimeout = 5 * time.Minute
	// maxBodyBytes caps what one request may make the server read and
	// hold; a larger body is answered 413 before the checksum is even
	// computed. The largest trace upload an e2e diagnosis sends is about
	// 23 KB (the e2e harness fails above an eighth of the cap).
	maxBodyBytes = 16 << 20
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
	doneAt  time.Time // when done became true; drives idempotency-key eviction
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

// Server is the diagnosis service. Create with NewServer, expose
// Handler over any listener (or a LoopbackTransport), and Close when
// done.
type Server struct {
	opts Options

	front *ingest.Frontend
	cache *ingest.SketchCache

	mu       sync.Mutex
	tenants  map[string]*tenantState
	tasks    map[uint64]*task
	nextTask uint64
	// doneTasks holds completed tasks in completion order, the eviction
	// queue for idempotency keys (guarded by mu).
	doneTasks []*task
	// Admission state (guarded by mu): inflight campaigns hold a slot
	// in slotCh, launchQ counts admitted novel signatures parked behind
	// the cap, maxLaunchQ is its high-water mark, draining stops new
	// admissions, and sups tracks live supervisors for drain requests.
	inflight   int
	launchQ    int
	maxLaunchQ int
	draining   bool
	sups       map[*supervise.Supervisor]struct{}
	// runDur is a bounded ring of completed-run durations (ms) feeding
	// the hedge threshold's p95.
	runDur    []float64
	runDurPos int
	// health aggregates FleetHealth across finished campaigns.
	health core.FleetHealth

	// slotCh is the MaxInflight semaphore; nil when uncapped.
	slotCh chan struct{}

	metrics metrics

	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
	// campWG tracks campaign goroutines only (wg also covers the
	// reaper); drain waits on it.
	campWG sync.WaitGroup

	handler http.Handler
}

// NewServer returns a running server (reaper started, no listener).
func NewServer(opts Options) *Server {
	s := &Server{
		opts:    opts.withDefaults(),
		tenants: map[string]*tenantState{},
		tasks:   map[uint64]*task{},
		sups:    map[*supervise.Supervisor]struct{}{},
		closed:  make(chan struct{}),
	}
	if s.opts.MaxInflight > 0 {
		s.slotCh = make(chan struct{}, s.opts.MaxInflight)
	}
	s.front = ingest.NewFrontend(maxSeedsPerSignature)
	s.cache = ingest.NewSketchCache(s.opts.SketchCacheBytes)
	mux := http.NewServeMux()
	mux.HandleFunc(PathHealthz, s.handleHealthz)
	mux.HandleFunc(PathHealth, s.handleHealth)
	mux.HandleFunc(PathSubmit, jsonHandler(s, s.handleSubmit))
	mux.HandleFunc(PathStatus, jsonHandler(s, s.handleStatus))
	mux.HandleFunc(PathSketch, jsonHandler(s, s.handleSketch))
	mux.HandleFunc(PathRegister, jsonHandler(s, s.handleRegister))
	mux.HandleFunc(PathPoll, jsonHandler(s, s.handlePoll))
	mux.HandleFunc(PathHeartbeat, jsonHandler(s, s.handleHeartbeat))
	mux.HandleFunc(PathUpload, jsonHandler(s, s.handleUpload))
	s.handler = s.measure(mux)
	s.wg.Add(1)
	go s.reap()
	return s
}

// Handler returns the server's HTTP handler (checksum verification and
// request counting included).
func (s *Server) Handler() http.Handler { return s.handler }

// Close stops the reaper and writes off every in-flight task so
// campaign goroutines blocked on the fleet unwind. Idempotent.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		close(s.closed)
		s.mu.Lock()
		for _, tk := range s.tasks {
			if !tk.done {
				s.markLost(tk)
			}
		}
		s.mu.Unlock()
	})
	s.wg.Wait()
}

// WaitCampaign blocks until the (tenant, bug) discovery campaign
// finishes; it reports false when no such campaign exists.
func (s *Server) WaitCampaign(tenant, bug string) bool {
	return s.WaitCampaignSig(tenant, bug, "")
}

// WaitCampaignSig blocks until the campaign for one failure signature
// under (tenant, bug) finishes; "" addresses the discovery campaign.
func (s *Server) WaitCampaignSig(tenant, bug, sig string) bool {
	s.mu.Lock()
	t := s.tenants[tenant]
	var cs *campaignState
	if t != nil {
		cs = t.campaigns[campaignKey(bug, sig)]
	}
	s.mu.Unlock()
	if cs == nil {
		return false
	}
	<-cs.done
	return true
}

// now reads the injected clock.
func (s *Server) now() time.Time { return s.opts.Now() }

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
			s.opts.Telemetry.AddL(req.Tenant, "service.shed_rate_limited", 1)
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
		s.opts.Telemetry.AddL(req.Tenant, "service.shed_launches", 1)
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
	tick := time.NewTicker(s.opts.PlacePoll)
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
	ckpt, err := shard.OpenCampaignStore(s.opts.Backend, s.opts.StateRoot, tenant, key, s.opts.NoFsync, s.opts.Telemetry)
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
	s.opts.Telemetry.AddL(tk.tenant+"/"+tk.bug, "service.uploads", 1)
	return &UploadResponse{Accepted: true}, nil
}

// ---- campaign lifecycle ----------------------------------------------

// runCampaign drives one diagnosis stream through the campaign
// lifecycle: open the campaign's checkpoint store, resume from its
// newest valid generation — what a drained or killed predecessor over
// the same state left behind — or build the campaign from the submitted
// report (nil: server-side discovery, exactly as core.Run would), route
// its fleet through the remote runner, and supervise it to completion.
// key is the campaignKey the stream is registered under.
func (s *Server) runCampaign(cs *campaignState, tenant, bug, key string, cfg core.Config, report *vm.FailureReport, discRuns int) {
	cfg.Label = tenant + "/" + key
	fail := func(err error) { s.failCampaign(cs, cfg.Label, err) }
	if cfg.Telemetry == nil {
		cfg.Telemetry = s.opts.Telemetry
	}

	// cs.deadline is written once, before the launch goroutine starts.
	runner := &remoteRunner{s: s, tenant: tenant, bug: bug, fcfg: cfg.Faults, deadline: cs.deadline}
	// A campaign admitted but expired while queued must not burn runs.
	if runner.disowned() == errPastDeadline {
		s.metrics.add(func(m *Counters) { m.DeadlineExpired++ })
		fail(fmt.Errorf("deadline exceeded before launch"))
		return
	}

	ckpt, err := shard.OpenCampaignStore(s.opts.Backend, s.opts.StateRoot, tenant, key, s.opts.NoFsync, s.opts.Telemetry)
	if err != nil {
		fail(fmt.Errorf("checkpoint store: %w", err))
		return
	}
	sup := supervise.New(1, supervise.Config{
		StepTimeout: stepTimeout,
		Telemetry:   s.opts.Telemetry,
		OnRestore:   func(c *core.Campaign) { c.UseRunner(runner) },
	})
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
		camp.UseRunner(runner)
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
		// The batch has consumed the task; drop the trace bytes but
		// keep the entry so late duplicate uploads still answer
		// idempotently.
		tk.trace = nil
		r.s.mu.Unlock()
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

// markDone completes a task exactly once: flips the idempotency flag,
// stamps the completion time, wakes the batch waiter, and queues the
// key for TTL/size-capped eviction. Caller holds mu.
func (s *Server) markDone(tk *task) {
	tk.done = true
	tk.doneAt = s.now()
	close(tk.doneCh)
	s.doneTasks = append(s.doneTasks, tk)
}

// markLost writes a task off: the campaign sees a nil trace, which its
// Lost/retry/quorum machinery absorbs. Caller holds mu.
func (s *Server) markLost(tk *task) {
	tk.lost = true
	s.markDone(tk)
	s.metrics.add(func(m *Counters) { m.LostTasks++ })
	s.opts.Telemetry.AddL(tk.tenant+"/"+tk.bug, "service.lost_tasks", 1)
}

// evictDoneTasks drops completed-task idempotency keys that are past
// the retention TTL or over the size cap (FIFO by completion). Only
// done tasks are ever in the queue, so a live task can never be evicted
// and exactly-once admission is preserved: an upload for an evicted key
// hits the unknown-task path, which acknowledges it as a duplicate
// without admitting anything. Caller holds mu.
func (s *Server) evictDoneTasks(now time.Time) {
	cutoff := now.Add(-s.opts.DoneTaskTTL)
	evicted := int64(0)
	for len(s.doneTasks) > 0 {
		tk := s.doneTasks[0]
		if len(s.doneTasks) <= s.opts.MaxDoneTasks && !tk.doneAt.Before(cutoff) {
			break
		}
		s.doneTasks = s.doneTasks[1:]
		delete(s.tasks, tk.id)
		evicted++
	}
	if evicted > 0 {
		s.metrics.add(func(m *Counters) { m.EvictedTasks += evicted })
	}
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
// queued tasks with no live fleet are written off after NoAgentTimeout,
// and stale idempotency keys are evicted. Tests drive it directly with
// an injected clock instead of sleeping through wall time.
func (s *Server) reapOnce(now time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	hedgeTh := s.hedgeThreshold()
	for _, tk := range s.tasks {
		if tk.done {
			continue
		}
		t := s.tenant(tk.tenant)
		if !tk.deadline.IsZero() && now.After(tk.deadline) {
			s.logf("task %d (%s/%s) written off: deadline exceeded", tk.id, tk.tenant, tk.bug)
			s.metrics.add(func(m *Counters) { m.DeadlineExpired++ })
			s.markLost(tk)
			continue
		}
		if !tk.leaseUntil.IsZero() && now.After(tk.leaseUntil) {
			// The agent holding the lease went quiet.
			if tk.attempt >= s.opts.MaxTaskAttempts {
				s.logf("task %d (%s/%s) lost after %d attempts", tk.id, tk.tenant, tk.bug, tk.attempt)
				s.markLost(tk)
				continue
			}
			tk.agent = ""
			tk.leaseUntil = time.Time{}
			s.metrics.add(func(m *Counters) { m.Reassigned++ })
			s.opts.Telemetry.AddL(tk.tenant+"/"+tk.bug, "service.reassigned", 1)
			s.logf("task %d (%s/%s) lease expired; requeued (attempt %d)", tk.id, tk.tenant, tk.bug, tk.attempt)
			s.dispatch(t, tk)
			continue
		}
		if hedgeTh > 0 && !tk.hedged && !tk.leaseUntil.IsZero() &&
			tk.attempt < s.opts.MaxTaskAttempts && now.Sub(tk.leasedAt) > hedgeTh {
			// Straggler: the lease is alive but the run has outlived the
			// hedge threshold. Re-dispatch the same task — same ID, same
			// spec — to a second agent; determinism makes both results
			// byte-identical and the idempotency key admits exactly one.
			tk.hedged = true
			s.metrics.add(func(m *Counters) { m.HedgedTasks++ })
			s.opts.Telemetry.AddL(tk.tenant+"/"+tk.bug, "service.hedged", 1)
			s.logf("task %d (%s/%s) hedged after %v (threshold %v)", tk.id, tk.tenant, tk.bug, now.Sub(tk.leasedAt), hedgeTh)
			s.dispatch(t, tk)
			continue
		}
		if tk.leaseUntil.IsZero() && !t.live(now, 2*s.opts.LeaseTTL) &&
			now.Sub(tk.queued) > s.opts.NoAgentTimeout {
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
	s.evictDoneTasks(now)
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

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// ---- metrics ----------------------------------------------------------

// Counters are the server's scalar health counters.
type Counters struct {
	Requests         int64
	BadChecksum      int64
	Uploads          int64
	DuplicateUploads int64
	Reassigned       int64
	LostTasks        int64
	// NovelSignatures counts submits that launched a campaign;
	// FoldedReports counts submits deduped into a live one.
	NovelSignatures int64
	FoldedReports   int64
	// EvictedTasks counts completed-task idempotency keys dropped by
	// TTL/size-capped eviction.
	EvictedTasks int64
	// SketchReloads counts sketch fetches re-rendered from the
	// checkpoint store after LRU eviction.
	SketchReloads int64
	// ShedRateLimited counts submits bounced by a tenant's token
	// bucket; ShedLaunches counts novel signatures shed because the
	// launch queue was at budget (or the server was draining).
	ShedRateLimited int64
	ShedLaunches    int64
	// HedgedTasks counts stragglers speculatively re-dispatched;
	// HedgedResults counts uploads admitted for hedged tasks.
	HedgedTasks   int64
	HedgedResults int64
	// DeadlineExpired counts tasks written off and campaigns failed by
	// deadline propagation.
	DeadlineExpired int64
}

// RPCStat is the request count of one wire path.
type RPCStat struct {
	Path  string `json:"path"`
	Count int64  `json:"count"`
}

// metrics holds the scalar counters and a request count per path.
type metrics struct {
	mu       sync.Mutex
	counters Counters
	byPath   map[string]int64
}

func (m *metrics) add(f func(*Counters)) {
	m.mu.Lock()
	f(&m.counters)
	m.mu.Unlock()
}

// read returns the counters alone, so a health probe costs the request
// path one short critical section.
func (m *metrics) read() Counters {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.counters
}

func (m *metrics) observe(path string) {
	m.mu.Lock()
	m.counters.Requests++
	if m.byPath == nil {
		m.byPath = map[string]int64{}
	}
	m.byPath[path]++
	m.mu.Unlock()
}

// measure wraps the mux with per-request counting.
func (s *Server) measure(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		next.ServeHTTP(w, r)
		s.metrics.observe(r.URL.Path)
	})
}

// Snapshot returns the server's counters and per-path request counts,
// sorted by path.
func (s *Server) Snapshot() (Counters, []RPCStat) {
	s.metrics.mu.Lock()
	defer s.metrics.mu.Unlock()
	rpcs := make([]RPCStat, 0, len(s.metrics.byPath))
	for p, n := range s.metrics.byPath {
		rpcs = append(rpcs, RPCStat{Path: p, Count: n})
	}
	sort.Slice(rpcs, func(i, j int) bool { return rpcs[i].Path < rpcs[j].Path })
	return s.metrics.counters, rpcs
}

// CacheStats returns the sketch cache's counters and occupancy.
func (s *Server) CacheStats() ingest.CacheStats { return s.cache.Stats() }

// IngestStats returns the streaming front-end's traffic counters.
func (s *Server) IngestStats() ingest.Stats { return s.front.Stats() }
