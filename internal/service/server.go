package service

import (
	"fmt"
	"math"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/bugs"
	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/supervise"
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

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}
