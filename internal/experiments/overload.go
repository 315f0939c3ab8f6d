package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/bugs"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/service"
	"repro/internal/service/agent"
	"repro/internal/stats"
	"repro/internal/vm"
)

// OverloadOptions scales the overload experiment. The zero value gets
// the BENCH defaults; the smoke test shrinks every knob.
type OverloadOptions struct {
	// Bug is the diagnosis every tenant submits (default "deadlock",
	// the cheapest suite bug — the experiment is about admission, not
	// the diagnosis).
	Bug string
	// Victims is the number of well-behaved tenants (default 3).
	Victims int
	// AgentsPerTenant is each tenant's endpoint fleet (default 3).
	AgentsPerTenant int
	// FoldsPerVictim is how many recurrence reports each victim files
	// after its novel one (default 30).
	FoldsPerVictim int
	// TenantRPS/TenantBurst are the server's per-tenant rate limit
	// (defaults 50 and 20).
	TenantRPS   float64
	TenantBurst int
	// MaxInflight/LaunchBudget cap concurrent campaigns and the launch
	// queue (defaults 3 and 1: the victims fill the slots, the flooder's
	// own campaign fills the queue, and its novel burst must shed).
	MaxInflight  int
	LaunchBudget int
	// HedgeAfter floors the hedged-dispatch threshold (default 50ms).
	HedgeAfter time.Duration
	// SlowRate/SlowMeanMs configure the slow-agent fault class for the
	// slow mixes (defaults 0.2 and 400: a fifth of the tasks stall far
	// past HedgeAfter, so hedges must fire).
	SlowRate   float64
	SlowMeanMs int
	// NovelBurst is how many distinct crafted signatures the flooder
	// fires at the full launch queue (default 16).
	NovelBurst int
}

func (o OverloadOptions) withDefaults() OverloadOptions {
	if o.Bug == "" {
		o.Bug = "deadlock"
	}
	if o.Victims <= 0 {
		o.Victims = 3
	}
	if o.AgentsPerTenant <= 0 {
		o.AgentsPerTenant = 3
	}
	if o.FoldsPerVictim <= 0 {
		o.FoldsPerVictim = 30
	}
	if o.TenantRPS <= 0 {
		o.TenantRPS = 50
	}
	if o.TenantBurst <= 0 {
		o.TenantBurst = 20
	}
	if o.MaxInflight <= 0 {
		o.MaxInflight = o.Victims
	}
	if o.LaunchBudget <= 0 {
		o.LaunchBudget = 1
	}
	if o.HedgeAfter <= 0 {
		o.HedgeAfter = 50 * time.Millisecond
	}
	if o.SlowRate <= 0 {
		o.SlowRate = 0.2
	}
	if o.SlowMeanMs <= 0 {
		o.SlowMeanMs = 400
	}
	if o.NovelBurst <= 0 {
		o.NovelBurst = 16
	}
	return o
}

// OverloadMix is one operating point of the sweep: an offered-load
// multiple for the flooding tenant crossed with the slow-agent fault
// class.
type OverloadMix struct {
	Name string `json:"name"`
	// FloodFactor is the flooding tenant's offered load as a multiple
	// of the per-tenant rate limit (0 = no flooder).
	FloodFactor float64 `json:"flood_factor"`
	// SlowAgents marks the 20%-slow-agent fault class active.
	SlowAgents bool `json:"slow_agents"`

	// Victim-side traffic: every submit from a non-flooding tenant.
	VictimReports  int     `json:"victim_reports"`
	VictimAdmitted int     `json:"victim_admitted"`
	GoodputPerSec  float64 `json:"goodput_per_sec"`
	// Client-observed admit latency for victim tenants only — the
	// isolation criterion compares these against the unloaded baseline.
	AdmitP50Ms float64 `json:"admit_p50_ms"`
	AdmitP95Ms float64 `json:"admit_p95_ms"`
	AdmitP99Ms float64 `json:"admit_p99_ms"`
	// End-to-end diagnosis latency (novel submit → sketch fetched).
	E2EP50Ms float64 `json:"e2e_p50_ms"`
	E2EMaxMs float64 `json:"e2e_max_ms"`

	// Flood-side traffic, client-observed (one-shot submits, no retry).
	FloodOffered  int     `json:"flood_offered"`
	FloodAdmitted int     `json:"flood_admitted"`
	FloodShed     int     `json:"flood_shed"`
	FloodShedRate float64 `json:"flood_shed_rate"`

	// Server counters after the mix.
	ShedRateLimited   int64   `json:"shed_rate_limited"`
	ShedLaunches      int64   `json:"shed_launches"`
	HedgedTasks       int64   `json:"hedged_tasks"`
	HedgedResults     int64   `json:"hedged_results"`
	DeadlineExpired   int64   `json:"deadline_expired"`
	MaxQueuedLaunches int     `json:"max_queued_launches"`
	HeapAllocMB       float64 `json:"heap_alloc_mb"`

	// Identical records that every completed diagnosis in this mix —
	// including hedged-dispatch results — was byte-identical to the
	// local batch oracle.
	Identical bool `json:"identical"`
	Sketches  int  `json:"sketches"`
}

// OverloadResult is the overload experiment, serialized by -json to
// BENCH_overload.json: an offered-load sweep (no flood, 4×, 10× the
// per-tenant rate limit) crossed with the slow-agent fault class,
// against a server running the full admission-control stack.
type OverloadResult struct {
	Experiment string `json:"experiment"` // "overload"
	Bug        string `json:"bug"`
	Victims    int    `json:"victims"`
	GoMaxProcs int    `json:"gomaxprocs"`

	TenantRPS    float64 `json:"tenant_rps"`
	MaxInflight  int     `json:"max_inflight"`
	LaunchBudget int     `json:"launch_budget"`
	HedgeAfterMs int64   `json:"hedge_after_ms"`

	// Identical aggregates every mix's byte-identity verdict.
	Identical bool          `json:"identical"`
	Mixes     []OverloadMix `json:"mixes"`
}

// overloadMixes is the sweep: the baseline anchors the isolation
// criterion, the flood rows sweep offered load, the slow rows add the
// degraded-endpoint fault class, and the last row is the acceptance
// mix (10× flood + slow agents at once).
var overloadMixes = []struct {
	name  string
	flood float64
	slow  bool
}{
	{"baseline", 0, false},
	{"flood-4x", 4, false},
	{"flood-10x", 10, false},
	{"slow", 0, true},
	{"flood-slow-10x", 10, true},
}

// Overload drives the sweep. Each mix gets a fresh server (loopback
// transport — no sockets) with per-tenant token buckets, the in-flight
// cap and launch budget, hedged dispatch, and deadline propagation all
// active; victims submit normally while a flooding tenant offers
// FloodFactor× the rate limit. Every completed sketch is byte-diffed
// against one batch diagnosis of the same failure report.
func Overload(opts OverloadOptions) (*OverloadResult, error) {
	opts = opts.withDefaults()
	b := bugs.ByName(opts.Bug)
	if b == nil {
		return nil, fmt.Errorf("overload: unknown bug %q", opts.Bug)
	}

	// One batch oracle for every tenant and mix: the submitted report is
	// fixed, so every admitted diagnosis must reproduce these bytes.
	cfg := b.GistConfig()
	report, disc, err := core.FirstFailure(cfg)
	if err != nil {
		return nil, fmt.Errorf("overload: discovery: %w", err)
	}
	batch, err := core.RunFromReport(cfg, report, disc)
	if err != nil {
		return nil, fmt.Errorf("overload: batch diagnosis: %w", err)
	}
	want, err := batch.Sketch.MarshalIndentJSON()
	if err != nil {
		return nil, err
	}

	res := &OverloadResult{
		Experiment:   "overload",
		Bug:          opts.Bug,
		Victims:      opts.Victims,
		GoMaxProcs:   runtime.GOMAXPROCS(0),
		TenantRPS:    opts.TenantRPS,
		MaxInflight:  opts.MaxInflight,
		LaunchBudget: opts.LaunchBudget,
		HedgeAfterMs: opts.HedgeAfter.Milliseconds(),
		Identical:    true,
	}
	for _, m := range overloadMixes {
		mix, err := overloadOneMix(opts, m.name, m.flood, m.slow, report, disc, want)
		if err != nil {
			return res, fmt.Errorf("overload: mix %s: %w", m.name, err)
		}
		if !mix.Identical {
			res.Identical = false
		}
		res.Mixes = append(res.Mixes, *mix)
	}
	return res, nil
}

// overloadOneMix runs one operating point end to end.
func overloadOneMix(opts OverloadOptions, name string, flood float64, slow bool,
	report *vm.FailureReport, disc int, want []byte) (*OverloadMix, error) {

	mix := &OverloadMix{Name: name, FloodFactor: flood, SlowAgents: slow, Identical: true}
	srv := service.NewServer(service.Options{
		LeaseTTL:        5 * time.Second,
		PollTimeout:     100 * time.Millisecond,
		MaxTaskAttempts: 10,
		TenantRPS:       opts.TenantRPS,
		TenantBurst:     opts.TenantBurst,
		MaxInflight:     opts.MaxInflight,
		LaunchBudget:    opts.LaunchBudget,
		HedgeAfter:      opts.HedgeAfter,
		ConfigFor: func(bug string) (core.Config, error) {
			bb := bugs.ByName(bug)
			if bb == nil {
				return core.Config{}, fmt.Errorf("unknown bug %q", bug)
			}
			cfg := bb.GistConfig()
			if slow {
				// The slow-agent class lives in its own keyed fault
				// stream: only timing changes, never trace bytes, so the
				// byte-identity assertion below still holds.
				cfg.Faults = faults.Slowdown(99, opts.SlowRate, opts.SlowMeanMs)
			}
			return cfg, nil
		},
	})
	defer srv.Close()
	transport := service.LoopbackTransport{Handler: srv.Handler()}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var agentWG sync.WaitGroup
	defer agentWG.Wait()
	defer cancel()

	tenants := make([]string, 0, opts.Victims+1)
	for v := 0; v < opts.Victims; v++ {
		tenants = append(tenants, fmt.Sprintf("victim-%d", v))
	}
	flooder := "flooder"
	if flood > 0 {
		tenants = append(tenants, flooder)
	}
	for ti, tenant := range tenants {
		for a := 0; a < opts.AgentsPerTenant; a++ {
			ag, err := agent.New(agent.Config{
				Server:    "http://gist",
				Tenant:    tenant,
				ID:        fmt.Sprintf("ep-%02d-%02d", ti, a),
				Poll:      50 * time.Millisecond,
				Transport: transport,
				Sleep:     func(time.Duration) {},
			})
			if err != nil {
				return nil, err
			}
			agentWG.Add(1)
			go func() {
				defer agentWG.Done()
				_ = ag.Run(ctx)
			}()
		}
	}

	newClient := func(tenant, actor string, oneShot bool) *service.Client {
		co := service.ClientOptions{
			BaseURL:   "http://gist",
			Tenant:    tenant,
			Actor:     actor,
			Transport: transport,
		}
		if oneShot {
			// The flooder takes no for an answer: one attempt, no
			// backoff — shed means shed, which is what we count.
			co.MaxAttempts = 1
			co.Sleep = func(time.Duration) {}
		}
		return service.NewClient(co)
	}

	var (
		mu        sync.Mutex
		admitLat  []float64 // victim submits, client-observed ms
		e2eLat    []float64
		victimOK  int
		victimAll int
	)
	errs := make(chan error, 128)
	submitDone := make(chan struct{}) // closed when every victim finished submitting
	var submitWG, victimWG, floodWG sync.WaitGroup

	// The flooder: its own legitimate campaign first (filling the launch
	// queue behind the victims' slots), then a burst of distinct crafted
	// signatures against the full queue (launch-budget sheds), then
	// sustained recurrence spam at flood× the rate limit (token-bucket
	// sheds) until the victims are done submitting.
	if flood > 0 {
		floodWG.Add(1)
		go func() {
			defer floodWG.Done()
			cli := newClient(flooder, "flood-submit", false)
			if err := cli.Call(ctx, service.PathSubmit, &service.SubmitRequest{
				Tenant: flooder, Bug: opts.Bug, Report: report, Seed: 1, DiscoveryRuns: disc,
			}, nil); err != nil {
				errs <- fmt.Errorf("flooder novel submit: %w", err)
				return
			}
			time.Sleep(50 * time.Millisecond) // let every campaign register

			shot := newClient(flooder, "flood-shots", true)
			offered, admitted, shed := 0, 0, 0
			fire := func(req *service.SubmitRequest) {
				offered++
				err := shot.Call(ctx, service.PathSubmit, req, nil)
				if err == nil {
					admitted++
					return
				}
				var se *service.StatusError
				if errors.As(err, &se) && se.Code == http.StatusTooManyRequests {
					shed++
					return
				}
				// Anything but a 429 is a real failure, not backpressure.
				select {
				case errs <- fmt.Errorf("flood submit: %v", err):
				default:
				}
			}
			for i := 0; i < opts.NovelBurst; i++ {
				// A distinct signature per shot — an extra stack frame
				// feeds the signature hash but not the slice roots — on an
				// otherwise-real report, so a shot that wins an admission
				// race (victim slots turn over fast on a cheap bug) still
				// diagnoses cleanly.
				novel := *report
				novel.Stack = append([]vm.StackEntry{{Fn: "flood", CallSiteID: 900_000 + i}},
					report.Stack...)
				fire(&service.SubmitRequest{
					Tenant: flooder, Bug: opts.Bug, Seed: int64(i), Report: &novel,
				})
			}
			pace := faults.NewFlood(7, flood*opts.TenantRPS, 10)
			for {
				select {
				case <-submitDone:
					mu.Lock()
					mix.FloodOffered = offered
					mix.FloodAdmitted = admitted
					mix.FloodShed = shed
					if offered > 0 {
						mix.FloodShedRate = float64(shed) / float64(offered)
					}
					mu.Unlock()
					return
				case <-ctx.Done():
					return
				default:
				}
				if d := pace.Next(); d > 0 {
					time.Sleep(d)
				}
				fire(&service.SubmitRequest{Tenant: flooder, Bug: opts.Bug, Report: report, Seed: 2})
			}
		}()
	}

	// The victims: one novel report each (with a generous propagated
	// deadline, exercising the deadline plumbing without tripping it),
	// then paced recurrence folds — comfortably inside the rate limit,
	// so any shed here is an isolation failure.
	start := time.Now()
	for v := 0; v < opts.Victims; v++ {
		tenant := fmt.Sprintf("victim-%d", v)
		submitWG.Add(1)
		victimWG.Add(1)
		go func(v int, tenant string) {
			defer victimWG.Done()
			submitted := false
			defer func() {
				if !submitted {
					submitWG.Done()
				}
			}()
			cli := newClient(tenant, "submit", false)
			submit := func(req *service.SubmitRequest) (*service.SubmitResponse, error) {
				var resp service.SubmitResponse
				t0 := time.Now()
				err := cli.Call(ctx, service.PathSubmit, req, &resp)
				d := float64(time.Since(t0).Microseconds()) / 1000
				mu.Lock()
				victimAll++
				if err == nil {
					victimOK++
					admitLat = append(admitLat, d)
				}
				mu.Unlock()
				return &resp, err
			}
			t0 := time.Now()
			first, err := submit(&service.SubmitRequest{
				Tenant: tenant, Bug: opts.Bug, Report: report,
				Seed: int64(v), DiscoveryRuns: disc, DeadlineMs: 120_000,
			})
			if err != nil {
				errs <- fmt.Errorf("%s: novel submit: %w", tenant, err)
				return
			}
			for j := 0; j < opts.FoldsPerVictim; j++ {
				time.Sleep(25 * time.Millisecond)
				resp, err := submit(&service.SubmitRequest{
					Tenant: tenant, Bug: opts.Bug, Report: report, Seed: int64(100 + j),
				})
				if err != nil {
					errs <- fmt.Errorf("%s: fold %d: %w", tenant, j, err)
					return
				}
				if !resp.Duplicate {
					errs <- fmt.Errorf("%s: fold %d launched a second campaign", tenant, j)
					return
				}
			}
			submitted = true
			submitWG.Done()

			if !srv.WaitCampaignSig(tenant, opts.Bug, first.Signature) {
				errs <- fmt.Errorf("%s: campaign vanished", tenant)
				return
			}
			var sk service.SketchResponse
			if err := cli.Call(ctx, service.PathSketch, &service.SketchRequest{
				Tenant: tenant, Bug: opts.Bug, Signature: first.Signature,
			}, &sk); err != nil || !sk.Ready {
				errs <- fmt.Errorf("%s: sketch fetch: ready=%v err=%v", tenant, sk.Ready, err)
				return
			}
			ident := bytes.Equal(sk.Sketch, want)
			mu.Lock()
			e2eLat = append(e2eLat, float64(time.Since(t0).Microseconds())/1000)
			mix.Sketches++
			if !ident {
				mix.Identical = false
			}
			mu.Unlock()
			if !ident {
				errs <- fmt.Errorf("%s: sketch differs from batch diagnosis", tenant)
			}
		}(v, tenant)
	}
	go func() {
		submitWG.Wait()
		mu.Lock()
		elapsed := time.Since(start).Seconds()
		if elapsed > 0 {
			mix.GoodputPerSec = float64(victimOK) / elapsed
		}
		mu.Unlock()
		close(submitDone)
	}()
	victimWG.Wait()
	floodWG.Wait()

	// The flooder's own campaign must finish and match too — it queued
	// behind the victims, so this also proves the launch queue drains.
	if flood > 0 {
		<-submitDone
		if !srv.WaitCampaignSig(flooder, opts.Bug, report.ID()) {
			return nil, fmt.Errorf("flooder campaign vanished")
		}
		cli := newClient(flooder, "flood-fetch", false)
		var sk service.SketchResponse
		sig := report.ID()
		if err := cli.Call(ctx, service.PathSketch, &service.SketchRequest{
			Tenant: flooder, Bug: opts.Bug, Signature: sig,
		}, &sk); err == nil && sk.Ready {
			mix.Sketches++
			if !bytes.Equal(sk.Sketch, want) {
				mix.Identical = false
				errs <- fmt.Errorf("flooder sketch differs from batch diagnosis")
			}
		}
	}

	close(errs)
	for err := range errs {
		return nil, err
	}

	mu.Lock()
	sort.Float64s(admitLat)
	sort.Float64s(e2eLat)
	mix.VictimReports = victimAll
	mix.VictimAdmitted = victimOK
	mix.AdmitP50Ms = stats.Percentile(admitLat, 0.50)
	mix.AdmitP95Ms = stats.Percentile(admitLat, 0.95)
	mix.AdmitP99Ms = stats.Percentile(admitLat, 0.99)
	mix.E2EP50Ms = stats.Percentile(e2eLat, 0.50)
	if n := len(e2eLat); n > 0 {
		mix.E2EMaxMs = e2eLat[n-1]
	}
	mu.Unlock()

	c, _ := srv.Snapshot()
	mix.ShedRateLimited = c.ShedRateLimited
	mix.ShedLaunches = c.ShedLaunches
	mix.HedgedTasks = c.HedgedTasks
	mix.HedgedResults = c.HedgedResults
	mix.DeadlineExpired = c.DeadlineExpired
	mix.MaxQueuedLaunches = srv.Health().MaxQueuedLaunches
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mix.HeapAllocMB = float64(ms.HeapAlloc) / (1 << 20)
	return mix, nil
}

// RenderOverload renders the overload experiment for the terminal.
func RenderOverload(r *OverloadResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Overload: %d victim tenants diagnosing %s, rate limit %g/s, %d in-flight + %d queued launches, hedge after %dms\n\n",
		r.Victims, r.Bug, r.TenantRPS, r.MaxInflight, r.LaunchBudget, r.HedgeAfterMs)
	fmt.Fprintf(&sb, "all admitted sketches byte-identical to batch diagnosis: %v\n\n", r.Identical)
	fmt.Fprintf(&sb, "%-15s %6s %5s %8s %9s %7s %7s %6s %6s %9s %6s\n",
		"mix", "flood", "slow", "goodput", "admit p99", "e2e max", "shed", "rlim", "launch", "hedged", "maxQ")
	for _, m := range r.Mixes {
		fmt.Fprintf(&sb, "%-15s %5.0fx %5v %7.1f/s %7.2fms %5.0fms %6.0f%% %6d %6d %4d/%-4d %6d\n",
			m.Name, m.FloodFactor, m.SlowAgents, m.GoodputPerSec, m.AdmitP99Ms, m.E2EMaxMs,
			m.FloodShedRate*100, m.ShedRateLimited, m.ShedLaunches, m.HedgedTasks, m.HedgedResults, m.MaxQueuedLaunches)
	}
	return sb.String()
}

// ValidateOverloadJSON checks the overload schema: the sweep covers the
// baseline, the 10× flood, and the acceptance mix (10× flood + slow
// agents); every mix is byte-identical with a bounded launch queue;
// flood mixes shed (both gates) without degrading victim p99 past 2×
// the baseline; slow mixes hedge.
func ValidateOverloadJSON(data []byte) error {
	var r OverloadResult
	if err := json.Unmarshal(data, &r); err != nil {
		return fmt.Errorf("bench json: %w", err)
	}
	if r.Experiment != "overload" {
		return fmt.Errorf("bench json: experiment %q, want overload", r.Experiment)
	}
	if !r.Identical {
		return fmt.Errorf("bench json: admitted sketches were not byte-identical to batch diagnoses")
	}
	if r.TenantRPS <= 0 || r.MaxInflight <= 0 || r.LaunchBudget <= 0 {
		return fmt.Errorf("bench json: admission knobs not recorded (rps=%g inflight=%d budget=%d)",
			r.TenantRPS, r.MaxInflight, r.LaunchBudget)
	}
	byName := map[string]*OverloadMix{}
	for i := range r.Mixes {
		byName[r.Mixes[i].Name] = &r.Mixes[i]
	}
	for _, want := range []string{"baseline", "flood-10x", "flood-slow-10x"} {
		if byName[want] == nil {
			return fmt.Errorf("bench json: missing mix %q", want)
		}
	}
	base := byName["baseline"]
	// Floor the baseline at 5ms so a sub-millisecond idle p99 does not
	// turn the 2× isolation bound into noise-chasing.
	baseP99 := base.AdmitP99Ms
	if baseP99 < 5 {
		baseP99 = 5
	}
	for _, m := range r.Mixes {
		if !m.Identical {
			return fmt.Errorf("bench json: mix %s not byte-identical", m.Name)
		}
		if m.Sketches < r.Victims {
			return fmt.Errorf("bench json: mix %s completed %d sketches, want >= %d", m.Name, m.Sketches, r.Victims)
		}
		if m.VictimAdmitted <= 0 || m.GoodputPerSec <= 0 {
			return fmt.Errorf("bench json: mix %s records no victim goodput", m.Name)
		}
		if m.AdmitP50Ms < 0 || m.AdmitP50Ms > m.AdmitP95Ms || m.AdmitP95Ms > m.AdmitP99Ms {
			return fmt.Errorf("bench json: mix %s admit percentiles not monotone: p50=%g p95=%g p99=%g",
				m.Name, m.AdmitP50Ms, m.AdmitP95Ms, m.AdmitP99Ms)
		}
		if m.MaxQueuedLaunches > r.LaunchBudget {
			return fmt.Errorf("bench json: mix %s launch queue peaked at %d, over the %d budget",
				m.Name, m.MaxQueuedLaunches, r.LaunchBudget)
		}
		if m.HeapAllocMB <= 0 || m.HeapAllocMB > 2048 {
			return fmt.Errorf("bench json: mix %s heap %gMB outside (0, 2048]", m.Name, m.HeapAllocMB)
		}
		if m.DeadlineExpired != 0 {
			return fmt.Errorf("bench json: mix %s expired %d deadlines; the generous victim deadline must never trip",
				m.Name, m.DeadlineExpired)
		}
		if m.FloodFactor > 0 {
			if m.FloodShed == 0 || m.ShedRateLimited == 0 {
				return fmt.Errorf("bench json: flood mix %s shed nothing (flood_shed=%d rate_limited=%d)",
					m.Name, m.FloodShed, m.ShedRateLimited)
			}
			if m.ShedLaunches == 0 {
				return fmt.Errorf("bench json: flood mix %s never shed a launch; the novel burst must hit the budget", m.Name)
			}
			if m.AdmitP99Ms > 2*baseP99 {
				return fmt.Errorf("bench json: mix %s victim p99 %.2fms exceeds 2× baseline %.2fms — tenant isolation failed",
					m.Name, m.AdmitP99Ms, baseP99)
			}
		}
		if m.SlowAgents && m.HedgedTasks == 0 {
			return fmt.Errorf("bench json: slow mix %s never hedged a straggler", m.Name)
		}
	}
	return nil
}
