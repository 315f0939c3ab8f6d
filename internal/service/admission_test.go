package service

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestTokenBucketRefillAndRetryAfter(t *testing.T) {
	clk := newFakeClock()
	b := newTokenBucket(2, 2) // 2 tokens/sec, burst 2

	// The bucket starts full: the burst is admitted, the next take is
	// refused with the time until one whole token accrues.
	for i := 0; i < 2; i++ {
		if ok, _ := b.take(clk.Now()); !ok {
			t.Fatalf("take %d refused on a full bucket", i)
		}
	}
	ok, ra := b.take(clk.Now())
	if ok {
		t.Fatal("take on an empty bucket admitted")
	}
	if ra <= 0 || ra > 500*time.Millisecond {
		t.Fatalf("retry-after = %v, want in (0, 500ms] at 2 tokens/sec", ra)
	}

	// After the advertised wait the next take must succeed.
	clk.Advance(ra)
	if ok, _ := b.take(clk.Now()); !ok {
		t.Fatal("take refused after waiting out the advertised Retry-After")
	}

	// Idle refill is capped at the burst: a long quiet spell must not
	// bank an unbounded flood allowance.
	clk.Advance(time.Hour)
	admitted := 0
	for i := 0; i < 10; i++ {
		if ok, _ := b.take(clk.Now()); ok {
			admitted++
		}
	}
	if admitted != 2 {
		t.Fatalf("admitted %d after an idle hour, want burst cap 2", admitted)
	}
}

func TestSubmitShedsOverRateLimit(t *testing.T) {
	clk := newFakeClock()
	s := NewServer(Options{TenantRPS: 1, TenantBurst: 1, Now: clk.Now})
	defer s.Close()
	// Pre-register the signature so every submit is a recurrence fold —
	// the gate under test is the rate limit, not campaign launch.
	s.front.Ingest("acme", "pbzip2", nil, 1)
	s.front.Ingest("beta", "pbzip2", nil, 1)

	resp, err := s.handleSubmit(&SubmitRequest{Tenant: "acme", Bug: "pbzip2"})
	if err != nil || !resp.Duplicate {
		t.Fatalf("first submit = %+v, %v, want folded duplicate", resp, err)
	}

	// The burst is spent; the next submit sheds with 429 + Retry-After.
	_, err = s.handleSubmit(&SubmitRequest{Tenant: "acme", Bug: "pbzip2"})
	he, ok := err.(*httpError)
	if !ok || he.code != http.StatusTooManyRequests {
		t.Fatalf("over-rate submit error = %v, want 429 httpError", err)
	}
	if he.retryAfter <= 0 || he.retryAfter > time.Second {
		t.Fatalf("retry-after = %v, want in (0, 1s] at 1 rps", he.retryAfter)
	}

	// Another tenant's bucket is independent of the flooded one.
	if _, err := s.handleSubmit(&SubmitRequest{Tenant: "beta", Bug: "pbzip2"}); err != nil {
		t.Fatalf("independent tenant shed alongside the flooder: %v", err)
	}

	// Waiting out the hint readmits the flooded tenant.
	clk.Advance(he.retryAfter)
	if _, err := s.handleSubmit(&SubmitRequest{Tenant: "acme", Bug: "pbzip2"}); err != nil {
		t.Fatalf("submit after Retry-After wait: %v", err)
	}

	c, _ := s.Snapshot()
	if c.ShedRateLimited != 1 {
		t.Fatalf("ShedRateLimited = %d, want 1", c.ShedRateLimited)
	}
}

func TestRetryAfterHeadersOnShedResponse(t *testing.T) {
	clk := newFakeClock()
	s := NewServer(Options{TenantRPS: 1, TenantBurst: 1, Now: clk.Now})
	defer s.Close()
	s.front.Ingest("acme", "pbzip2", nil, 1)

	post := func() *httptest.ResponseRecorder {
		body := []byte(`{"tenant":"acme","bug":"pbzip2"}`)
		req := httptest.NewRequest(http.MethodPost, PathSubmit, strings.NewReader(string(body)))
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		return rec
	}
	if rec := post(); rec.Code != http.StatusOK {
		t.Fatalf("first submit = %d: %s", rec.Code, rec.Body)
	}
	rec := post()
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("over-rate submit = %d, want 429: %s", rec.Code, rec.Body)
	}
	// Both the standard (whole-second, rounded up) and the ms-precision
	// extension header must be present.
	if ra := rec.Header().Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("Retry-After header = %q, want >= 1 second", ra)
	}
	if ms := rec.Header().Get(RetryAfterMsHeader); ms == "" || ms == "0" {
		t.Fatalf("%s header = %q, want positive milliseconds", RetryAfterMsHeader, ms)
	}
}

// occupy fabricates campaign occupancy so the launch-budget gate can be
// tested without running real diagnoses.
func occupy(s *Server, inflight, queued int) {
	s.mu.Lock()
	s.inflight = inflight
	s.launchQ = queued
	s.mu.Unlock()
}

func TestLaunchBudgetShedsNovelAdmitsFolds(t *testing.T) {
	clk := newFakeClock()
	s := NewServer(Options{MaxInflight: 1, LaunchBudget: 1, Now: clk.Now})
	defer s.Close()
	s.front.Ingest("acme", "pbzip2", nil, 1) // known signature → folds
	occupy(s, 1, 1)                          // running + parked = at the bound

	// A novel signature would need a launch; at full occupancy it sheds.
	_, err := s.handleSubmit(&SubmitRequest{Tenant: "acme", Bug: "apache-1"})
	he, ok := err.(*httpError)
	if !ok || he.code != http.StatusTooManyRequests {
		t.Fatalf("novel submit at full occupancy = %v, want 429", err)
	}
	if he.retryAfter <= 0 {
		t.Fatalf("launch shed carries no Retry-After: %v", he.retryAfter)
	}

	// The shed probe must be read-only: the signature is still novel,
	// so the tenant's retry (once load drops) launches normally.
	if s.front.Known("acme", "apache-1", nil) {
		t.Fatal("shed submit burned its signature's Novel slot")
	}

	// A recurrence fold is always admitted past the launch gate — it
	// costs no launch.
	resp, err := s.handleSubmit(&SubmitRequest{Tenant: "acme", Bug: "pbzip2"})
	if err != nil || !resp.Duplicate {
		t.Fatalf("fold at full occupancy = %+v, %v, want admitted duplicate", resp, err)
	}

	c, _ := s.Snapshot()
	if c.ShedLaunches != 1 {
		t.Fatalf("ShedLaunches = %d, want 1", c.ShedLaunches)
	}
	occupy(s, 0, 0)
}

func TestHealthEndpointReportsReadiness(t *testing.T) {
	clk := newFakeClock()
	s := NewServer(Options{MaxInflight: 1, LaunchBudget: 1, Now: clk.Now})
	defer s.Close()

	get := func() (int, HealthResponse) {
		req := httptest.NewRequest(http.MethodGet, PathHealth, nil)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		var h HealthResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
			t.Fatalf("decode health: %v: %s", err, rec.Body)
		}
		return rec.Code, h
	}

	code, h := get()
	if code != http.StatusOK || !h.Ready {
		t.Fatalf("idle health = %d ready=%v, want 200 ready", code, h.Ready)
	}

	// Full launch queue → not ready → 503 so a balancer steers away.
	occupy(s, 1, 1)
	code, h = get()
	if code != http.StatusServiceUnavailable || h.Ready {
		t.Fatalf("saturated health = %d ready=%v, want 503 not-ready", code, h.Ready)
	}
	if h.InflightCampaigns != 1 || h.QueuedLaunches != 1 {
		t.Fatalf("health depths = %+v, want 1 inflight, 1 queued", h)
	}
	occupy(s, 0, 0)

	s.BeginDrain()
	code, h = get()
	if code != http.StatusServiceUnavailable || !h.Draining {
		t.Fatalf("draining health = %d draining=%v, want 503 draining", code, h.Draining)
	}
}

// TestHealthCostIndependentOfTraffic: a health probe reads the same
// counters Snapshot reports under the mutex every request takes, so its
// cost may not depend on the traffic recorded so far; Snapshot adds one
// request count per path.
func TestHealthCostIndependentOfTraffic(t *testing.T) {
	s := NewServer(Options{})
	defer s.Close()
	idle := testing.AllocsPerRun(20, func() { s.Health() })
	const requests = 30_000
	for i := 0; i < requests; i++ {
		s.metrics.observe([]string{PathPoll, PathUpload, PathSubmit}[i%3])
	}
	busy := testing.AllocsPerRun(20, func() { s.Health() })
	if busy != idle {
		t.Errorf("Health allocates %.0f times after %d requests, %.0f on an idle server", busy, requests, idle)
	}
	want, rpcs := s.Snapshot()
	if got := s.Health().Counters; got != want || got.Requests != requests {
		t.Errorf("Health counters = %+v, Snapshot counters = %+v", got, want)
	}
	wantRPCs := []RPCStat{{PathPoll, requests / 3}, {PathSubmit, requests / 3}, {PathUpload, requests / 3}}
	sort.Slice(wantRPCs, func(i, j int) bool { return wantRPCs[i].Path < wantRPCs[j].Path })
	if !reflect.DeepEqual(rpcs, wantRPCs) {
		t.Errorf("Snapshot per-path counts = %+v, want %+v", rpcs, wantRPCs)
	}
}

func TestDrainShedsSubmits(t *testing.T) {
	s := NewServer(Options{})
	defer s.Close()
	s.front.Ingest("acme", "pbzip2", nil, 1)

	s.BeginDrain()
	s.BeginDrain() // idempotent
	if !s.Draining() {
		t.Fatal("Draining() false after BeginDrain")
	}
	_, err := s.handleSubmit(&SubmitRequest{Tenant: "acme", Bug: "pbzip2"})
	he, ok := err.(*httpError)
	if !ok || he.code != http.StatusTooManyRequests {
		t.Fatalf("submit while draining = %v, want 429", err)
	}
	drained, idle := s.DrainWait(time.Second)
	if drained != 0 || !idle {
		t.Fatalf("DrainWait = (%d, %v), want (0, true) with no campaigns", drained, idle)
	}
}

func TestDeadlineExpiresQueuedCampaign(t *testing.T) {
	clk := newFakeClock()
	s := NewServer(Options{MaxInflight: 1, LaunchBudget: 2, Now: clk.Now})
	defer s.Close()
	// Fill the only slot so the submitted campaign parks in the launch
	// queue; it must die there when its deadline passes, without ever
	// running.
	s.slotCh <- struct{}{}
	defer func() { <-s.slotCh }()

	resp, err := s.handleSubmit(&SubmitRequest{Tenant: "acme", Bug: "pbzip2", DeadlineMs: 1000})
	if err != nil || resp.Duplicate {
		t.Fatalf("submit = %+v, %v, want novel admission", resp, err)
	}

	clk.Advance(1500 * time.Millisecond)
	s.reapOnce(clk.Now())

	// The abort is delivered to the parked goroutine asynchronously;
	// poll status until it lands (scheduling, not wall-time, bounds it).
	var st *StatusResponse
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		st, err = s.handleStatus(&StatusRequest{Tenant: "acme", Bug: "pbzip2"})
		if err != nil {
			t.Fatalf("status: %v", err)
		}
		if st.State == StateFailed {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if st.State != StateFailed {
		t.Fatalf("queued campaign state = %q after deadline, want %q", st.State, StateFailed)
	}
	if !strings.Contains(st.Err, "deadline") {
		t.Fatalf("failure reason %q does not mention the deadline", st.Err)
	}
	c, _ := s.Snapshot()
	if c.DeadlineExpired == 0 {
		t.Fatal("DeadlineExpired counter never incremented")
	}
}

func TestTaskDeadlineWrittenOffAndWired(t *testing.T) {
	clk := newFakeClock()
	s := NewServer(Options{Now: clk.Now})
	defer s.Close()

	// A task with a live deadline ships the remaining budget to the
	// agent; one with none ships zero.
	tk := enqueueTask(s, "acme", "pbzip2")
	s.mu.Lock()
	tk.deadline = clk.Now().Add(250 * time.Millisecond)
	s.mu.Unlock()
	r, err := s.handlePoll(&PollRequest{Tenant: "acme", Agent: "a1", WaitMs: 100})
	if err != nil || r.Task == nil {
		t.Fatalf("poll = %+v, %v", r, err)
	}
	if r.Task.DeadlineMs <= 0 || r.Task.DeadlineMs > 250 {
		t.Fatalf("wired DeadlineMs = %d, want in (0, 250]", r.Task.DeadlineMs)
	}

	// Past the deadline the reaper writes the task off.
	clk.Advance(300 * time.Millisecond)
	s.reapOnce(clk.Now())
	select {
	case <-tk.doneCh:
	default:
		t.Fatal("past-deadline task not written off")
	}
	s.mu.Lock()
	lost := tk.lost
	s.mu.Unlock()
	if !lost {
		t.Fatal("past-deadline task done but not lost")
	}
	c, _ := s.Snapshot()
	if c.DeadlineExpired != 1 {
		t.Fatalf("DeadlineExpired = %d, want 1", c.DeadlineExpired)
	}

	tk2 := enqueueTask(s, "acme", "pbzip2")
	r, err = s.handlePoll(&PollRequest{Tenant: "acme", Agent: "a1", WaitMs: 100})
	if err != nil || r.Task == nil || r.Task.TaskID != tk2.id {
		t.Fatalf("poll = %+v, %v, want task %d", r, err, tk2.id)
	}
	if r.Task.DeadlineMs != 0 {
		t.Fatalf("deadline-free task wired DeadlineMs = %d, want 0", r.Task.DeadlineMs)
	}
}

func TestHedgedDispatchFirstUploadWins(t *testing.T) {
	clk := newFakeClock()
	s := NewServer(Options{HedgeAfter: 100 * time.Millisecond, MaxTaskAttempts: 3, Now: clk.Now})
	defer s.Close()
	tk := enqueueTask(s, "acme", "pbzip2")

	r1, err := s.handlePoll(&PollRequest{Tenant: "acme", Agent: "a1", WaitMs: 100})
	if err != nil || r1.Task == nil {
		t.Fatalf("first poll = %+v, %v", r1, err)
	}

	// Before the threshold: no hedge.
	clk.Advance(50 * time.Millisecond)
	s.reapOnce(clk.Now())
	if c, _ := s.Snapshot(); c.HedgedTasks != 0 {
		t.Fatalf("hedged before threshold: %d", c.HedgedTasks)
	}

	// Past it: the same task is re-dispatched to a second agent.
	clk.Advance(100 * time.Millisecond)
	s.reapOnce(clk.Now())
	if c, _ := s.Snapshot(); c.HedgedTasks != 1 {
		t.Fatalf("HedgedTasks = %d, want 1", c.HedgedTasks)
	}
	r2, err := s.handlePoll(&PollRequest{Tenant: "acme", Agent: "a2", WaitMs: 100})
	if err != nil || r2.Task == nil {
		t.Fatalf("hedge poll = %+v, %v", r2, err)
	}
	if r2.Task.TaskID != tk.id {
		t.Fatalf("hedge dispatched task %d, want the straggler %d", r2.Task.TaskID, tk.id)
	}

	// A task is hedged at most once.
	clk.Advance(time.Second)
	s.reapOnce(clk.Now())
	if c, _ := s.Snapshot(); c.HedgedTasks != 1 {
		t.Fatalf("task hedged twice: %d", c.HedgedTasks)
	}

	// First valid upload wins via the task-ID idempotency key; the
	// loser's delivery is acknowledged as a duplicate.
	u1, err := s.handleUpload(&UploadRequest{Tenant: "acme", Agent: "a2", TaskID: tk.id, Trace: &WireTrace{Spec: tk.spec}})
	if err != nil || !u1.Accepted || u1.Duplicate {
		t.Fatalf("winning upload = %+v, %v", u1, err)
	}
	u2, err := s.handleUpload(&UploadRequest{Tenant: "acme", Agent: "a1", TaskID: tk.id, Trace: &WireTrace{Spec: tk.spec}})
	if err != nil || !u2.Accepted || !u2.Duplicate {
		t.Fatalf("losing upload = %+v, %v, want accepted duplicate", u2, err)
	}
	c, _ := s.Snapshot()
	if c.HedgedResults != 1 {
		t.Fatalf("HedgedResults = %d, want 1 (exactly one admitted hedge result)", c.HedgedResults)
	}
	if c.Uploads != 1 || c.DuplicateUploads != 1 {
		t.Fatalf("uploads = %d/%d dup, want exactly-once admission", c.Uploads, c.DuplicateUploads)
	}
}

func TestHedgeThresholdTracksP95(t *testing.T) {
	clk := newFakeClock()
	s := NewServer(Options{HedgeAfter: 10 * time.Millisecond, Now: clk.Now})
	defer s.Close()

	s.mu.Lock()
	th := s.hedgeThreshold()
	s.mu.Unlock()
	if th != 10*time.Millisecond {
		t.Fatalf("threshold with no samples = %v, want the HedgeAfter floor", th)
	}

	// Feed 100 run durations around 200ms; the p95 must lift the
	// threshold above the floor.
	for i := 0; i < 100; i++ {
		s.observeRunDuration(time.Duration(150+i) * time.Millisecond)
	}
	s.mu.Lock()
	th = s.hedgeThreshold()
	s.mu.Unlock()
	if th < 200*time.Millisecond || th > 250*time.Millisecond {
		t.Fatalf("threshold = %v, want ≈ p95 of [150ms, 250ms)", th)
	}
}

// ---- client backoff & Retry-After ------------------------------------

// TestClientBackoffJitterWithinSchedule property-tests the retry
// schedule across several identities and attempts: every delay must sit
// within ±50% of the capped exponential base schedule, and the jitter
// stream must be deterministic per (tenant, actor).
func TestClientBackoffJitterWithinSchedule(t *testing.T) {
	const (
		base = 10 * time.Millisecond
		cap_ = 400 * time.Millisecond
	)
	sched := func(n int) time.Duration {
		d := base << (n - 1)
		if d > cap_ || d <= 0 {
			d = cap_
		}
		return d
	}
	for _, id := range []struct{ tenant, actor string }{
		{"acme", "cli"}, {"beta", "agent-1"}, {"", ""}, {"acme", "agent-9"},
	} {
		c := NewClient(ClientOptions{Tenant: id.tenant, Actor: id.actor, BackoffBase: base, BackoffCap: cap_})
		// Replica of the client's jitter stream: same FNV seed, same
		// draw order — the schedule must be exactly reproducible.
		h := fnv.New64a()
		fmt.Fprintf(h, "jitter|%s|%s", id.tenant, id.actor)
		jit := rand.New(rand.NewSource(int64(h.Sum64())))
		for n := 1; n <= 30; n++ {
			d := c.backoff(n)
			lo, hi := sched(n)/2, sched(n)*3/2
			if d < lo || d > hi {
				t.Fatalf("(%q,%q) backoff(%d) = %v outside [%v, %v]", id.tenant, id.actor, n, d, lo, hi)
			}
			want := time.Duration(float64(sched(n)) * (0.5 + jit.Float64()))
			if d != want {
				t.Fatalf("(%q,%q) backoff(%d) = %v, want deterministic %v", id.tenant, id.actor, n, d, want)
			}
		}
	}
}

func TestClient429RetryAfterOverridesBackoffOnce(t *testing.T) {
	hits := 0
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/status", func(w http.ResponseWriter, r *http.Request) {
		hits++
		switch hits {
		case 1:
			// Shed with a precise ms hint; the client must sleep exactly
			// this long before its retry.
			w.Header().Set("Retry-After", "1")
			w.Header().Set(RetryAfterMsHeader, "250")
			writeError(w, http.StatusTooManyRequests, "shed")
		case 2:
			// Shed again with no hint: the computed backoff applies —
			// the earlier hint must not leak into this sleep.
			writeError(w, http.StatusTooManyRequests, "shed again")
		default:
			w.Write([]byte(`{"state":"running"}`))
		}
	})
	var sleeps []time.Duration
	c := NewClient(ClientOptions{
		BaseURL:     "http://gist",
		Tenant:      "acme",
		Actor:       "cli",
		BackoffBase: 10 * time.Millisecond,
		BackoffCap:  80 * time.Millisecond,
		Transport:   LoopbackTransport{Handler: mux},
		Sleep:       func(d time.Duration) { sleeps = append(sleeps, d) },
	})
	var resp StatusResponse
	if err := c.Call(context.Background(), PathStatus, &StatusRequest{Tenant: "acme", Bug: "x"}, &resp); err != nil {
		t.Fatalf("call through 429s: %v", err)
	}
	if hits != 3 {
		t.Fatalf("hits = %d, want 3 (two sheds then success)", hits)
	}
	if len(sleeps) != 2 {
		t.Fatalf("sleeps = %v, want exactly 2", sleeps)
	}
	if sleeps[0] != 250*time.Millisecond {
		t.Fatalf("first sleep = %v, want the server's 250ms hint (ms header over seconds header)", sleeps[0])
	}
	// Attempt 2's base schedule is 20ms; with ±50% jitter the sleep is
	// in [10ms, 30ms] — far from 250ms, so a leaked hint would be loud.
	if sleeps[1] < 10*time.Millisecond || sleeps[1] > 30*time.Millisecond {
		t.Fatalf("second sleep = %v, want computed backoff in [10ms, 30ms], not a stale hint", sleeps[1])
	}
}

func TestParseRetryAfter(t *testing.T) {
	mk := func(std, ms string) http.Header {
		h := http.Header{}
		if std != "" {
			h.Set("Retry-After", std)
		}
		if ms != "" {
			h.Set(RetryAfterMsHeader, ms)
		}
		return h
	}
	cases := []struct {
		std, ms string
		want    time.Duration
	}{
		{"", "", 0},
		{"2", "", 2 * time.Second},
		{"1", "250", 250 * time.Millisecond}, // ms precision wins
		{"", "40", 40 * time.Millisecond},
		{"garbage", "", 0},
		{"-1", "", 0},
		{"1", "junk", time.Second}, // bad ms header falls back to seconds
	}
	for _, tc := range cases {
		if got := parseRetryAfter(mk(tc.std, tc.ms)); got != tc.want {
			t.Fatalf("parseRetryAfter(std=%q, ms=%q) = %v, want %v", tc.std, tc.ms, got, tc.want)
		}
	}
}
