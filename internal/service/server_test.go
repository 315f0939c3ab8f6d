package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
)

// enqueueTask fabricates one queued task so the handlers can be tested
// without driving a whole campaign.
func enqueueTask(s *Server, tenant, bug string) *task {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.tenant(tenant)
	s.nextTask++
	tk := &task{
		id:     s.nextTask,
		tenant: tenant,
		bug:    bug,
		window: []int{1, 2, 3},
		spec:   core.RunSpec{Seed: 42, EndpointID: 7},
		queued: s.now(),
		doneCh: make(chan struct{}),
	}
	s.tasks[tk.id] = tk
	s.dispatch(t, tk)
	return tk
}

// fakeClock is a hand-advanced clock injected via Options.Now so lease
// and reaper tests drive s.reapOnce directly instead of sleeping
// through wall time.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestUploadIdempotency(t *testing.T) {
	s := NewServer(Options{})
	defer s.Close()
	tk := enqueueTask(s, "acme", "pbzip2")

	// A predecessor server's task with the same ID was another run: a
	// trace whose seed (or endpoint) is not the task's admits nothing.
	for _, spec := range []core.RunSpec{{Seed: tk.spec.Seed + 1, EndpointID: tk.spec.EndpointID}, {Seed: tk.spec.Seed, EndpointID: tk.spec.EndpointID + 1}} {
		resp, err := s.handleUpload(&UploadRequest{Tenant: "acme", Agent: "a0", TaskID: tk.id, Trace: &WireTrace{Spec: spec}})
		if err != nil || resp.Accepted || !resp.Duplicate || tk.done || tk.trace != nil {
			t.Fatalf("upload of run %+v to the task of run %+v = %+v, %v (task done=%v); want an unaccepted duplicate and the task pending",
				spec, tk.spec, resp, err, tk.done)
		}
	}

	up := &UploadRequest{Tenant: "acme", Agent: "a1", TaskID: tk.id, Trace: &WireTrace{Spec: tk.spec}}
	resp, err := s.handleUpload(up)
	if err != nil {
		t.Fatalf("first upload: %v", err)
	}
	if !resp.Accepted || resp.Duplicate {
		t.Fatalf("first upload = %+v, want accepted non-duplicate", resp)
	}
	select {
	case <-tk.doneCh:
	default:
		t.Fatal("task not marked done after upload")
	}

	// A retried delivery of the same task must admit exactly once.
	resp, err = s.handleUpload(up)
	if err != nil {
		t.Fatalf("retried upload: %v", err)
	}
	if !resp.Accepted || !resp.Duplicate {
		t.Fatalf("retried upload = %+v, want accepted duplicate", resp)
	}

	// An upload for a task the server never issued is acknowledged as a
	// duplicate so the agent moves on.
	resp, err = s.handleUpload(&UploadRequest{Tenant: "acme", Agent: "a1", TaskID: 9999, Crashed: true})
	if err != nil {
		t.Fatalf("unknown-task upload: %v", err)
	}
	if !resp.Duplicate {
		t.Fatalf("unknown-task upload = %+v, want duplicate", resp)
	}

	c, _ := s.Snapshot()
	if c.Uploads != 1 || c.DuplicateUploads != 4 {
		t.Fatalf("counters = %+v, want 1 upload and 4 duplicates", c)
	}
}

func TestUploadRequiresTraceOrCrashMarker(t *testing.T) {
	s := NewServer(Options{})
	defer s.Close()
	tk := enqueueTask(s, "acme", "pbzip2")
	_, err := s.handleUpload(&UploadRequest{Tenant: "acme", TaskID: tk.id})
	if err == nil {
		t.Fatal("upload with neither trace nor crash marker was accepted")
	}
}

// TestMixedVersionUploadRefused: an agent that still uploads decoded
// flow under "trace" carries nothing this server reads, so the upload
// is answered 400 — which the client does not retry — and admits
// nothing; the task stays with the lease reaper. A current agent's body
// carries no "trace" key, so a server that reads one refuses it too.
func TestMixedVersionUploadRefused(t *testing.T) {
	s := NewServer(Options{})
	defer s.Close()
	tk := enqueueTask(s, "acme", "pbzip2")

	body := []byte(fmt.Sprintf(`{"tenant":"acme","agent":"a0","task_id":%d,`+
		`"trace":{"spec":{"EndpointID":%d,"Seed":%d},"flow":{"0":[1,2,3]},"base_mc":10,"extra_mc":0}}`,
		tk.id, tk.spec.EndpointID, tk.spec.Seed))
	req := httptest.NewRequest(http.MethodPost, PathUpload, bytes.NewReader(body))
	req.Header.Set(ChecksumHeader, bodyChecksum(body))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "neither a trace nor a crash marker") {
		t.Fatalf("old-shape upload got %d %s, want 400 naming the missing trace", rec.Code, rec.Body)
	}
	c, _ := s.Snapshot()
	s.mu.Lock()
	done, trace := tk.done, tk.trace
	s.mu.Unlock()
	if done || trace != nil || c.Uploads != 0 || c.DuplicateUploads != 0 {
		t.Fatalf("old-shape upload admitted something: done=%v trace=%v counters=%+v", done, trace != nil, c)
	}

	cur, err := json.Marshal(&UploadRequest{Tenant: "acme", Agent: "a0", TaskID: tk.id, Trace: &WireTrace{Spec: tk.spec}})
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(cur, &keys); err != nil {
		t.Fatal(err)
	}
	if _, ok := keys["trace"]; ok {
		t.Fatalf("current upload %s carries the old trace key", cur)
	}
}

func TestChecksumMismatchRejectedBeforeDecode(t *testing.T) {
	s := NewServer(Options{})
	defer s.Close()

	body := []byte(`{"tenant":"acme","bug":"pbzip2"}`)
	req := httptest.NewRequest(http.MethodPost, PathStatus, bytes.NewReader(body))
	req.Header.Set(ChecksumHeader, "12345") // wrong on purpose
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("corrupted body got %d, want 400", rec.Code)
	}
	c, _ := s.Snapshot()
	if c.BadChecksum != 1 {
		t.Fatalf("BadChecksum = %d, want 1", c.BadChecksum)
	}

	// The same body with the right checksum decodes fine.
	req = httptest.NewRequest(http.MethodPost, PathStatus, bytes.NewReader(body))
	req.Header.Set(ChecksumHeader, bodyChecksum(body))
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("clean body got %d, want 200: %s", rec.Code, rec.Body)
	}
}

// TestRequestBodyCap: a body one byte over maxBodyBytes is answered 413
// with an ErrorResponse and changes nothing, although it is a well-formed,
// correctly checksummed upload the server would otherwise admit; so it is
// when its Content-Length lies low or is unknown (-1). The same upload at
// exactly the cap goes through, whatever length it declares: the
// declared length only sizes the server's read buffer.
func TestRequestBodyCap(t *testing.T) {
	s := NewServer(Options{})
	defer s.Close()
	tk := enqueueTask(s, "acme", "pbzip2")
	post := func(size int, declared int64) *http.Response {
		t.Helper()
		head := fmt.Sprintf(`{"tenant":"acme","agent":"a1","task_id":%d,"crashed":true,"pad":"`, tk.id)
		body := append([]byte(head), bytes.Repeat([]byte{'x'}, size-len(head)-2)...)
		body = append(body, `"}`...)
		req := httptest.NewRequest(http.MethodPost, PathUpload, bytes.NewReader(body))
		req.ContentLength = declared
		req.Header.Set(ChecksumHeader, bodyChecksum(body))
		resp, err := LoopbackTransport{Handler: s.Handler()}.RoundTrip(req)
		if err != nil {
			t.Fatalf("round trip: %v", err)
		}
		return resp
	}

	for _, declared := range []int64{maxBodyBytes + 1, 100, -1} {
		resp := post(maxBodyBytes+1, declared)
		var er ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&er); err != nil || er.Err == "" {
			t.Errorf("oversized body declaring %d: reply is not an ErrorResponse (err=%v, %+v)", declared, err, er)
		}
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("oversized body declaring %d got %d, want 413", declared, resp.StatusCode)
		}
		s.mu.Lock()
		done, campaigns, tasks := tk.done, len(s.tenants["acme"].campaigns), len(s.tasks)
		s.mu.Unlock()
		if c, _ := s.Snapshot(); done || campaigns != 0 || tasks != 1 || c.Uploads != 0 || c.BadChecksum != 0 {
			t.Fatalf("oversized body declaring %d changed state: task done=%v, %d campaigns, %d tasks, counters %+v", declared, done, campaigns, tasks, c)
		}
	}

	// Honest, then lying high and low; the later deliveries are duplicates.
	for _, declared := range []int64{maxBodyBytes, maxBodyBytes + 1, 100} {
		if resp := post(maxBodyBytes, declared); resp.StatusCode != http.StatusOK {
			t.Fatalf("body at the cap declaring %d got %d, want 200", declared, resp.StatusCode)
		}
	}
	select {
	case <-tk.doneCh:
	default:
		t.Fatal("upload at the cap did not complete the task")
	}
}

func TestPollTimesOutEmpty(t *testing.T) {
	s := NewServer(Options{PollTimeout: 50 * time.Millisecond})
	defer s.Close()
	start := time.Now()
	resp, err := s.handlePoll(&PollRequest{Tenant: "acme", Agent: "a1", WaitMs: 20})
	if err != nil {
		t.Fatalf("poll: %v", err)
	}
	if resp.Task != nil {
		t.Fatalf("poll on empty queue returned task %+v", resp.Task)
	}
	if time.Since(start) > time.Second {
		t.Fatal("empty poll blocked far past its wait")
	}
}

func TestPollDeliversQueuedTask(t *testing.T) {
	s := NewServer(Options{})
	defer s.Close()
	tk := enqueueTask(s, "acme", "pbzip2")
	resp, err := s.handlePoll(&PollRequest{Tenant: "acme", Agent: "a1", WaitMs: 100})
	if err != nil {
		t.Fatalf("poll: %v", err)
	}
	if resp.Task == nil || resp.Task.TaskID != tk.id {
		t.Fatalf("poll = %+v, want task %d", resp.Task, tk.id)
	}
	if resp.Task.Spec.Seed != 42 || resp.Task.Spec.EndpointID != 7 {
		t.Fatalf("task spec = %+v did not survive the wire", resp.Task.Spec)
	}
	if resp.Task.Attempt != 1 {
		t.Fatalf("attempt = %d, want 1 on first lease", resp.Task.Attempt)
	}
}

func TestLeaseExpiryReassignsTask(t *testing.T) {
	clk := newFakeClock()
	s := NewServer(Options{LeaseTTL: 40 * time.Millisecond, Now: clk.Now})
	defer s.Close()
	tk := enqueueTask(s, "acme", "pbzip2")

	// Agent a1 takes the task and vanishes.
	resp, err := s.handlePoll(&PollRequest{Tenant: "acme", Agent: "a1", WaitMs: 100})
	if err != nil || resp.Task == nil {
		t.Fatalf("first poll = %+v, %v", resp, err)
	}

	// Step the clock past the lease and run one reaper sweep: the task
	// requeues and a2 picks it up — no wall-clock waiting.
	clk.Advance(50 * time.Millisecond)
	s.reapOnce(clk.Now())
	got, err := s.handlePoll(&PollRequest{Tenant: "acme", Agent: "a2", WaitMs: 100})
	if err != nil {
		t.Fatalf("poll: %v", err)
	}
	if got.Task == nil || got.Task.TaskID != tk.id {
		t.Fatalf("reassigned poll = %+v, want task %d", got.Task, tk.id)
	}
	if got.Task.Attempt != 2 {
		t.Fatalf("reassigned attempt = %d, want 2", got.Task.Attempt)
	}
	c, _ := s.Snapshot()
	if c.Reassigned == 0 {
		t.Fatal("Reassigned counter never incremented")
	}

	// The reassigned agent's upload completes the task normally.
	ur, err := s.handleUpload(&UploadRequest{Tenant: "acme", Agent: "a2", TaskID: tk.id, Trace: &WireTrace{Spec: tk.spec}})
	if err != nil || !ur.Accepted || ur.Duplicate {
		t.Fatalf("upload after reassignment = %+v, %v", ur, err)
	}
}

func TestTaskLostAfterAttemptBudget(t *testing.T) {
	clk := newFakeClock()
	s := NewServer(Options{LeaseTTL: 30 * time.Millisecond, Now: clk.Now})
	defer s.Close()
	tk := enqueueTask(s, "acme", "pbzip2")
	// Every allowed attempt is leased and expires; the sweep after the
	// last one writes the task off.
	for attempt := 1; attempt <= maxTaskAttempts; attempt++ {
		select {
		case <-tk.doneCh:
			t.Fatalf("task written off after %d of %d attempts", attempt-1, maxTaskAttempts)
		default:
		}
		agent := fmt.Sprintf("a%d", attempt)
		if r, err := s.handlePoll(&PollRequest{Tenant: "acme", Agent: agent, WaitMs: 100}); err != nil || r.Task == nil || r.Task.Attempt != attempt {
			t.Fatalf("poll %d = %+v, %v", attempt, r, err)
		}
		clk.Advance(40 * time.Millisecond)
		s.reapOnce(clk.Now())
	}
	select {
	case <-tk.doneCh:
	default:
		t.Fatal("task not written off after its last lease expired")
	}
	s.mu.Lock()
	lost := tk.lost
	s.mu.Unlock()
	if !lost {
		t.Fatal("task done but not marked lost")
	}
	c, _ := s.Snapshot()
	if c.LostTasks != 1 {
		t.Fatalf("LostTasks = %d, want 1", c.LostTasks)
	}
}

func TestHeartbeatExtendsLease(t *testing.T) {
	clk := newFakeClock()
	s := NewServer(Options{LeaseTTL: 60 * time.Millisecond, Now: clk.Now})
	defer s.Close()
	tk := enqueueTask(s, "acme", "pbzip2")
	if r, err := s.handlePoll(&PollRequest{Tenant: "acme", Agent: "a1", WaitMs: 100}); err != nil || r.Task == nil {
		t.Fatalf("poll = %+v, %v", r, err)
	}
	// Heartbeat across 5 lease lifetimes of fake time, sweeping the
	// reaper at every step; the task must stay leased to a1.
	for i := 0; i < 15; i++ {
		if _, err := s.handleHeartbeat(&HeartbeatRequest{Tenant: "acme", Agent: "a1"}); err != nil {
			t.Fatalf("heartbeat: %v", err)
		}
		clk.Advance(20 * time.Millisecond)
		s.reapOnce(clk.Now())
	}
	s.mu.Lock()
	agent, attempt := tk.agent, tk.attempt
	s.mu.Unlock()
	if agent != "a1" || attempt != 1 {
		t.Fatalf("task after heartbeats: agent=%q attempt=%d, want still leased to a1 on attempt 1", agent, attempt)
	}
}

// TestFleetVanishesDegradesGracefully submits a campaign with no agents
// at all: every dispatched run is written off once it has sat
// noAgentLeases lease TTLs with no live agent, and the campaign must
// degrade (low-confidence sketch or clean failure), never hang. The
// fake clock steps past that timeout once per batch, so the only wall
// time spent is the campaign's own bookkeeping.
func TestFleetVanishesDegradesGracefully(t *testing.T) {
	const lease = 100 * time.Millisecond
	const noAgent = noAgentLeases * lease
	clk := newFakeClock()
	s := NewServer(Options{LeaseTTL: lease, Now: clk.Now})
	defer s.Close()
	if _, err := s.handleSubmit(&SubmitRequest{Tenant: "ghost", Bug: "pbzip2"}); err != nil {
		t.Fatalf("submit: %v", err)
	}
	done := make(chan struct{})
	go func() {
		s.WaitCampaignSig("ghost", "pbzip2", "")
		close(done)
	}()
	hang := time.After(time.Minute)
	for waiting := true; waiting; {
		clk.Advance(noAgent + time.Millisecond)
		s.reapOnce(clk.Now())
		select {
		case <-done:
			waiting = false
		case <-hang:
			t.Fatal("campaign with no agents hung instead of degrading")
		case <-time.After(200 * time.Microsecond): // let the campaign issue its next batch
		}
	}
	st, err := s.handleStatus(&StatusRequest{Tenant: "ghost", Bug: "pbzip2"})
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	switch st.State {
	case StateDone:
		if !st.LowConfidence {
			t.Error("campaign finished full-confidence with zero agents — quorum accounting is broken")
		}
	case StateFailed:
		// A clean failure is acceptable degradation; a hang is not.
	default:
		t.Fatalf("campaign state = %q after fleet vanished", st.State)
	}
	if c, _ := s.Snapshot(); c.LostTasks == 0 {
		t.Error("no tasks were written off despite an empty fleet")
	}
}

func TestSubmitUnknownBugRejected(t *testing.T) {
	s := NewServer(Options{})
	defer s.Close()
	_, err := s.handleSubmit(&SubmitRequest{Tenant: "acme", Bug: "no-such-bug"})
	if err == nil {
		t.Fatal("submit of unknown bug was accepted")
	}
	if !strings.Contains(err.Error(), "no-such-bug") {
		t.Fatalf("error %q does not name the bug", err)
	}
}

func TestClientRetriesTransientServerErrors(t *testing.T) {
	hits := 0
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/status", func(w http.ResponseWriter, r *http.Request) {
		hits++
		if hits < 3 {
			writeError(w, http.StatusServiceUnavailable, "warming up")
			return
		}
		w.Write([]byte(`{"state":"running"}`))
	})
	c := NewClient(ClientOptions{
		BaseURL:   "http://gist",
		Tenant:    "acme",
		Actor:     "cli",
		Transport: LoopbackTransport{Handler: mux},
		Sleep:     func(time.Duration) {},
	})
	var resp StatusResponse
	if err := c.Call(context.Background(), PathStatus, &StatusRequest{Tenant: "acme", Bug: "x"}, &resp); err != nil {
		t.Fatalf("call: %v", err)
	}
	if hits != 3 {
		t.Fatalf("hits = %d, want 3 (two 503s then success)", hits)
	}
	if resp.State != "running" {
		t.Fatalf("state = %q", resp.State)
	}
}

func TestClientDoesNotRetryDefinitiveRejections(t *testing.T) {
	hits := 0
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/status", func(w http.ResponseWriter, r *http.Request) {
		hits++
		writeError(w, http.StatusBadRequest, "no")
	})
	c := NewClient(ClientOptions{
		BaseURL:   "http://gist",
		Transport: LoopbackTransport{Handler: mux},
		Sleep:     func(time.Duration) {},
	})
	err := c.Call(context.Background(), PathStatus, &StatusRequest{}, nil)
	if err == nil {
		t.Fatal("400 did not surface as an error")
	}
	if hits != 1 {
		t.Fatalf("hits = %d, want 1 (no retry on a definitive 400)", hits)
	}
}

// TestClientCorruptionRejectedThenRetried pins the corrupt-body story
// end to end: find a seed whose first attempt draws a Corrupt decision,
// then watch the server reject the damaged body on checksum and the
// clean retry succeed.
func TestClientCorruptionRejectedThenRetried(t *testing.T) {
	reqKey := PathStatus + "#1"
	seed := int64(-1)
	for cand := int64(1); cand < 4096; cand++ {
		inj := faults.NewInjector(faults.Config{Seed: cand, TransportRate: 0.9})
		if inj.ForRequest("acme", "cli", reqKey, 0).Kind == faults.TransportCorrupt &&
			inj.ForRequest("acme", "cli", reqKey, 1).Kind == faults.TransportNone {
			seed = cand
			break
		}
	}
	if seed < 0 {
		t.Fatal("no seed with (corrupt, clean) attempts in range — fault stream changed?")
	}

	s := NewServer(Options{})
	defer s.Close()
	c := NewClient(ClientOptions{
		BaseURL:   "http://gist",
		Tenant:    "acme",
		Actor:     "cli",
		Faults:    faults.Config{Seed: seed, TransportRate: 0.9},
		Transport: LoopbackTransport{Handler: s.Handler()},
		Sleep:     func(time.Duration) {},
	})
	var resp StatusResponse
	if err := c.Call(context.Background(), PathStatus, &StatusRequest{Tenant: "acme", Bug: "x"}, &resp); err != nil {
		t.Fatalf("call through corruption: %v", err)
	}
	if resp.State != StateUnknown {
		t.Fatalf("state = %q, want %q", resp.State, StateUnknown)
	}
	counters, _ := s.Snapshot()
	if counters.BadChecksum == 0 {
		t.Fatal("server never saw the corrupted body")
	}
}

func TestClientBackoffCappedWithJitter(t *testing.T) {
	c := NewClient(ClientOptions{})
	for n := 1; n < 20; n++ {
		d := c.backoff(n)
		if d <= 0 {
			t.Fatalf("backoff(%d) = %v, want positive", n, d)
		}
		if d > backoffCap*3/2 { // cap × 1.5 jitter ceiling
			t.Fatalf("backoff(%d) = %v exceeds jittered cap", n, d)
		}
	}
	// Early attempts must be shorter than the cap on average.
	if d := c.backoff(1); d > backoffBase*3/2 {
		t.Fatalf("backoff(1) = %v, want ≈ base", d)
	}
}
