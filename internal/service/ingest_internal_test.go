package service

import (
	"testing"
	"time"

	"repro/internal/bugs"
	"repro/internal/core"
)

// TestSubmitSignatureDedup is the regression test for the (tenant, bug)
// dedup bug: two distinct failure signatures submitted under one bug
// name used to collapse into one campaign, so the second root cause was
// never diagnosed. With signature-keyed ingestion each signature gets
// its own campaign, while true recurrences still fold.
func TestSubmitSignatureDedup(t *testing.T) {
	b := bugs.ByName("pbzip2")
	if b == nil {
		t.Fatal("pbzip2 not registered")
	}
	reportA, disc, err := core.FirstFailure(b.GistConfig())
	if err != nil {
		t.Fatalf("discover failure: %v", err)
	}

	s := NewServer(Options{LeaseTTL: 100 * time.Millisecond, PollTimeout: 50 * time.Millisecond})
	defer s.Close()

	sub := func(req *SubmitRequest) *SubmitResponse {
		t.Helper()
		resp, err := s.handleSubmit(req)
		if err != nil {
			t.Fatalf("submit %+v: %v", req, err)
		}
		return resp
	}

	r1 := sub(&SubmitRequest{Tenant: "acme", Bug: "pbzip2", Report: reportA, Seed: 1, DiscoveryRuns: disc})
	if r1.Duplicate || r1.Signature != reportA.ID() || r1.Reports != 1 {
		t.Fatalf("first report: %+v", r1)
	}

	// The same failure again: folded, not relaunched.
	r2 := sub(&SubmitRequest{Tenant: "acme", Bug: "pbzip2", Report: reportA, Seed: 2, DiscoveryRuns: disc})
	if !r2.Duplicate || r2.Reports != 2 || r2.Signature != r1.Signature {
		t.Fatalf("recurrence: %+v", r2)
	}

	// A different root cause filed under the same bug name: its blocked
	// partner set differs, so its signature differs, so it must get its
	// own campaign — this is exactly what the old dedup swallowed.
	reportB := *reportA
	reportB.OtherPCs = append(append([]int(nil), reportA.OtherPCs...), reportA.InstrID)
	if reportB.ID() == reportA.ID() {
		t.Fatal("mutated report has the same signature; test is vacuous")
	}
	r3 := sub(&SubmitRequest{Tenant: "acme", Bug: "pbzip2", Report: &reportB, Seed: 3, DiscoveryRuns: disc})
	if r3.Duplicate {
		t.Fatalf("distinct signature treated as duplicate: %+v", r3)
	}
	if r3.Signature != reportB.ID() {
		t.Fatalf("signature = %q, want %q", r3.Signature, reportB.ID())
	}

	// Both campaigns exist and are addressable by signature.
	for _, sig := range []string{reportA.ID(), reportB.ID()} {
		st, err := s.handleStatus(&StatusRequest{Tenant: "acme", Bug: "pbzip2", Signature: sig})
		if err != nil {
			t.Fatalf("status %s: %v", sig, err)
		}
		if st.State == StateUnknown {
			t.Errorf("campaign for signature %s does not exist", sig)
		}
	}

	c, _ := s.Snapshot()
	if c.NovelSignatures != 2 || c.FoldedReports != 1 {
		t.Fatalf("counters: novel=%d folded=%d, want 2/1", c.NovelSignatures, c.FoldedReports)
	}
}

// TestDoneTaskEviction is the regression test for unbounded
// idempotency-key growth: churn 10k completed tasks through a server
// whose fake clock moves a millisecond per task, so the retention TTL
// (doneTaskLeases lease TTLs, 100ms here) keeps about 100 keys, and
// check (a) memory stays bounded, (b) every task admits exactly once,
// (c) a live task is never evicted no matter how much completed churn
// surrounds it.
func TestDoneTaskEviction(t *testing.T) {
	const (
		churn  = 10_000
		lease  = 25 * time.Millisecond
		tick   = time.Millisecond
		keyCap = int(doneTaskLeases*lease/tick) + 1
	)
	clk := newFakeClock()
	s := NewServer(Options{LeaseTTL: lease, Now: clk.Now})
	defer s.Close()

	// A live task that must survive the whole churn.
	live := enqueueTask(s, "acme", "pbzip2")

	var firstEvicted *task
	for i := 0; i < churn; i++ {
		tk := enqueueTask(s, "acme", "pbzip2")
		if firstEvicted == nil {
			firstEvicted = tk
		}
		resp, err := s.handleUpload(&UploadRequest{Tenant: "acme", Agent: "a", TaskID: tk.id, Trace: &WireTrace{Spec: tk.spec}})
		if err != nil || !resp.Accepted || resp.Duplicate {
			t.Fatalf("upload %d: %+v, %v", i, resp, err)
		}
		// Exactly-once: an immediate retry is a duplicate, not a
		// readmission.
		resp, err = s.handleUpload(&UploadRequest{Tenant: "acme", Agent: "a", TaskID: tk.id, Trace: &WireTrace{Spec: tk.spec}})
		if err != nil || !resp.Duplicate {
			t.Fatalf("retry %d not deduped: %+v, %v", i, resp, err)
		}
		// Evict deterministically instead of waiting on the reaper tick.
		clk.Advance(tick)
		s.mu.Lock()
		s.evictDoneTasks(clk.Now())
		s.mu.Unlock()
	}

	s.mu.Lock()
	retainedDone := len(s.doneTasks)
	total := len(s.tasks)
	_, liveRetained := s.tasks[live.id]
	_, firstStillPresent := s.tasks[firstEvicted.id]
	s.mu.Unlock()
	if retainedDone > keyCap {
		t.Errorf("retained %d done keys, the TTL allows %d", retainedDone, keyCap)
	}
	if total > keyCap+1 {
		t.Errorf("task table holds %d entries after churn, want <= cap+1", total)
	}
	if !liveRetained {
		t.Fatal("live task was evicted")
	}
	if firstStillPresent {
		t.Error("oldest churned key survived a full churn cycle")
	}

	// An upload for an evicted key is acknowledged as a duplicate —
	// never readmitted.
	resp, err := s.handleUpload(&UploadRequest{Tenant: "acme", Agent: "a", TaskID: firstEvicted.id, Trace: &WireTrace{Spec: firstEvicted.spec}})
	if err != nil || !resp.Duplicate {
		t.Fatalf("evicted-key upload: %+v, %v", resp, err)
	}

	// The live task still admits exactly once after all that churn.
	resp, err = s.handleUpload(&UploadRequest{Tenant: "acme", Agent: "a", TaskID: live.id, Trace: &WireTrace{Spec: live.spec}})
	if err != nil || !resp.Accepted || resp.Duplicate {
		t.Fatalf("live upload: %+v, %v", resp, err)
	}

	c, _ := s.Snapshot()
	if c.Uploads != churn+1 {
		t.Errorf("Uploads = %d, want %d (exactly-once admission)", c.Uploads, churn+1)
	}
	if c.EvictedTasks == 0 {
		t.Error("no keys were ever evicted")
	}
}

// TestDoneTaskTTLEviction pins the time-based half of the eviction
// policy: a key goes once it is older than doneTaskLeases lease TTLs,
// even when the size cap has room, and not a moment before.
func TestDoneTaskTTLEviction(t *testing.T) {
	clk := newFakeClock()
	s := NewServer(Options{Now: clk.Now})
	defer s.Close()
	tk := enqueueTask(s, "acme", "pbzip2")
	if _, err := s.handleUpload(&UploadRequest{Tenant: "acme", Agent: "a", TaskID: tk.id, Trace: &WireTrace{Spec: tk.spec}}); err != nil {
		t.Fatal(err)
	}
	present := func(at time.Time) bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.evictDoneTasks(at)
		_, ok := s.tasks[tk.id]
		return ok
	}
	ttl := doneTaskLeases * s.opts.LeaseTTL
	if !present(clk.Now().Add(ttl)) {
		t.Fatal("key evicted at exactly the TTL")
	}
	if present(clk.Now().Add(ttl + time.Millisecond)) {
		t.Fatal("expired key not evicted")
	}
}

// TestDoneTaskSizeCap pins the size half of the eviction policy: with
// the clock frozen, nothing is past the TTL, and one key over
// maxDoneTasks evicts exactly the oldest completion.
func TestDoneTaskSizeCap(t *testing.T) {
	clk := newFakeClock()
	s := NewServer(Options{Now: clk.Now})
	defer s.Close()
	s.mu.Lock()
	defer s.mu.Unlock()
	done := make([]*task, maxDoneTasks+1)
	for i := range done {
		s.nextTask++
		done[i] = &task{id: s.nextTask, doneCh: make(chan struct{})}
		s.tasks[done[i].id] = done[i]
		s.markDone(done[i])
	}
	s.evictDoneTasks(clk.Now())
	if len(s.doneTasks) != maxDoneTasks {
		t.Fatalf("retained %d done keys, want the cap %d", len(s.doneTasks), maxDoneTasks)
	}
	if _, ok := s.tasks[done[0].id]; ok {
		t.Error("the oldest completion survived the size cap")
	}
	if _, ok := s.tasks[done[1].id]; !ok {
		t.Error("the size cap evicted more than the oldest completion")
	}
}
