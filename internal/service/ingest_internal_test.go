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
// capped at 100 retained keys and check (a) memory stays bounded, (b)
// every task admits exactly once, (c) a live task is never evicted no
// matter how much completed churn surrounds it.
func TestDoneTaskEviction(t *testing.T) {
	const (
		churn  = 10_000
		keyCap = 100
	)
	s := NewServer(Options{MaxDoneTasks: keyCap, DoneTaskTTL: time.Hour})
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
		s.mu.Lock()
		s.evictDoneTasks(time.Now())
		s.mu.Unlock()
	}

	s.mu.Lock()
	retainedDone := len(s.doneTasks)
	total := len(s.tasks)
	_, liveRetained := s.tasks[live.id]
	_, firstStillPresent := s.tasks[firstEvicted.id]
	s.mu.Unlock()
	if retainedDone > keyCap {
		t.Errorf("retained %d done keys, cap is %d", retainedDone, keyCap)
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
// policy: keys older than DoneTaskTTL go even when the size cap has
// room.
func TestDoneTaskTTLEviction(t *testing.T) {
	s := NewServer(Options{DoneTaskTTL: 10 * time.Millisecond})
	defer s.Close()
	tk := enqueueTask(s, "acme", "pbzip2")
	if _, err := s.handleUpload(&UploadRequest{Tenant: "acme", Agent: "a", TaskID: tk.id, Trace: &WireTrace{Spec: tk.spec}}); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	s.evictDoneTasks(time.Now().Add(time.Second)) // well past the TTL
	_, present := s.tasks[tk.id]
	s.mu.Unlock()
	if present {
		t.Fatal("expired key not evicted")
	}
}
