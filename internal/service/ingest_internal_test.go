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

// TestSettledTasksLeaveTheTable: churn settled tasks past one that
// stays live, and check that the task table holds only the live one,
// that every retry of a settled task is an accepted duplicate that
// admits nothing, that an ID above the highest issued one is an
// unaccepted duplicate, and that the live task still admits once.
func TestSettledTasksLeaveTheTable(t *testing.T) {
	const churn = 10_000
	// A frozen clock: the reaper never writes the live task off.
	s := NewServer(Options{Now: newFakeClock().Now})
	defer s.Close()
	live := enqueueTask(s, "acme", "pbzip2")
	upload := func(tk *task) (*UploadResponse, error) {
		return s.handleUpload(&UploadRequest{Tenant: "acme", Agent: "a", TaskID: tk.id, Trace: &WireTrace{Spec: tk.spec}})
	}

	for i := 0; i < churn; i++ {
		tk := enqueueTask(s, "acme", "pbzip2")
		if resp, err := upload(tk); err != nil || !resp.Accepted || resp.Duplicate {
			t.Fatalf("upload %d: %+v, %v", i, resp, err)
		}
		if resp, err := upload(tk); err != nil || !resp.Accepted || !resp.Duplicate {
			t.Fatalf("retry %d = %+v, %v; want an accepted duplicate", i, resp, err)
		}
	}

	s.mu.Lock()
	_, liveHeld := s.tasks[live.id]
	held, next := len(s.tasks), s.nextTask
	s.mu.Unlock()
	if held != 1 || !liveHeld {
		t.Fatalf("task table holds %d tasks (live task held: %v) after %d settled, want only the live one", held, liveHeld, churn)
	}
	if c, _ := s.Snapshot(); c.Uploads != churn {
		t.Fatalf("Uploads = %d after the churn, want %d", c.Uploads, churn)
	}

	resp, err := s.handleUpload(&UploadRequest{Tenant: "acme", Agent: "a", TaskID: next + 1, Crashed: true})
	if err != nil || resp.Accepted || !resp.Duplicate {
		t.Fatalf("upload of never-issued task %d = %+v, %v; want an unaccepted duplicate", next+1, resp, err)
	}

	if resp, err := upload(live); err != nil || !resp.Accepted || resp.Duplicate {
		t.Fatalf("live upload: %+v, %v", resp, err)
	}
	if resp, err := upload(live); err != nil || !resp.Accepted || !resp.Duplicate {
		t.Fatalf("live retry = %+v, %v; want an accepted duplicate", resp, err)
	}
	s.mu.Lock()
	held = len(s.tasks)
	s.mu.Unlock()
	if c, _ := s.Snapshot(); c.Uploads != churn+1 || held != 0 {
		t.Fatalf("Uploads = %d, table holds %d; want %d and 0 (exactly-once admission)", c.Uploads, held, churn+1)
	}
}
