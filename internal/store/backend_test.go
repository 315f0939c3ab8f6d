package store

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/faults"
)

// TestMemBackendRoundTrip runs the full store lifecycle on the
// in-memory backend: save generations, reopen, read the newest back,
// and prune old ones — no filesystem involved.
func TestMemBackendRoundTrip(t *testing.T) {
	b := NewMemBackend()
	dir := "state/acme"
	s, err := Open(dir, "pbzip2", Options{Backend: b})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := s.Save([]byte(fmt.Sprintf("payload-%d", i))); err != nil {
			t.Fatalf("save %d: %v", i, err)
		}
	}
	re, err := Open(dir, "pbzip2", Options{Backend: b})
	if err != nil {
		t.Fatal(err)
	}
	latest := re.Latest()
	if latest == nil {
		t.Fatal("no generation survived the reopen scan")
	}
	if string(latest.Payload) != "payload-4" {
		t.Errorf("latest payload = %q, want payload-4", latest.Payload)
	}
	// keep is 3: generations 0 and 1 are pruned.
	if n := len(re.gens); n != keep {
		t.Errorf("%d generations survived, want %d (pruned)", n, keep)
	}
	// A second name in the same directory is independent.
	s2, err := Open(dir, "curl", Options{Backend: b})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Latest() != nil {
		t.Error("fresh name sees another name's generations")
	}
}

// TestPruneIgnoresStrayTempFile: a temp file left by a rename-dropped or
// fsync-failed Save is not a published generation, so it must not take
// one of the keep slots and cost a valid fallback.
func TestPruneIgnoresStrayTempFile(t *testing.T) {
	b := NewMemBackend()
	s, err := Open("d", "bug", Options{Backend: b})
	if err != nil {
		t.Fatal(err)
	}
	save := func() {
		t.Helper()
		if _, err := s.Save([]byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ { // generations 0..3; 0 is pruned
		save()
	}
	if err := b.WriteFile("d/bug.g00000002.ckpt.tmp", []byte("torn"), false); err != nil {
		t.Fatal(err)
	}
	save() // generation 4
	names, err := b.ListFiles("d")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"bug.g00000002.ckpt", "bug.g00000002.ckpt.tmp", "bug.g00000003.ckpt", "bug.g00000004.ckpt"}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Errorf("after prune: %v, want %v (keep 3 published generations)", names, want)
	}
}

// TestMemBackendIsolatesTenants checks the per-tenant keying the
// service relies on: same checkpoint name, different directories.
func TestMemBackendIsolatesTenants(t *testing.T) {
	b := NewMemBackend()
	sA, err := Open("state/tenant-a", "bug", Options{Backend: b})
	if err != nil {
		t.Fatal(err)
	}
	sB, err := Open("state/tenant-b", "bug", Options{Backend: b})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sA.Save([]byte("A")); err != nil {
		t.Fatal(err)
	}
	if _, err := sB.Save([]byte("B")); err != nil {
		t.Fatal(err)
	}
	reB, err := Open("state/tenant-b", "bug", Options{Backend: b})
	if err != nil {
		t.Fatal(err)
	}
	if g := reB.Latest(); g == nil || string(g.Payload) != "B" {
		t.Errorf("tenant-b latest = %v, want payload B", g)
	}
}

// TestMemBackendSurvivesDiskFaults reruns the store's fault matrix on
// the in-memory backend: every injected hazard must be quarantined or
// reported, never surfaced as a valid generation.
func TestMemBackendSurvivesDiskFaults(t *testing.T) {
	b := NewMemBackend()
	inj := faults.NewInjector(faults.Config{Seed: 3, DiskRate: 1})
	s, err := Open("d", "bug", Options{Backend: b, Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	saved := 0
	for i := 0; i < 40; i++ {
		if _, err := s.Save([]byte(fmt.Sprintf("gen-%d", i))); err != nil {
			if !errors.Is(err, ErrFsync) {
				t.Fatalf("save %d: unexpected error class: %v", i, err)
			}
			continue
		}
		saved++
	}
	re, err := Open("d", "bug", Options{Backend: b, Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	// Every surviving generation must decode; corrupted ones must have
	// been quarantined rather than returned.
	for _, g := range re.gens {
		if len(g.Payload) == 0 {
			t.Errorf("gen %d: empty payload surfaced as valid", g.Gen)
		}
	}
	if saved > 0 && re.Latest() == nil && len(re.Quarantined()) == 0 {
		t.Error("saves succeeded but nothing was recovered or quarantined")
	}
}

// TestDirBackendIsDefault pins the compatibility contract: a nil
// Options.Backend behaves exactly like the pre-Backend store.
func TestDirBackendIsDefault(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, "bug", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Save([]byte("x")); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, "bug", Options{Backend: DirBackend{}})
	if err != nil {
		t.Fatal(err)
	}
	if g := re.Latest(); g == nil || string(g.Payload) != "x" {
		t.Errorf("dir backend round trip failed: %v", g)
	}
}
