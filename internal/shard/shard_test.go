package shard

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/store"
)

// TestPlaceIsStableAndInRange pins the placement hash: deterministic
// across calls, always in [0, shards), and sensitive to every identity
// component — so two campaigns differing only by signature can land on
// different shards.
func TestPlaceIsStableAndInRange(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 16} {
		seen := map[int]bool{}
		for _, id := range [][3]string{
			{"acme", "pbzip2", ""},
			{"acme", "pbzip2", "sig-a"},
			{"acme", "curl", ""},
			{"globex", "pbzip2", ""},
		} {
			s := Place(id[0], id[1], id[2], shards)
			if s < 0 || s >= shards {
				t.Fatalf("Place(%v, %d) = %d out of range", id, shards, s)
			}
			if again := Place(id[0], id[1], id[2], shards); again != s {
				t.Fatalf("Place(%v, %d) unstable: %d then %d", id, shards, s, again)
			}
			seen[s] = true
		}
		if shards >= 16 && len(seen) < 2 {
			t.Fatalf("Place sent 4 distinct identities to one shard of %d", shards)
		}
	}
	// The NUL joiner keeps concatenation ambiguity out of the hash.
	if Place("a", "bc", "", 1024) == Place("ab", "c", "", 1024) {
		t.Fatalf("Place conflates (a, bc) with (ab, c)")
	}
}

// TestCampaignNameMatchesServiceLayout pins the one state layout the
// service, the workers and the benchmark (which rebuilds the path by
// hand from Sanitize and StateRoot) share, and the sanitized record
// name that goes with it.
func TestCampaignNameMatchesServiceLayout(t *testing.T) {
	const tenant, key = "acme corp", "pbzip2#sig/1"
	st, err := OpenCampaignStore(store.NewMemBackend(), StateRoot("fleet"), tenant, key, true, nil)
	if err != nil {
		t.Fatalf("OpenCampaignStore: %v", err)
	}
	if got, want := st.Dir(), filepath.Join("fleet", "state", "acme_corp"); got != want {
		t.Errorf("store dir = %q, want %q", got, want)
	}
	if got, want := st.Name(), "pbzip2_sig_1"; got != want {
		t.Errorf("store name = %q, want %q", got, want)
	}
	if got, want := CampaignName(tenant, key), "acme_corp__pbzip2_sig_1"; got != want {
		t.Errorf("CampaignName = %q, want %q", got, want)
	}
}

// TestFleetFlagValidation table-tests shard.Flags the same way
// ServeFlags and AgentFlags are tested: every rejection names the
// offending flag (the CLI turns these into exit 2).
func TestFleetFlagValidation(t *testing.T) {
	valid := func() Flags {
		return Flags{Shards: 3, WorkerID: 2, Worker: true, StateDir: "fleet", Lease: 10 * time.Second}
	}
	cases := []struct {
		name     string
		mutate   func(*Flags)
		wantFlag string // "" means valid
	}{
		{"valid worker", func(f *Flags) {}, ""},
		{"valid coordinator", func(f *Flags) { f.Worker = false; f.WorkerID = 0 }, ""},
		{"zero shards", func(f *Flags) { f.Shards = 0 }, "-shards"},
		{"negative shards", func(f *Flags) { f.Shards = -4 }, "-shards"},
		{"zero worker id", func(f *Flags) { f.WorkerID = 0 }, "-worker-id"},
		{"negative worker id", func(f *Flags) { f.WorkerID = -1 }, "-worker-id"},
		{"worker id past shards", func(f *Flags) { f.WorkerID = 4 }, "-worker-id"},
		{"coordinator ignores worker id", func(f *Flags) { f.Worker = false; f.WorkerID = -9 }, ""},
		{"empty state dir", func(f *Flags) { f.StateDir = "" }, "-state-dir"},
		{"zero lease", func(f *Flags) { f.Lease = 0 }, "-lease"},
		{"negative lease", func(f *Flags) { f.Lease = -time.Second }, "-lease"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := valid()
			tc.mutate(&f)
			err := f.Validate()
			if tc.wantFlag == "" {
				if err != nil {
					t.Fatalf("valid flags rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("invalid flags accepted")
			}
			if !strings.Contains(err.Error(), tc.wantFlag) {
				t.Fatalf("error %q does not name %s", err, tc.wantFlag)
			}
		})
	}
}
