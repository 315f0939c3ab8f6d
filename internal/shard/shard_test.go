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
			s := place(id[0], id[1], id[2], shards)
			if s < 0 || s >= shards {
				t.Fatalf("Place(%v, %d) = %d out of range", id, shards, s)
			}
			if again := place(id[0], id[1], id[2], shards); again != s {
				t.Fatalf("Place(%v, %d) unstable: %d then %d", id, shards, s, again)
			}
			seen[s] = true
		}
		if shards >= 16 && len(seen) < 2 {
			t.Fatalf("Place sent 4 distinct identities to one shard of %d", shards)
		}
	}
	// The NUL joiner keeps concatenation ambiguity out of the hash.
	if place("a", "bc", "", 1024) == place("ab", "c", "", 1024) {
		t.Fatalf("Place conflates (a, bc) with (ab, c)")
	}
}

// TestCampaignNameMatchesServiceLayout pins the one state layout the
// service, the workers and the benchmark (which rebuilds the path by
// hand from Sanitize and StateRoot) share, and the sanitized record
// name that goes with it.
func TestCampaignNameMatchesServiceLayout(t *testing.T) {
	const tenant, key = "acme corp", "pbzip2#sig/1"
	b := store.NewMemBackend()
	st, err := OpenCampaignStore(b, StateRoot("fleet"), tenant, key, true, nil)
	if err != nil {
		t.Fatalf("OpenCampaignStore: %v", err)
	}
	if got, want := st.Dir(), filepath.Join("fleet", "state", "acme_corp"); got != want {
		t.Errorf("store dir = %q, want %q", got, want)
	}
	if _, err := st.Save([]byte("snapshot")); err != nil {
		t.Fatal(err)
	}
	if files, _ := b.ListFiles(st.Dir()); len(files) != 1 || !strings.HasPrefix(files[0], "pbzip2_sig_1.g") {
		t.Errorf("store files = %q, want one pbzip2_sig_1 generation", files)
	}
	if got, want := CampaignName(tenant, key), "acme_corp__pbzip2_sig_1"; got != want {
		t.Errorf("CampaignName = %q, want %q", got, want)
	}
}

// TestFleetFlagValidation table-tests WorkerOptions.Validate, which
// `gist worker` calls on the struct its flags are bound into: every
// rejection names the offending flag (the CLI turns these into exit 2).
// The coordinator has no options struct; `gist serve -shards N` hands N
// to NewCoordinator.
func TestFleetFlagValidation(t *testing.T) {
	worker := func(mutate func(*WorkerOptions)) func() error {
		return func() error {
			o := WorkerOptions{Shards: 3, Index: 1, Root: "fleet", LeaseTTL: 10 * time.Second}
			mutate(&o)
			return o.Validate()
		}
	}
	coordinator := func(shards int) func() error {
		return func() error {
			_, err := NewCoordinator(store.NewMemBackend(), "fleet", shards, true)
			return err
		}
	}
	cases := []struct {
		name     string
		validate func() error
		want     string // "" means valid
	}{
		{"valid worker", worker(func(o *WorkerOptions) {}), ""},
		{"valid coordinator", coordinator(3), ""},
		{"coordinator without shards", coordinator(0), "positive shard count"},
		{"zero shards", worker(func(o *WorkerOptions) { o.Shards = 0 }), "-shards"},
		{"negative shards", worker(func(o *WorkerOptions) { o.Shards = -4 }), "-shards"},
		{"zero worker id", worker(func(o *WorkerOptions) { o.Index = -1 }), "-worker-id"},
		{"negative worker id", worker(func(o *WorkerOptions) { o.Index = -2 }), "-worker-id"},
		{"worker id past shards", worker(func(o *WorkerOptions) { o.Index = 3 }), "-worker-id"},
		{"empty state dir", worker(func(o *WorkerOptions) { o.Root = "" }), "-state-dir"},
		{"zero lease", worker(func(o *WorkerOptions) { o.LeaseTTL = 0 }), "-lease"},
		{"negative lease", worker(func(o *WorkerOptions) { o.LeaseTTL = -time.Second }), "-lease"},
		{"negative width", worker(func(o *WorkerOptions) { o.Width = -1 }), "-workers"},
		{"negative round delay", worker(func(o *WorkerOptions) { o.RoundDelay = -time.Second }), "-iter-delay"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.validate()
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("valid options rejected: %v", err)
			case tc.want != "" && err == nil:
				t.Fatalf("invalid options accepted")
			case tc.want != "" && !strings.Contains(err.Error(), tc.want):
				t.Fatalf("error %q does not name %s", err, tc.want)
			}
		})
	}
}
