package shard

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/store"
)

// fakeClock is a settable clock shared by every lease table in a test,
// so expiry is driven explicitly instead of by sleeping.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1000, 0)}
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

func newTestTable(t *testing.T, b store.Backend, clock *fakeClock, ttl time.Duration) *LeaseTable {
	t.Helper()
	lt, err := NewLeaseTable(b, "fleet", ttl, true)
	if err != nil {
		t.Fatalf("NewLeaseTable: %v", err)
	}
	if clock != nil {
		lt.now = clock.now
	}
	return lt
}

// TestClaimRaceExactlyOneWinner is the satellite race test: two workers
// on a shared backend claim the same campaign simultaneously. Exactly
// one must win, and the loser must observe the winner's lease. Run with
// -race; the backend is the only shared state.
func TestClaimRaceExactlyOneWinner(t *testing.T) {
	b := store.NewMemBackend()
	lt1 := newTestTable(t, b, nil, 10*time.Second)
	lt2 := newTestTable(t, b, nil, 10*time.Second)

	for i := 0; i < 25; i++ {
		campaign := fmt.Sprintf("tenant__bug-%d", i)
		type outcome struct {
			worker string
			won    bool
			lease  *Lease
			err    error
		}
		results := make([]outcome, 2)
		var wg sync.WaitGroup
		for j, cl := range []struct {
			lt     *LeaseTable
			worker string
		}{{lt1, "w1"}, {lt2, "w2"}} {
			wg.Add(1)
			go func(j int, lt *LeaseTable, worker string) {
				defer wg.Done()
				won, lease, err := lt.Claim(campaign, worker)
				results[j] = outcome{worker: worker, won: won, lease: lease, err: err}
			}(j, cl.lt, cl.worker)
		}
		wg.Wait()

		var winner, loser *outcome
		for j := range results {
			r := &results[j]
			if r.err != nil {
				t.Fatalf("round %d: %s: Claim error: %v", i, r.worker, r.err)
			}
			if r.won {
				if winner != nil {
					t.Fatalf("round %d: both workers won the same campaign", i)
				}
				winner = r
			} else {
				loser = r
			}
		}
		if winner == nil {
			t.Fatalf("round %d: no worker won", i)
		}
		if loser.lease == nil {
			t.Fatalf("round %d: loser observed no lease", i)
		}
		if loser.lease.Worker != winner.worker {
			t.Fatalf("round %d: loser observed lease held by %q, winner is %q",
				i, loser.lease.Worker, winner.worker)
		}
	}
}

// TestClaimWhileOwnedLoses pins the steady state: a claim against a
// live lease loses and names the holder; the holder re-claiming its own
// campaign refreshes the lease without burning a new generation.
func TestClaimWhileOwnedLoses(t *testing.T) {
	b := store.NewMemBackend()
	clock := newFakeClock()
	lt1 := newTestTable(t, b, clock, 10*time.Second)
	lt2 := newTestTable(t, b, clock, 10*time.Second)

	won, own, err := lt1.Claim("t__bug", "w1")
	if err != nil || !won {
		t.Fatalf("initial claim: won=%v err=%v", won, err)
	}
	won, obs, err := lt2.Claim("t__bug", "w2")
	if err != nil {
		t.Fatalf("rival claim: %v", err)
	}
	if won || obs == nil || obs.Worker != "w1" {
		t.Fatalf("rival claim against a live lease: won=%v observed=%+v", won, obs)
	}
	won, again, err := lt1.Claim("t__bug", "w1")
	if err != nil || !won {
		t.Fatalf("re-claim by holder: won=%v err=%v", won, err)
	}
	if again.Gen != own.Gen {
		t.Fatalf("re-claim burned a new generation: %d -> %d", own.Gen, again.Gen)
	}
}

// TestExpiredLeaseIsTakenOverAndCannotRenew drives the dead-worker
// protocol with an explicit clock: the lease expires, a rival's claim
// wins at a higher generation, and the original holder's Renew reports
// ErrLeaseLost — a resurrected worker cannot steal the campaign back.
func TestExpiredLeaseIsTakenOverAndCannotRenew(t *testing.T) {
	b := store.NewMemBackend()
	clock := newFakeClock()
	ttl := 10 * time.Second
	lt1 := newTestTable(t, b, clock, ttl)
	lt2 := newTestTable(t, b, clock, ttl)

	won, first, err := lt1.Claim("t__bug", "w1")
	if err != nil || !won {
		t.Fatalf("initial claim: won=%v err=%v", won, err)
	}

	// While live: renew extends, rival cannot take over.
	clock.advance(ttl / 2)
	if _, err := lt1.Renew("t__bug", "w1"); err != nil {
		t.Fatalf("renew while live: %v", err)
	}
	if won, _, _ := lt2.Claim("t__bug", "w2"); won {
		t.Fatalf("rival took over a live lease")
	}

	// Let it lapse: the rival wins at a higher generation.
	clock.advance(2 * ttl)
	won, second, err := lt2.Claim("t__bug", "w2")
	if err != nil || !won {
		t.Fatalf("takeover claim: won=%v err=%v", won, err)
	}
	if second.Gen <= first.Gen {
		t.Fatalf("takeover generation %d not past the expired claim's %d", second.Gen, first.Gen)
	}

	// The resurrected original holder must not renew its way back.
	if _, err := lt1.Renew("t__bug", "w1"); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("renew of an expired, superseded lease: err = %v, want ErrLeaseLost", err)
	}
	owner, err := lt2.owner("t__bug")
	if err != nil || owner == nil || owner.Worker != "w2" {
		t.Fatalf("owner after takeover = %+v, %v; want w2", owner, err)
	}
}

// TestReleaseUnowns checks the clean-handoff path: after Release the
// campaign is unowned and the next claimant wins immediately, at a
// generation the table never reuses.
func TestReleaseUnowns(t *testing.T) {
	b := store.NewMemBackend()
	lt := newTestTable(t, b, nil, 10*time.Second)

	won, first, err := lt.Claim("t__bug", "w1")
	if err != nil || !won {
		t.Fatalf("claim: won=%v err=%v", won, err)
	}
	lt.Release("t__bug", "w1")
	owner, err := lt.owner("t__bug")
	if err != nil || owner != nil {
		t.Fatalf("owner after release = %+v, %v; want none", owner, err)
	}
	won, second, err := lt.Claim("t__bug", "w2")
	if err != nil || !won {
		t.Fatalf("claim after release: won=%v err=%v", won, err)
	}
	if second.Gen <= first.Gen {
		t.Fatalf("generation %d reused after release (first claim was %d)", second.Gen, first.Gen)
	}
}

// TestTornClaimBurnsItsGeneration mirrors the checkpoint store's
// burned-numbering rule at the lease layer: a torn claim file (bad
// frame) is void as a record but its generation number is consumed.
func TestTornClaimBurnsItsGeneration(t *testing.T) {
	b := store.NewMemBackend()
	lt := newTestTable(t, b, nil, 10*time.Second)
	if err := b.WriteFile(LeaseDir("fleet")+"/t__bug.g7.wX.lease", []byte("torn"), false); err != nil {
		t.Fatalf("plant torn claim: %v", err)
	}
	won, lease, err := lt.Claim("t__bug", "w1")
	if err != nil || !won {
		t.Fatalf("claim over torn file: won=%v err=%v", won, err)
	}
	if lease.Gen <= 7 {
		t.Fatalf("claim drew generation %d; torn file should have burned 7", lease.Gen)
	}
}
