package ingest

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/vm"
)

func report(instr int) *vm.FailureReport {
	return &vm.FailureReport{Kind: vm.FaultNullDeref, InstrID: instr}
}

// TestFrontendDedup pins the core routing rule: one Novel decision per
// distinct (tenant, bug, signature), recurrences fold with exact counts,
// and distinct signatures under one bug name stay separate streams.
func TestFrontendDedup(t *testing.T) {
	f := NewFrontend(4)

	d1 := f.Ingest("acme", "crash", report(10), 1)
	if !d1.Novel || d1.Reports != 1 {
		t.Fatalf("first report: %+v", d1)
	}
	d2 := f.Ingest("acme", "crash", report(10), 2)
	if d2.Novel || d2.Reports != 2 {
		t.Fatalf("recurrence: %+v", d2)
	}
	if d2.Key != d1.Key {
		t.Fatalf("same signature produced different keys: %+v vs %+v", d1.Key, d2.Key)
	}

	// Same bug name, different failing PC: a distinct root cause that the
	// old (tenant, bug) dedup would have swallowed.
	d3 := f.Ingest("acme", "crash", report(11), 3)
	if !d3.Novel || d3.Key == d1.Key {
		t.Fatalf("distinct signature not routed to a new campaign: %+v", d3)
	}

	// Tenants are isolated.
	d4 := f.Ingest("beta", "crash", report(10), 4)
	if !d4.Novel {
		t.Fatalf("tenant isolation broken: %+v", d4)
	}

	// Nil reports fall back to name-only dedup.
	d5 := f.Ingest("acme", "other", nil, 5)
	d6 := f.Ingest("acme", "other", nil, 6)
	if !d5.Novel || d6.Novel || d5.Key.Sig != "" {
		t.Fatalf("nil-report dedup: %+v / %+v", d5, d6)
	}

	st := f.Stats()
	if st.Reports != 6 || st.Novel != 4 || st.Folded != 2 {
		t.Fatalf("stats: %+v", st)
	}

	ev := f.sigs[d1.Key]
	if ev == nil || ev.Count != 2 || len(ev.Seeds) != 2 {
		t.Fatalf("evidence: %+v", ev)
	}
	if f.sigs[Key{Tenant: "nobody"}] != nil {
		t.Fatal("evidence for unseen key")
	}
}

// TestFrontendSeedCap pins that evidence seed lists stay bounded under
// sustained recurrences while the count keeps growing.
func TestFrontendSeedCap(t *testing.T) {
	f := NewFrontend(3)
	var key Key
	for s := int64(0); s < 50; s++ {
		key = f.Ingest("t", "b", report(1), s).Key
	}
	ev := f.sigs[key]
	if ev.Count != 50 || len(ev.Seeds) != 3 {
		t.Fatalf("count=%d seeds=%v", ev.Count, ev.Seeds)
	}
}

// TestFrontendConcurrentExactlyOnce hammers one frontend from many
// goroutines and checks the property the submit path depends on: for
// every signature exactly one caller sees Novel and counts are exact —
// regardless of interleaving. Run under -race like the rest of the
// determinism suites.
func TestFrontendConcurrentExactlyOnce(t *testing.T) {
	const (
		workers = 8
		perSig  = 25
		sigs    = 10
	)
	f := NewFrontend(0)
	var mu sync.Mutex
	novel := make(map[Key]int)

	// Fan a fixed multiset of submissions over the workers; which worker
	// ingests which report is up to the scheduler.
	var wg sync.WaitGroup
	type sub struct {
		sig  int
		seed int64
	}
	var subs []sub
	for s := 0; s < sigs; s++ {
		for i := 0; i < perSig; i++ {
			subs = append(subs, sub{sig: s, seed: int64(s*1000 + i)})
		}
	}
	ch := make(chan sub, len(subs))
	for _, s := range subs {
		ch <- s
	}
	close(ch)

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range ch {
				d := f.Ingest("t", fmt.Sprintf("bug%d", s.sig%3), report(s.sig), s.seed)
				mu.Lock()
				if d.Novel {
					novel[d.Key]++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	if len(novel) != sigs {
		t.Fatalf("%d novel keys, want %d", len(novel), sigs)
	}
	for k, n := range novel {
		if n != 1 {
			t.Errorf("key %+v novel %d times", k, n)
		}
		ev := f.sigs[k]
		if ev.Count != perSig {
			t.Errorf("key %+v count %d, want %d", k, ev.Count, perSig)
		}
	}
	st := f.Stats()
	if st.Reports != uint64(len(subs)) || st.Novel != sigs {
		t.Fatalf("stats: %+v", st)
	}
}

// TestSketchCacheLRU pins eviction order, the byte bound, update-in-
// place accounting, and the oversized-entry refusal.
func TestSketchCacheLRU(t *testing.T) {
	c := NewSketchCache(10)
	c.Put("a", []byte("aaaa")) // 4 bytes
	c.Put("b", []byte("bbbb")) // 8 bytes
	if got := c.Get("a"); string(got) != "aaaa" {
		t.Fatalf("a: %q", got)
	}
	// "a" is now MRU; inserting 4 more bytes must evict "b", not "a".
	c.Put("c", []byte("cccc"))
	if c.Get("b") != nil {
		t.Fatal("b should have been evicted (LRU)")
	}
	if c.Get("a") == nil || c.Get("c") == nil {
		t.Fatal("a/c should have survived")
	}
	st := c.Stats()
	if st.Bytes != 8 || st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if st.Bytes > st.MaxBytes {
		t.Fatalf("over budget: %+v", st)
	}

	// Updating a key in place adjusts accounting without duplicating.
	c.Put("a", []byte("aa"))
	if st := c.Stats(); st.Bytes != 6 || st.Entries != 2 {
		t.Fatalf("after update: %+v", st)
	}

	// An entry larger than the whole budget is refused and evicts nothing.
	c.Put("huge", make([]byte, 11))
	if c.Get("huge") != nil {
		t.Fatal("oversized entry cached")
	}
	if st := c.Stats(); st.Entries != 2 {
		t.Fatalf("oversized Put disturbed the cache: %+v", st)
	}
}

// TestSketchCacheUnbounded pins that maxBytes <= 0 disables eviction.
func TestSketchCacheUnbounded(t *testing.T) {
	c := NewSketchCache(0)
	for i := 0; i < 100; i++ {
		c.Put(fmt.Sprintf("k%d", i), make([]byte, 1000))
	}
	if st := c.Stats(); st.Entries != 100 || st.Evictions != 0 {
		t.Fatalf("unbounded cache evicted: %+v", st)
	}
}

// TestKnownIsReadOnly pins the shed-probe contract: Known answers
// registration without recording anything, so a report shed by
// admission control keeps its one Novel slot for the retry that lands.
func TestKnownIsReadOnly(t *testing.T) {
	f := NewFrontend(4)

	if f.Known("acme", "crash", report(10)) {
		t.Fatal("Known true before any ingest")
	}
	// Probing must not consume the signature's Novel slot or bump any
	// counter.
	for i := 0; i < 5; i++ {
		f.Known("acme", "crash", report(10))
	}
	if st := f.Stats(); st.Reports != 0 || st.Novel != 0 {
		t.Fatalf("stats after probes = %+v, want untouched", st)
	}
	d := f.Ingest("acme", "crash", report(10), 1)
	if !d.Novel {
		t.Fatalf("first ingest after probes = %+v, want Novel", d)
	}
	if !f.Known("acme", "crash", report(10)) {
		t.Fatal("Known false after ingest")
	}
	// Distinct tenant, bug, or signature are distinct streams.
	if f.Known("beta", "crash", report(10)) || f.Known("acme", "other", report(10)) ||
		f.Known("acme", "crash", report(11)) {
		t.Fatal("Known leaked across tenant/bug/signature boundaries")
	}
}
