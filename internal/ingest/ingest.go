// Package ingest is the streaming front-end of the gist service: a
// WER-style collector (§7 of the paper) that stands between the
// production report firehose and the diagnosis stack. Every incoming
// failure report is reduced to its failure signature
// (vm.FailureReport.ID(): bug class + failing PC + stack + other
// blocked PCs); the first report of a signature launches one campaign,
// and every recurrence only counts against that signature's cluster
// instead of spawning a duplicate diagnosis — nothing it carries reaches
// the running campaign. Finished sketches are served from a size-bounded
// LRU cache so server memory stays flat under sustained load.
package ingest

import (
	"container/list"
	"sync"

	"repro/internal/vm"
)

// Key identifies one diagnosis stream: a tenant's bug name refined by
// the failure signature. Two distinct signatures under one bug name are
// two keys — the fix for the (tenant, bug)-only dedup that collapsed
// distinct root causes into one campaign.
type Key struct {
	Tenant string
	Bug    string
	Sig    string
}

// signature reduces a report to its cluster identity. A nil report (a
// submit that asks the server to discover the failure itself) has no
// signature; dedup then falls back to the bug name alone.
func signature(report *vm.FailureReport) string {
	if report == nil {
		return ""
	}
	return report.ID()
}

// Decision is the outcome of ingesting one report.
type Decision struct {
	Key Key
	// Novel is true exactly once per key: for the report that must
	// launch a campaign. Every later report folds into the cluster.
	Novel bool
	// Reports is the cluster's recurrence count including this report.
	Reports int
}

// FailureCluster groups production failures that share a failure identity
// (failing program counter + stack trace + fault kind) — the grouping a
// Windows-Error-Reporting-style collector performs before a diagnosis is
// launched per cluster (§7's WER discussion). One Gist diagnosis is run
// per cluster, not per crash.
type FailureCluster struct {
	ID     string
	Report *vm.FailureReport
	// Count is how many observed failures matched this cluster.
	Count int
	// Seeds are the run seeds that produced the failures (capped).
	Seeds []int64
}

// admit folds one observed failure into the cluster: the recurrence
// count always grows, the seed list only up to the cap.
func (c *FailureCluster) admit(seed int64, maxSeeds int) {
	c.Count++
	if len(c.Seeds) < maxSeeds {
		c.Seeds = append(c.Seeds, seed)
	}
}

// Stats summarizes a frontend's traffic.
type Stats struct {
	// Reports is every ingested report; Novel of them launched
	// campaigns, the rest were folded as duplicates.
	Reports, Novel, Folded uint64
}

// Frontend dedups a report stream by failure signature. Safe for
// concurrent use; decisions are atomic, so exactly one caller observes
// Novel for a given key no matter how submits interleave.
type Frontend struct {
	mu       sync.Mutex
	reports  uint64
	sigs     map[Key]*FailureCluster
	maxSeeds int
}

// NewFrontend returns an empty frontend. maxSeeds bounds each
// signature's recorded seed list (0 = 16).
func NewFrontend(maxSeeds int) *Frontend {
	if maxSeeds == 0 {
		maxSeeds = 16
	}
	return &Frontend{sigs: make(map[Key]*FailureCluster), maxSeeds: maxSeeds}
}

// Ingest folds one report into the stream and decides its fate:
// Novel=true means the caller must launch a campaign for the key;
// otherwise the report was recorded as a recurrence of the live one.
func (f *Frontend) Ingest(tenant, bug string, report *vm.FailureReport, seed int64) Decision {
	key := Key{Tenant: tenant, Bug: bug, Sig: signature(report)}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.reports++
	cl := f.sigs[key]
	novel := cl == nil
	if novel {
		cl = &FailureCluster{ID: key.Sig, Report: report}
		f.sigs[key] = cl
	}
	cl.admit(seed, f.maxSeeds)
	return Decision{Key: key, Novel: novel, Reports: cl.Count}
}

// Known reports whether a (tenant, bug, signature) stream is already
// registered, without recording anything. The admission path's shed
// decision needs this probe: a novel report rejected for lack of launch
// budget must not burn its signature's one Novel slot — it has to stay
// novel for the retry that finally gets admitted.
func (f *Frontend) Known(tenant, bug string, report *vm.FailureReport) bool {
	key := Key{Tenant: tenant, Bug: bug, Sig: signature(report)}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.sigs[key] != nil
}

// Stats returns the traffic counters so far.
func (f *Frontend) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	s := Stats{Reports: f.reports, Novel: uint64(len(f.sigs))}
	s.Folded = s.Reports - s.Novel
	return s
}

// CacheStats summarizes a sketch cache's behavior.
type CacheStats struct {
	Hits, Misses, Evictions uint64
	Entries                 int
	Bytes, MaxBytes         int64
}

// SketchCache is a size-bounded LRU over finished sketch bytes. Serving
// a sketch is pure read traffic, and every sketch is durably recoverable
// from the checkpoint store, so eviction only costs a re-render — the
// cache exists to keep server memory flat while a long-lived deployment
// accumulates finished campaigns.
type SketchCache struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	order    *list.List // front = most recently used; values are *cacheEntry
	entries  map[string]*list.Element
	stats    CacheStats
}

type cacheEntry struct {
	key    string
	sketch []byte
}

// NewSketchCache returns a cache bounded to maxBytes of sketch payload
// (keys and bookkeeping are not charged). maxBytes <= 0 means an
// unbounded cache.
func NewSketchCache(maxBytes int64) *SketchCache {
	return &SketchCache{
		maxBytes: maxBytes,
		order:    list.New(),
		entries:  make(map[string]*list.Element),
	}
}

// Get returns the cached sketch for key and marks it most recently
// used, or nil on a miss. The returned slice is shared; callers must
// not mutate it.
func (c *SketchCache) Get(key string) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	el := c.entries[key]
	if el == nil {
		c.stats.Misses++
		return nil
	}
	c.stats.Hits++
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).sketch
}

// Put stores a sketch, evicting least-recently-used entries until the
// new total fits. A sketch larger than the whole budget is refused
// (cached nowhere) rather than evicting everything for nothing.
func (c *SketchCache) Put(key string, sketch []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.maxBytes > 0 && int64(len(sketch)) > c.maxBytes {
		return
	}
	if el := c.entries[key]; el != nil {
		ent := el.Value.(*cacheEntry)
		c.bytes += int64(len(sketch)) - int64(len(ent.sketch))
		ent.sketch = sketch
		c.order.MoveToFront(el)
	} else {
		el = c.order.PushFront(&cacheEntry{key: key, sketch: sketch})
		c.entries[key] = el
		c.bytes += int64(len(sketch))
	}
	for c.maxBytes > 0 && c.bytes > c.maxBytes {
		back := c.order.Back()
		ent := back.Value.(*cacheEntry)
		c.order.Remove(back)
		delete(c.entries, ent.key)
		c.bytes -= int64(len(ent.sketch))
		c.stats.Evictions++
	}
}

// Stats returns the cache counters and current occupancy.
func (c *SketchCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = len(c.entries)
	s.Bytes = c.bytes
	s.MaxBytes = c.maxBytes
	return s
}
