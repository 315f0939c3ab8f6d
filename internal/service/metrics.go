package service

import (
	"net/http"
	"sort"
	"sync"

	"repro/internal/ingest"
)

// ---- metrics ----------------------------------------------------------

// Counters are the server's scalar health counters.
type Counters struct {
	Requests         int64
	BadChecksum      int64
	Uploads          int64
	DuplicateUploads int64
	Reassigned       int64
	LostTasks        int64
	// NovelSignatures counts submits that launched a campaign;
	// FoldedReports counts submits deduped into a live one.
	NovelSignatures int64
	FoldedReports   int64
	// SketchReloads counts sketch fetches re-rendered from the
	// checkpoint store after LRU eviction.
	SketchReloads int64
	// ShedRateLimited counts submits bounced by a tenant's token
	// bucket; ShedLaunches counts novel signatures shed because the
	// launch queue was at budget (or the server was draining).
	ShedRateLimited int64
	ShedLaunches    int64
	// HedgedTasks counts stragglers speculatively re-dispatched;
	// HedgedResults counts uploads admitted for hedged tasks.
	HedgedTasks   int64
	HedgedResults int64
	// DeadlineExpired counts tasks written off and campaigns failed by
	// deadline propagation.
	DeadlineExpired int64
}

// RPCStat is the request count of one wire path.
type RPCStat struct {
	Path  string `json:"path"`
	Count int64  `json:"count"`
}

// metrics holds the scalar counters and a request count per path.
type metrics struct {
	mu       sync.Mutex
	counters Counters
	byPath   map[string]int64
}

func (m *metrics) add(f func(*Counters)) {
	m.mu.Lock()
	f(&m.counters)
	m.mu.Unlock()
}

// read returns the counters alone, so a health probe costs the request
// path one short critical section.
func (m *metrics) read() Counters {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.counters
}

func (m *metrics) observe(path string) {
	m.mu.Lock()
	m.counters.Requests++
	if m.byPath == nil {
		m.byPath = map[string]int64{}
	}
	m.byPath[path]++
	m.mu.Unlock()
}

// measure wraps the mux with per-request counting.
func (s *Server) measure(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		next.ServeHTTP(w, r)
		s.metrics.observe(r.URL.Path)
	})
}

// Snapshot returns the server's counters and per-path request counts,
// sorted by path.
func (s *Server) Snapshot() (Counters, []RPCStat) {
	s.metrics.mu.Lock()
	defer s.metrics.mu.Unlock()
	rpcs := make([]RPCStat, 0, len(s.metrics.byPath))
	for p, n := range s.metrics.byPath {
		rpcs = append(rpcs, RPCStat{Path: p, Count: n})
	}
	sort.Slice(rpcs, func(i, j int) bool { return rpcs[i].Path < rpcs[j].Path })
	return s.metrics.counters, rpcs
}

// CacheStats returns the sketch cache's counters and occupancy.
func (s *Server) CacheStats() ingest.CacheStats { return s.cache.Stats() }

// IngestStats returns the streaming front-end's traffic counters.
func (s *Server) IngestStats() ingest.Stats { return s.front.Stats() }
