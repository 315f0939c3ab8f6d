// Package analysis memoizes Gist's static-analysis artifacts: the TICFG
// (with its dominator and postdominator trees) per program, and the
// backward slice per (program, failing instruction).
//
// The paper's server performs static analysis once per failure, but the
// surrounding system re-derives the same artifacts constantly: every
// adaptive-slice-tracking iteration replans against the graph, deadlock
// diagnoses slice from every cycle participant, and the evaluation
// harness sweeps the same 11 programs across dozens of feature/sigma
// configurations. A compiled *ir.Program is immutable, so both artifacts
// are pure functions of their keys and can be computed exactly once per
// process.
//
// Concurrency: lookups are single-flight — concurrent requests for the
// same artifact share one computation and then read the shared result.
// Graphs are returned shared, because a built TICFG is read-only.
// Slices are returned as private clones, because refinement (§3.2.3)
// mutates the slice a diagnosis works on.
//
// Invalidation: none is needed — cache keys are live *ir.Program
// pointers and programs never change after ir finalizes them. The cache
// therefore pins cached programs for the life of the process; Reset
// exists for benchmarks that need cold-cache timings, not for
// correctness.
package analysis

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cfg"
	"repro/internal/ir"
	"repro/internal/slicer"
	"repro/internal/vm/bytecode"
)

// memo is one single-flight cache: each key's value is built at most
// once, concurrent lookups of a key share that build, and every lookup
// counts as a build or a hit. buildNS is the cumulative wall time spent
// inside builds, the number Snapshot reports as the offline
// static-analysis cost (§5.3's "analysis time"); hits cost nothing by
// design.
type memo[K comparable, V any] struct {
	mu                    sync.Mutex
	entries               map[K]*memoEntry[V]
	builds, hits, buildNS atomic.Int64
}

type memoEntry[V any] struct {
	once sync.Once
	v    V
}

// get returns the value cached under k, building it with build on first
// use, and reports whether this call hit the cache.
func (m *memo[K, V]) get(k K, build func() V) (V, bool) {
	m.mu.Lock()
	e := m.entries[k]
	if e == nil {
		if m.entries == nil {
			m.entries = make(map[K]*memoEntry[V])
		}
		e = &memoEntry[V]{}
		m.entries[k] = e
	}
	m.mu.Unlock()
	hit := true
	e.once.Do(func() {
		hit = false
		m.builds.Add(1)
		t0 := time.Now()
		e.v = build()
		m.buildNS.Add(time.Since(t0).Nanoseconds())
	})
	if hit {
		m.hits.Add(1)
	}
	return e.v, hit
}

// reset drops every cached value and zeroes the counters.
func (m *memo[K, V]) reset() {
	m.mu.Lock()
	m.entries = nil
	m.mu.Unlock()
	m.builds.Store(0)
	m.hits.Store(0)
	m.buildNS.Store(0)
}

type sliceKey struct {
	prog *ir.Program
	id   int
}

var (
	graphs    memo[*ir.Program, *cfg.TICFG]
	slices    memo[sliceKey, *slicer.Slice] // pristine masters; callers get clones
	bytecodes memo[*ir.Program, *bytecode.Program]
)

// Graph returns the memoized TICFG for p, building it on first use.
// The returned graph is shared: it is read-only after construction and
// must not be mutated.
func Graph(p *ir.Program) *cfg.TICFG {
	g, _ := graphs.get(p, func() *cfg.TICFG { return cfg.BuildTICFG(p) })
	return g
}

// Slice returns the backward slice of p rooted at failingID, computed at
// most once per (program, PC) and returned as an independent clone that
// the caller may refine freely.
func Slice(p *ir.Program, failingID int) *slicer.Slice {
	sl, _ := slices.get(sliceKey{p, failingID}, func() *slicer.Slice {
		return slicer.Compute(Graph(p), failingID)
	})
	return sl.Clone()
}

// Bytecode returns the memoized bytecode compilation of p, building it
// on first use, and reports whether this call hit the cache. The
// returned program is shared safely across goroutines: its instruction
// stream is immutable after compilation and each Run takes a spare
// machine of its own. Every fleet worker, scheduler lane, and service agent
// executing the same *ir.Program therefore pays compilation exactly
// once per process.
func Bytecode(p *ir.Program) (*bytecode.Program, bool) {
	return bytecodes.get(p, func() *bytecode.Program { return bytecode.Compile(p) })
}

// Stats is a point-in-time snapshot of cache effectiveness, reported by
// the perf experiment and the telemetry metrics snapshot.
//
// GraphBuildNS and SliceBuildNS are cumulative wall time spent in
// cache-miss builds. A slice build that triggers the graph build
// includes that graph time (the slice cannot exist without it), so the
// two are not disjoint.
type Stats struct {
	GraphBuilds, GraphHits       int64
	SliceBuilds, SliceHits       int64
	BytecodeBuilds, BytecodeHits int64

	GraphBuildNS    int64
	SliceBuildNS    int64
	BytecodeBuildNS int64
}

// Snapshot returns the current cache counters.
func Snapshot() Stats {
	return Stats{
		GraphBuilds:     graphs.builds.Load(),
		GraphHits:       graphs.hits.Load(),
		SliceBuilds:     slices.builds.Load(),
		SliceHits:       slices.hits.Load(),
		BytecodeBuilds:  bytecodes.builds.Load(),
		BytecodeHits:    bytecodes.hits.Load(),
		GraphBuildNS:    graphs.buildNS.Load(),
		SliceBuildNS:    slices.buildNS.Load(),
		BytecodeBuildNS: bytecodes.buildNS.Load(),
	}
}

// Reset drops every cached artifact and zeroes the counters. It exists
// so benchmarks can measure cold-cache behavior; concurrent diagnoses
// already in flight keep their (still valid) references.
func Reset() {
	graphs.reset()
	slices.reset()
	bytecodes.reset()
}
