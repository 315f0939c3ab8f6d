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

type graphEntry struct {
	once sync.Once
	g    *cfg.TICFG
}

type sliceKey struct {
	prog *ir.Program
	id   int
}

type sliceEntry struct {
	once sync.Once
	sl   *slicer.Slice // pristine master; callers get clones
}

type bytecodeEntry struct {
	once sync.Once
	bp   *bytecode.Program
}

var (
	mu        sync.Mutex
	graphs    = make(map[*ir.Program]*graphEntry)
	slices    = make(map[sliceKey]*sliceEntry)
	bytecodes = make(map[*ir.Program]*bytecodeEntry)

	graphBuilds, graphHits       atomic.Int64
	sliceBuilds, sliceHits       atomic.Int64
	bytecodeBuilds, bytecodeHits atomic.Int64
	// Cumulative wall time spent inside cache-miss builds, the number
	// Snapshot reports as the offline static-analysis cost
	// (§5.3's "analysis time"). Hits cost nothing by design; only
	// misses accumulate here.
	graphBuildNS, sliceBuildNS, bytecodeBuildNS atomic.Int64
)

// Graph returns the memoized TICFG for p, building it on first use.
// The returned graph is shared: it is read-only after construction and
// must not be mutated.
func Graph(p *ir.Program) *cfg.TICFG {
	mu.Lock()
	e := graphs[p]
	if e == nil {
		e = &graphEntry{}
		graphs[p] = e
	}
	mu.Unlock()
	hit := true
	e.once.Do(func() {
		hit = false
		graphBuilds.Add(1)
		t0 := time.Now()
		e.g = cfg.BuildTICFG(p)
		graphBuildNS.Add(time.Since(t0).Nanoseconds())
	})
	if hit {
		graphHits.Add(1)
	}
	return e.g
}

// Slice returns the backward slice of p rooted at failingID, computed at
// most once per (program, PC) and returned as an independent clone that
// the caller may refine freely.
func Slice(p *ir.Program, failingID int) *slicer.Slice {
	mu.Lock()
	key := sliceKey{p, failingID}
	e := slices[key]
	if e == nil {
		e = &sliceEntry{}
		slices[key] = e
	}
	mu.Unlock()
	hit := true
	e.once.Do(func() {
		hit = false
		sliceBuilds.Add(1)
		t0 := time.Now()
		e.sl = slicer.Compute(Graph(p), failingID)
		sliceBuildNS.Add(time.Since(t0).Nanoseconds())
	})
	if hit {
		sliceHits.Add(1)
	}
	return e.sl.Clone()
}

// Bytecode returns the memoized bytecode compilation of p, building it
// on first use, and reports whether this call hit the cache. The
// returned program is shared safely across goroutines: its instruction
// stream is immutable after compilation and each Run draws a private
// pooled machine. Every fleet worker, scheduler lane, and service agent
// executing the same *ir.Program therefore pays compilation exactly
// once per process.
func Bytecode(p *ir.Program) (*bytecode.Program, bool) {
	mu.Lock()
	e := bytecodes[p]
	if e == nil {
		e = &bytecodeEntry{}
		bytecodes[p] = e
	}
	mu.Unlock()
	hit := true
	e.once.Do(func() {
		hit = false
		bytecodeBuilds.Add(1)
		t0 := time.Now()
		e.bp = bytecode.Compile(p)
		bytecodeBuildNS.Add(time.Since(t0).Nanoseconds())
	})
	if hit {
		bytecodeHits.Add(1)
	}
	return e.bp, hit
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
		GraphBuilds:     graphBuilds.Load(),
		GraphHits:       graphHits.Load(),
		SliceBuilds:     sliceBuilds.Load(),
		SliceHits:       sliceHits.Load(),
		BytecodeBuilds:  bytecodeBuilds.Load(),
		BytecodeHits:    bytecodeHits.Load(),
		GraphBuildNS:    graphBuildNS.Load(),
		SliceBuildNS:    sliceBuildNS.Load(),
		BytecodeBuildNS: bytecodeBuildNS.Load(),
	}
}

// Reset drops every cached artifact and zeroes the counters. It exists
// so benchmarks can measure cold-cache behavior; concurrent diagnoses
// already in flight keep their (still valid) references.
func Reset() {
	mu.Lock()
	graphs = make(map[*ir.Program]*graphEntry)
	slices = make(map[sliceKey]*sliceEntry)
	bytecodes = make(map[*ir.Program]*bytecodeEntry)
	mu.Unlock()
	graphBuilds.Store(0)
	graphHits.Store(0)
	sliceBuilds.Store(0)
	sliceHits.Store(0)
	bytecodeBuilds.Store(0)
	bytecodeHits.Store(0)
	graphBuildNS.Store(0)
	sliceBuildNS.Store(0)
	bytecodeBuildNS.Store(0)
}
