// Package telemetry is the pipeline's self-observation layer: one
// aggregate per Tracer of phase spans (how long each stage of a
// diagnosis took) and flat counters (what the fleet, the checkpoint
// store, the supervisor and the fault injector did), an optional JSONL
// span log, and a metrics snapshot that adds the Go runtime's stats at
// the moment it is taken.
//
// The paper measures Gist's own runtime per phase (§5.3: static
// analysis vs. slice tracking vs. ranking) and argues that an
// in-production tool must account for its own overhead; this package is
// that accounting for the reproduction. Live process state (heap,
// goroutines, profiles) is net/http/pprof's job, not this package's.
//
// Two contracts shape the design:
//
//   - Zero cost when off. A nil *Tracer is fully functional: every
//     method is a no-op that allocates nothing, StartSpan returns a
//     stack-value Span whose End does nothing, so hot paths can be
//     instrumented unconditionally.
//   - Determinism-neutral. Telemetry only observes; nothing the
//     pipeline computes may depend on a Tracer. Recorded durations and
//     timestamps are wall-clock and therefore vary run to run, but the
//     diagnosis output (sketches, rankings, FleetHealth) is byte-identical
//     with tracing on or off, at any worker width —
//     TestTelemetryDeterminism in internal/experiments enforces this.
//
// Concurrency: a Tracer is safe for concurrent use; fleet workers
// record spans from their own goroutines. Counter updates and span
// aggregation are mutex-protected (spans end at run granularity, not
// per instruction, so contention is negligible).
package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"
)

// Canonical phase names recorded by the pipeline. Keeping them as
// constants makes the metrics schema and the DESIGN.md inventory
// greppable from one place.
const (
	PhaseDiscovery = "discovery"     // uninstrumented search for the first failure
	PhaseTICFG     = "ticfg_build"   // thread-interleaved CFG construction
	PhaseSlice     = "slice"         // backward slicing (incl. deadlock merge)
	PhasePlan      = "plan_build"    // PT start/stop + watchpoint planning per σ
	PhaseRunExec   = "run_exec"      // one instrumented production run (client side)
	PhaseDecode    = "pt_decode"     // PT trace corruption + decode incl. salvage (server side)
	PhaseWatch     = "watch_collect" // trap-log transit faults (server side)
	PhaseFleet     = "fleet_collect" // one iteration's fleet dispatch + admission
	PhaseRank      = "rank"          // predictor extraction + statistical ranking
	PhaseSketch    = "sketch_render" // failure-sketch assembly
)

// PhaseStat aggregates every span recorded under one phase name.
type PhaseStat struct {
	Count   int64 `json:"count"`
	TotalNS int64 `json:"total_ns"`
	MaxNS   int64 `json:"max_ns"`
}

// TotalMS is TotalNS in milliseconds, for human-facing tables.
func (p PhaseStat) TotalMS() float64 { return float64(p.TotalNS) / 1e6 }

// Tracer records spans and counters, optionally streaming each span as
// one JSONL event. The zero value is NOT usable; construct with New or
// OpenTrace. A nil *Tracer disables everything.
type Tracer struct {
	mu       sync.Mutex
	start    time.Time
	w        *bufio.Writer // optional JSONL sink; it keeps the first write error
	phases   map[string]*PhaseStat
	counters map[string]int64
}

// New returns a Tracer that aggregates in memory only.
func New() *Tracer { return newWithWriter(nil) }

// newWithWriter returns a Tracer that additionally streams one JSON
// object per ended span to w. w may be nil.
func newWithWriter(w *bufio.Writer) *Tracer {
	return &Tracer{
		start:    time.Now(),
		w:        w,
		phases:   make(map[string]*PhaseStat),
		counters: make(map[string]int64),
	}
}

// OpenTrace creates path and returns a Tracer streaming JSONL to it and
// a close function that flushes and closes the file. The caller must
// invoke close before reading metrics that depend on the file. The
// buffered writer keeps the first write error, so close reports it.
func OpenTrace(path string) (*Tracer, func() error, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	bw := bufio.NewWriter(f)
	t := newWithWriter(bw)
	closeFn := func() error {
		t.mu.Lock()
		ferr := bw.Flush()
		t.mu.Unlock()
		if cerr := f.Close(); ferr == nil {
			ferr = cerr
		}
		return ferr
	}
	return t, closeFn, nil
}

// Span is one in-flight phase measurement. The zero value (from a nil
// Tracer) is inert.
type Span struct {
	t     *Tracer
	name  string
	start time.Time
}

// StartSpan begins timing one phase occurrence. On a nil Tracer it
// returns an inert Span without touching the clock.
func (t *Tracer) StartSpan(name string) Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, name: name, start: time.Now()}
}

// End finishes the span, folding its duration into the phase aggregate
// and emitting a JSONL event when the tracer has a writer.
func (s Span) End() {
	if s.t == nil {
		return
	}
	d := time.Since(s.start).Nanoseconds()
	t := s.t
	t.mu.Lock()
	ps := t.phases[s.name]
	if ps == nil {
		ps = &PhaseStat{}
		t.phases[s.name] = ps
	}
	ps.Count++
	ps.TotalNS += d
	ps.MaxNS = max(ps.MaxNS, d)
	if t.w != nil { // a failed write sticks in t.w, and OpenTrace's close reports it
		fmt.Fprintf(t.w, `{"ev":"span","name":%q,"t_us":%d,"dur_us":%d}`+"\n",
			s.name, s.start.Sub(t.start).Microseconds(), d/1e3)
	}
	t.mu.Unlock()
}

// Add increments a named counter. Nil-safe.
func (t *Tracer) Add(name string, delta int64) {
	if t == nil || delta == 0 {
		return
	}
	t.mu.Lock()
	t.counters[name] += delta
	t.mu.Unlock()
}

// RuntimeStats is the Go-runtime portion of a snapshot.
type RuntimeStats struct {
	GoMaxProcs      int     `json:"gomaxprocs"`
	NumGoroutine    int     `json:"num_goroutine"`
	HeapAllocBytes  uint64  `json:"heap_alloc_bytes"`
	TotalAllocBytes uint64  `json:"total_alloc_bytes"`
	NumGC           uint32  `json:"num_gc"`
	PauseTotalMS    float64 `json:"pause_total_ms"`
}

func readRuntimeStats() RuntimeStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return RuntimeStats{
		GoMaxProcs:      runtime.GOMAXPROCS(0),
		NumGoroutine:    runtime.NumGoroutine(),
		HeapAllocBytes:  ms.HeapAlloc,
		TotalAllocBytes: ms.TotalAlloc,
		NumGC:           ms.NumGC,
		PauseTotalMS:    float64(ms.PauseTotalNs) / 1e6,
	}
}

// Snapshot is a point-in-time view of everything the tracer knows.
type Snapshot struct {
	UptimeMS float64              `json:"uptime_ms"`
	Phases   map[string]PhaseStat `json:"phases"`
	Counters map[string]int64     `json:"counters"`
	Runtime  RuntimeStats         `json:"runtime"`
}

// Snapshot captures the current aggregates. On a nil Tracer it returns
// a zero snapshot (with empty, non-nil maps) so callers can serialize
// it unconditionally.
func (t *Tracer) Snapshot() Snapshot {
	snap := Snapshot{
		Phases:   make(map[string]PhaseStat),
		Counters: make(map[string]int64),
	}
	if t == nil {
		return snap
	}
	t.mu.Lock()
	snap.UptimeMS = float64(time.Since(t.start).Nanoseconds()) / 1e6
	for name, ps := range t.phases {
		snap.Phases[name] = *ps
	}
	for name, v := range t.counters {
		snap.Counters[name] = v
	}
	t.mu.Unlock()
	snap.Runtime = readRuntimeStats()
	return snap
}

// WriteMetricsJSON serializes a snapshot (indented, trailing newline)
// to path. Nil-safe: a nil Tracer writes a zero snapshot, so a CLI can
// honor -metrics-json without special-casing disabled telemetry.
func (t *Tracer) WriteMetricsJSON(path string) error {
	data, err := json.MarshalIndent(t.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
