// Package telemetry is the pipeline's self-observation layer: phase
// spans (how long each stage of a diagnosis took), counters and gauges
// (what the fleet, the caches, and the fault injector did), a
// structured JSONL event log, and point-in-time metrics snapshots.
//
// The paper measures Gist's own runtime per phase (§5.3: static
// analysis vs. slice tracking vs. ranking) and argues that an
// in-production tool must account for its own overhead; this package is
// that accounting for the reproduction, covering the layers later PRs
// added (parallel fleet, memoized analysis, chaos injection).
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
	"io"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"
)

// Canonical phase names recorded by the pipeline. Keeping them as
// constants makes the BENCH JSON schema and the DESIGN.md inventory
// greppable from one place.
const (
	PhaseDiscovery    = "discovery"     // uninstrumented search for the first failure
	PhaseTICFG        = "ticfg_build"   // thread-interleaved CFG construction
	PhaseSlice        = "slice"         // backward slicing (incl. deadlock merge)
	PhasePlan         = "plan_build"    // PT start/stop + watchpoint planning per σ
	PhaseRunExec      = "run_exec"      // one instrumented production run (client side)
	PhaseDecode       = "pt_decode"     // PT trace decode incl. salvage
	PhaseWatch        = "watch_collect" // watchpoint trap collection + transit faults
	PhaseFleet        = "fleet_collect" // one iteration's fleet dispatch + admission
	PhaseRank         = "rank"          // predictor extraction + statistical ranking
	PhaseSketch       = "sketch_render" // failure-sketch assembly
	EventRuntimeStats = "runtime"       // periodic runtime.MemStats sample
)

// PhaseStat aggregates every span recorded under one phase name.
type PhaseStat struct {
	Count   int64 `json:"count"`
	TotalNS int64 `json:"total_ns"`
	MaxNS   int64 `json:"max_ns"`
}

// TotalMS is TotalNS in milliseconds, for human-facing tables.
func (p PhaseStat) TotalMS() float64 { return float64(p.TotalNS) / 1e6 }

// Tracer records spans, counters, and gauges, optionally streaming each
// span as one JSONL event. The zero value is NOT usable; construct with
// New or NewWithWriter. A nil *Tracer disables everything.
type Tracer struct {
	mu       sync.Mutex
	start    time.Time
	w        io.Writer // optional JSONL sink
	werr     error     // first write error, reported by Err
	phases   map[string]*PhaseStat
	counters map[string]int64
	gauges   map[string]int64
	// campaigns holds per-tenant aggregates keyed by campaign label, so
	// one tracer shared by a multi-bug scheduler can still attribute
	// spans and counters to the diagnosis that produced them.
	campaigns map[string]*campaignAgg
}

// campaignAgg is one campaign label's private aggregate view.
type campaignAgg struct {
	phases   map[string]*PhaseStat
	counters map[string]int64
}

// New returns a Tracer that aggregates in memory only.
func New() *Tracer { return NewWithWriter(nil) }

// NewWithWriter returns a Tracer that additionally streams one JSON
// object per line to w (a span event per ended span, a runtime event
// per sampler tick). w may be nil.
func NewWithWriter(w io.Writer) *Tracer {
	return &Tracer{
		start:     time.Now(),
		w:         w,
		phases:    make(map[string]*PhaseStat),
		counters:  make(map[string]int64),
		gauges:    make(map[string]int64),
		campaigns: make(map[string]*campaignAgg),
	}
}

// OpenTrace creates path and returns a Tracer streaming JSONL to it and
// a close function that flushes and closes the file. The caller must
// invoke close before reading metrics that depend on the file.
func OpenTrace(path string) (*Tracer, func() error, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	bw := bufio.NewWriter(f)
	t := NewWithWriter(bw)
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
	label string
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

// StartSpanL is StartSpan with a campaign label: the span still folds
// into the global phase aggregate, but additionally into the labeled
// campaign's view, and the JSONL event carries the label. An empty
// label is exactly StartSpan, so unlabeled pipelines emit byte-identical
// event logs.
func (t *Tracer) StartSpanL(name, label string) Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, name: name, label: label, start: time.Now()}
}

// End finishes the span, folding its duration into the phase aggregate
// and emitting a JSONL event when the tracer has a writer.
func (s Span) End() {
	if s.t == nil {
		return
	}
	d := time.Since(s.start)
	t := s.t
	t.mu.Lock()
	fold := func(phases map[string]*PhaseStat) {
		ps := phases[s.name]
		if ps == nil {
			ps = &PhaseStat{}
			phases[s.name] = ps
		}
		ps.Count++
		ps.TotalNS += d.Nanoseconds()
		if d.Nanoseconds() > ps.MaxNS {
			ps.MaxNS = d.Nanoseconds()
		}
	}
	fold(t.phases)
	if s.label != "" {
		fold(t.campaign(s.label).phases)
	}
	if t.w != nil && t.werr == nil {
		var err error
		if s.label != "" {
			_, err = fmt.Fprintf(t.w, `{"ev":"span","name":%q,"campaign":%q,"t_us":%d,"dur_us":%d}`+"\n",
				s.name, s.label, s.start.Sub(t.start).Microseconds(), d.Microseconds())
		} else {
			_, err = fmt.Fprintf(t.w, `{"ev":"span","name":%q,"t_us":%d,"dur_us":%d}`+"\n",
				s.name, s.start.Sub(t.start).Microseconds(), d.Microseconds())
		}
		if err != nil {
			t.werr = err
		}
	}
	t.mu.Unlock()
}

// campaign returns (creating on first use) the labeled aggregate.
// Callers must hold t.mu.
func (t *Tracer) campaign(label string) *campaignAgg {
	c := t.campaigns[label]
	if c == nil {
		c = &campaignAgg{
			phases:   make(map[string]*PhaseStat),
			counters: make(map[string]int64),
		}
		t.campaigns[label] = c
	}
	return c
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

// AddL increments a named counter under a campaign label: the global
// counter advances exactly as with Add, and the labeled campaign's
// private counter advances alongside it. An empty label is exactly Add.
// Nil-safe.
func (t *Tracer) AddL(label, name string, delta int64) {
	if t == nil || delta == 0 {
		return
	}
	t.mu.Lock()
	t.counters[name] += delta
	if label != "" {
		t.campaign(label).counters[name] += delta
	}
	t.mu.Unlock()
}

// SetGauge records the latest value of a named gauge. Nil-safe.
func (t *Tracer) SetGauge(name string, v int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.gauges[name] = v
	t.mu.Unlock()
}

// Counter returns the current value of a counter (0 on a nil Tracer).
func (t *Tracer) Counter(name string) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counters[name]
}

// Err reports the first JSONL write error, if any.
func (t *Tracer) Err() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.werr
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

// CampaignStats is one campaign label's slice of a snapshot: the phase
// spans and counters attributed to that tenant via StartSpanL/AddL.
type CampaignStats struct {
	Phases   map[string]PhaseStat `json:"phases"`
	Counters map[string]int64     `json:"counters"`
}

// Snapshot is a point-in-time view of everything the tracer knows.
type Snapshot struct {
	UptimeMS float64              `json:"uptime_ms"`
	Phases   map[string]PhaseStat `json:"phases"`
	Counters map[string]int64     `json:"counters"`
	Gauges   map[string]int64     `json:"gauges,omitempty"`
	// Campaigns separates the labeled tenants of a multi-campaign run
	// (the scheduler labels each diagnosis), absent when nothing was
	// labeled so single-tenant snapshots keep their historical schema.
	Campaigns map[string]CampaignStats `json:"campaigns,omitempty"`
	Runtime   RuntimeStats             `json:"runtime"`
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
	if len(t.gauges) > 0 {
		snap.Gauges = make(map[string]int64, len(t.gauges))
		for name, v := range t.gauges {
			snap.Gauges[name] = v
		}
	}
	if len(t.campaigns) > 0 {
		snap.Campaigns = make(map[string]CampaignStats, len(t.campaigns))
		for label, c := range t.campaigns {
			cs := CampaignStats{
				Phases:   make(map[string]PhaseStat, len(c.phases)),
				Counters: make(map[string]int64, len(c.counters)),
			}
			for name, ps := range c.phases {
				cs.Phases[name] = *ps
			}
			for name, v := range c.counters {
				cs.Counters[name] = v
			}
			snap.Campaigns[label] = cs
		}
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

// PhaseNames returns the recorded phase names, sorted, for stable
// rendering.
func (s Snapshot) PhaseNames() []string {
	names := make([]string, 0, len(s.Phases))
	for name := range s.Phases {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// StartRuntimeSampler emits one EventRuntimeStats JSONL event and
// refreshes runtime gauges every period until the returned stop
// function is called. Nil-safe; stop is idempotent.
func (t *Tracer) StartRuntimeSampler(period time.Duration) (stop func()) {
	if t == nil {
		return func() {}
	}
	if period <= 0 {
		period = 5 * time.Second
	}
	done := make(chan struct{})
	var once sync.Once
	go func() {
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				t.sampleRuntime()
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}

func (t *Tracer) sampleRuntime() {
	rs := readRuntimeStats()
	t.mu.Lock()
	t.gauges["runtime.heap_alloc_bytes"] = int64(rs.HeapAllocBytes)
	t.gauges["runtime.num_goroutine"] = int64(rs.NumGoroutine)
	t.gauges["runtime.num_gc"] = int64(rs.NumGC)
	if t.w != nil && t.werr == nil {
		_, err := fmt.Fprintf(t.w,
			`{"ev":%q,"t_us":%d,"heap_alloc_bytes":%d,"total_alloc_bytes":%d,"num_gc":%d,"num_goroutine":%d}`+"\n",
			EventRuntimeStats, time.Since(t.start).Microseconds(),
			rs.HeapAllocBytes, rs.TotalAllocBytes, rs.NumGC, rs.NumGoroutine)
		if err != nil {
			t.werr = err
		}
	}
	t.mu.Unlock()
}
