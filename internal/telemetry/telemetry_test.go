package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// A nil Tracer must be a complete no-op: every method callable, zero
// allocations on the span path.
func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	sp := tr.StartSpan(PhaseRank)
	sp.End()
	tr.Add("x", 1)
	if tr.Counter("x") != 0 {
		t.Fatal("nil tracer counter should read 0")
	}
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
	snap := tr.Snapshot()
	if len(snap.Phases) != 0 || len(snap.Counters) != 0 {
		t.Fatalf("nil snapshot not empty: %+v", snap)
	}
}

func TestNilSpanPathAllocationFree(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		sp := tr.StartSpan(PhaseDecode)
		sp.End()
		tr.Add("c", 1)
	})
	if allocs != 0 {
		t.Fatalf("nil telemetry path allocates: %v allocs/op", allocs)
	}
}

func TestSpanAggregation(t *testing.T) {
	tr := New()
	for i := 0; i < 3; i++ {
		sp := tr.StartSpan(PhaseSlice)
		sp.End()
	}
	snap := tr.Snapshot()
	ps, ok := snap.Phases[PhaseSlice]
	if !ok || ps.Count != 3 {
		t.Fatalf("want 3 slice spans, got %+v", snap.Phases)
	}
	if ps.TotalNS < 0 || ps.MaxNS > ps.TotalNS {
		t.Fatalf("inconsistent aggregate: %+v", ps)
	}
}

func TestCountersAndGauges(t *testing.T) {
	tr := New()
	tr.Add("fleet.lost", 2)
	tr.Add("fleet.lost", 3)
	tr.Add("zero", 0) // no-op, should not materialize
	if got := tr.Counter("fleet.lost"); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	snap := tr.Snapshot()
	if _, ok := snap.Counters["zero"]; ok {
		t.Fatal("zero delta should not create a counter")
	}
}

// Every JSONL line must parse as a JSON object with the event schema.
func TestJSONLWellFormed(t *testing.T) {
	var buf bytes.Buffer
	tr := NewWithWriter(&buf)
	sp := tr.StartSpan(PhaseRank)
	sp.End()
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	lines := 0
	for sc.Scan() {
		lines++
		var ev map[string]any
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %d not JSON: %v: %s", lines, err, sc.Text())
		}
		if _, ok := ev["ev"]; !ok {
			t.Fatalf("line %d missing ev field: %s", lines, sc.Text())
		}
	}
	if lines != 1 {
		t.Fatalf("want 1 span event, got %d", lines)
	}
}

func TestOpenTraceRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	tr, closeFn, err := OpenTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	sp := tr.StartSpan(PhaseSketch)
	sp.End()
	if err := closeFn(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"name":"sketch_render"`) {
		t.Fatalf("trace file missing span: %s", data)
	}
}

func TestWriteMetricsJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.json")
	tr := New()
	tr.Add("cache.graph_builds", 1)
	sp := tr.StartSpan(PhaseTICFG)
	sp.End()
	if err := tr.WriteMetricsJSON(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["cache.graph_builds"] != 1 {
		t.Fatalf("counter lost in round trip: %+v", snap)
	}
	if _, ok := snap.Phases[PhaseTICFG]; !ok {
		t.Fatalf("phase lost in round trip: %+v", snap)
	}
	if snap.Runtime.GoMaxProcs < 1 {
		t.Fatalf("runtime stats missing: %+v", snap.Runtime)
	}

	// A nil tracer still writes a valid (zero) snapshot.
	var nilTr *Tracer
	if err := nilTr.WriteMetricsJSON(path); err != nil {
		t.Fatal(err)
	}
}

// Spans and counters from many goroutines must aggregate without loss.
func TestConcurrentRecording(t *testing.T) {
	tr := New()
	var wg sync.WaitGroup
	const workers, per = 8, 50
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				sp := tr.StartSpan(PhaseRunExec)
				tr.Add("runs", 1)
				sp.End()
			}
		}()
	}
	wg.Wait()
	snap := tr.Snapshot()
	if snap.Phases[PhaseRunExec].Count != workers*per {
		t.Fatalf("span count = %d, want %d", snap.Phases[PhaseRunExec].Count, workers*per)
	}
	if snap.Counters["runs"] != workers*per {
		t.Fatalf("counter = %d, want %d", snap.Counters["runs"], workers*per)
	}
}
