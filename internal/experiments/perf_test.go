package experiments

import (
	"os"
	"path/filepath"
	"testing"
)

// TestPerfBenchJSONRoundTrip runs a one-bug, one-width perf pass and
// validates the JSON it writes against the observability schema — the
// same check CI's smoke step applies to its artifact.
func TestPerfBenchJSONRoundTrip(t *testing.T) {
	res, err := Perf(Suite("pbzip2"), []int{1})
	if err != nil {
		t.Fatalf("Perf: %v", err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_fleet.json")
	if err := WriteJSON(path, res); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateBenchJSON(data); err != nil {
		t.Fatalf("ValidateBenchJSON: %v", err)
	}

	// The pass really did the work: the phase rows the schema requires
	// must carry live measurements, not just materialized zeros.
	if len(res.Phases) != 1 || len(res.Counters) != 1 {
		t.Fatalf("want 1 pass, got %d phase rows / %d counter rows", len(res.Phases), len(res.Counters))
	}
	byName := map[string]PhaseRow{}
	for _, row := range res.Phases[0] {
		byName[row.Phase] = row
	}
	for _, name := range RequiredPhases {
		if byName[name].Count == 0 {
			t.Errorf("required phase %q recorded no spans", name)
		}
	}
	c := res.Counters[0]
	for _, name := range []string{"cache.graph_builds", "cache.slice_builds", "pt.decode_calls", "watch.arms", "fleet.dispatched"} {
		if c[name] <= 0 {
			t.Errorf("counter %q = %d, want > 0", name, c[name])
		}
	}
	if c["faults.injected_runs"] != 0 {
		t.Errorf("reliable fleet counted %d injected runs", c["faults.injected_runs"])
	}
}

// TestValidateBenchJSONRejects covers the malformed-artifact paths.
func TestValidateBenchJSONRejects(t *testing.T) {
	cases := map[string]string{
		"not json":         `{`,
		"wrong experiment": `{"experiment":"chaos","workers":[1],"phase_breakdown":[[]],"counters":[{}]}`,
		"no passes":        `{"experiment":"perf","workers":[],"phase_breakdown":[],"counters":[]}`,
		"misaligned":       `{"experiment":"perf","workers":[1,2],"phase_breakdown":[[]],"counters":[{}]}`,
		"missing phase":    `{"experiment":"perf","workers":[1],"phase_breakdown":[[{"phase":"slice","count":1,"total_ms":1,"max_ms":1}]],"counters":[{"cache.graph_builds":1,"cache.slice_builds":1,"faults.injected_runs":0,"fleet.dispatched":1}]}`,
		"negative field":   `{"experiment":"perf","workers":[1],"phase_breakdown":[[{"phase":"slice","count":-1,"total_ms":1,"max_ms":1}]],"counters":[{}]}`,
	}
	for name, data := range cases {
		if err := ValidateBenchJSON([]byte(data)); err == nil {
			t.Errorf("%s: validated, want error", name)
		}
	}
}
