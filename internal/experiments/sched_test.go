package experiments

import (
	"math"
	"os"
	"path/filepath"
	"testing"
)

func TestJainIndex(t *testing.T) {
	cases := []struct {
		name string
		xs   []float64
		want float64
	}{
		{"empty is vacuously fair", nil, 1},
		{"all zero is vacuously fair", []float64{0, 0, 0}, 1},
		{"equal shares", []float64{5, 5, 5, 5}, 1},
		{"one tenant monopolizes", []float64{10, 0, 0, 0}, 0.25},
		{"moderate skew", []float64{4, 2}, 0.9},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := JainIndex(c.xs); math.Abs(got-c.want) > 1e-9 {
				t.Errorf("JainIndex(%v) = %g, want %g", c.xs, got, c.want)
			}
		})
	}
}

// TestSchedBenchJSONRoundTrip runs a three-bug, two-width sched pass —
// which internally verifies every scheduled diagnosis against its
// serial baseline — and validates the artifact it writes, the same
// check CI's sched smoke step applies.
func TestSchedBenchJSONRoundTrip(t *testing.T) {
	res, err := Sched(Suite("pbzip2", "curl", "memcached"), []int{1, 2})
	if err != nil {
		t.Fatalf("Sched: %v", err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_sched.json")
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

	if len(res.Rows) != 2 || len(res.Campaigns) != 2 {
		t.Fatalf("want 2 passes, got %d rows / %d campaign maps", len(res.Rows), len(res.Campaigns))
	}
	for i, row := range res.Rows {
		if row.Fairness <= 0.5 {
			t.Errorf("pass %d: round-robin fairness %g suspiciously low", i, row.Fairness)
		}
		if row.Rounds == 0 || row.TotalRuns == 0 {
			t.Errorf("pass %d did no work: %+v", i, row)
		}
	}
	// The campaign labels must separate the tenants' telemetry.
	for i, camps := range res.Campaigns {
		for _, bug := range []string{"pbzip2", "curl", "memcached"} {
			cs, ok := camps[bug]
			if !ok {
				t.Fatalf("pass %d: no campaign telemetry for %s", i, bug)
			}
			if cs.Counters["fleet.dispatched"] <= 0 {
				t.Errorf("pass %d: campaign %s dispatched nothing", i, bug)
			}
		}
	}
}

// TestValidateSchedJSONRejects covers the malformed sched-artifact
// paths, including dispatch through ValidateBenchJSON.
func TestValidateSchedJSONRejects(t *testing.T) {
	cases := map[string]string{
		"not json":         `{`,
		"unknown exp":      `{"experiment":"mystery"}`,
		"no widths":        `{"experiment":"sched","bugs":["a"],"widths":[],"rows":[],"campaigns":[],"counters":[]}`,
		"no bugs":          `{"experiment":"sched","bugs":[],"widths":[1],"rows":[{"width":1}],"campaigns":[{}],"counters":[{}]}`,
		"misaligned":       `{"experiment":"sched","bugs":["a"],"widths":[1,2],"rows":[{"width":1}],"campaigns":[{}],"counters":[{}]}`,
		"width mismatch":   `{"experiment":"sched","bugs":["a"],"widths":[1],"rows":[{"width":3,"total_runs":1,"fairness":1}],"campaigns":[{"a":{"phases":{},"counters":{"fleet.dispatched":1}}}],"counters":[{"fleet.dispatched":1}]}`,
		"no runs":          `{"experiment":"sched","bugs":["a"],"widths":[1],"rows":[{"width":1,"total_runs":0,"fairness":1}],"campaigns":[{"a":{"phases":{},"counters":{"fleet.dispatched":1}}}],"counters":[{"fleet.dispatched":1}]}`,
		"bad fairness":     `{"experiment":"sched","bugs":["a"],"widths":[1],"rows":[{"width":1,"total_runs":5,"fairness":1.5}],"campaigns":[{"a":{"phases":{},"counters":{"fleet.dispatched":1}}}],"counters":[{"fleet.dispatched":1}]}`,
		"missing campaign": `{"experiment":"sched","bugs":["a"],"widths":[1],"rows":[{"width":1,"total_runs":5,"fairness":1}],"campaigns":[{}],"counters":[{"fleet.dispatched":1}]}`,
	}
	for name, data := range cases {
		if err := ValidateBenchJSON([]byte(data)); err == nil {
			t.Errorf("%s: validated, want error", name)
		}
	}
}
