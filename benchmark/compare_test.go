package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// synthetic writes a result file in which every end-to-end metric of
// every workload reads base × scale(metric), once per factor in wobble.
func synthetic(t *testing.T, spec *benchSpec, name string, wobble []float64, scale func(metricSpec) float64, failed int) string {
	t.Helper()
	f := resultFile{}
	for _, w := range workloadNames {
		for _, k := range wobble {
			r := &runResult{Workload: w, Correct: failed == 0, Attempted: 1000, Failed: failed, Metrics: map[string]metricValue{}}
			for _, m := range spec.EndToEnd {
				r.Metrics[m.Name] = metricValue{Value: 100 * k * scale(m), Unit: m.Unit}
			}
			f.Runs = append(f.Runs, r)
		}
	}
	data, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompare(t *testing.T) {
	spec, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	steady := []float64{1, 1.004, 0.996}
	same := func(metricSpec) float64 { return 1 }
	base := synthetic(t, spec, "base.json", steady, same, 0)
	run := func(old, new string) (bool, string) {
		var sb strings.Builder
		regressed, err := compareFiles(&sb, spec, old, new)
		if err != nil {
			t.Fatal(err)
		}
		return regressed, sb.String()
	}

	// A 3 % wobble in the bad direction of every measured metric passes;
	// the exact count metrics (bound 1 %) do not wobble.
	exact := func(m metricSpec) bool { return *m.Bound < 0.03 }
	wobble := synthetic(t, spec, "wobble.json", steady, func(m metricSpec) float64 {
		switch {
		case exact(m):
			return 1
		case m.Better == "higher":
			return 0.97
		}
		return 1.03
	}, 0)
	if regressed, out := run(base, wobble); regressed || strings.Contains(out, verdictRegressed) {
		t.Errorf("3 %% wobble flagged:\n%s", out)
	}

	// 20 % more allocation per operation is a regression, and so is 30 %
	// less throughput; the other rows stay ok.
	worse := synthetic(t, spec, "worse.json", steady, func(m metricSpec) float64 {
		switch m.Name {
		case "alloc_kb_per_op":
			return 1.2
		case "ops_per_sec":
			return 0.7
		}
		return 1
	}, 0)
	regressed, out := run(base, worse)
	if !regressed {
		t.Errorf("regressions not flagged:\n%s", out)
	}
	if got := strings.Count(out, verdictRegressed); got != 2*len(workloadNames) {
		t.Errorf("%d regressed rows, want two per workload (%d):\n%s", got, 2*len(workloadNames), out)
	}
	// The other way round it is a gain, not a regression.
	if regressed, out := run(worse, base); regressed {
		t.Errorf("a gain was flagged:\n%s", out)
	}

	// Runs whose own spread exceeds the bound cannot show "unchanged".
	noisy := synthetic(t, spec, "noisy.json", []float64{0.7, 1, 1.3}, same, 0)
	if regressed, out := run(base, noisy); regressed || !strings.Contains(out, verdictUnresolved) {
		t.Errorf("spread wider than the bound not reported as unresolved:\n%s", out)
	}

	// A higher share of failed operations fails the comparison by itself.
	failing := synthetic(t, spec, "failing.json", steady, same, 3)
	if regressed, out := run(base, failing); !regressed || !strings.Contains(out, "failed-operation share rose") {
		t.Errorf("risen failure share not flagged:\n%s", out)
	}
}
