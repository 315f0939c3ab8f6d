package experiments

import (
	"os"
	"path/filepath"
	"testing"
)

// TestShardBenchJSONRoundTrip runs a three-bug, two-proc shard pass —
// which internally verifies every fleet sketch against the
// single-process baseline and kills a worker in the chaos pass — and
// validates the artifact it writes, the same check CI's shard smoke
// step applies.
func TestShardBenchJSONRoundTrip(t *testing.T) {
	res, err := Shard(Suite("pbzip2", "curl", "memcached"), []int{1, 2})
	if err != nil {
		t.Fatalf("Shard: %v", err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_shard.json")
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

	if len(res.Rows) != 2 {
		t.Fatalf("want 2 passes, got %d rows", len(res.Rows))
	}
	for i, row := range res.Rows {
		if row.TotalRuns == 0 {
			t.Errorf("pass %d did no work: %+v", i, row)
		}
		if !row.Identical {
			t.Errorf("pass %d not verified byte-identical", i)
		}
		if len(row.PerWorkerRuns) != row.Procs {
			t.Errorf("pass %d: %d per-worker entries for %d procs", i, len(row.PerWorkerRuns), row.Procs)
		}
	}
	if res.Chaos == nil {
		t.Fatalf("no chaos pass")
	}
	if res.Chaos.Takeovers == 0 || !res.Chaos.Identical {
		t.Errorf("chaos pass = %+v, want at least one byte-identical takeover", res.Chaos)
	}
}

// TestValidateShardJSONRejects covers the malformed shard-artifact
// paths, including dispatch through ValidateBenchJSON.
func TestValidateShardJSONRejects(t *testing.T) {
	chaos := `"chaos":{"procs":3,"victim":"w1","takeovers":1,"identical":true}`
	cases := map[string]string{
		"not json":       `{`,
		"no procs":       `{"experiment":"shard","bugs":["a"],"procs":[],"rows":[],` + chaos + `}`,
		"no bugs":        `{"experiment":"shard","bugs":[],"procs":[1],"rows":[{"procs":1}],` + chaos + `}`,
		"misaligned":     `{"experiment":"shard","bugs":["a"],"procs":[1,2],"rows":[{"procs":1}],` + chaos + `}`,
		"procs mismatch": `{"experiment":"shard","bugs":["a"],"procs":[1],"rows":[{"procs":3,"total_runs":1,"fairness":1,"per_worker_runs":[1,1,1],"identical":true}],` + chaos + `}`,
		"no runs":        `{"experiment":"shard","bugs":["a"],"procs":[1],"rows":[{"procs":1,"total_runs":0,"fairness":1,"per_worker_runs":[0],"identical":true}],` + chaos + `}`,
		"bad fairness":   `{"experiment":"shard","bugs":["a"],"procs":[1],"rows":[{"procs":1,"total_runs":5,"fairness":1.5,"per_worker_runs":[5],"identical":true}],` + chaos + `}`,
		"short workers":  `{"experiment":"shard","bugs":["a"],"procs":[2],"rows":[{"procs":2,"total_runs":5,"fairness":1,"per_worker_runs":[5],"identical":true}],` + chaos + `}`,
		"not identical":  `{"experiment":"shard","bugs":["a"],"procs":[1],"rows":[{"procs":1,"total_runs":5,"fairness":1,"per_worker_runs":[5],"identical":false}],` + chaos + `}`,
		"no chaos":       `{"experiment":"shard","bugs":["a"],"procs":[1],"rows":[{"procs":1,"total_runs":5,"fairness":1,"per_worker_runs":[5],"identical":true}]}`,
		"chaos no steal": `{"experiment":"shard","bugs":["a"],"procs":[1],"rows":[{"procs":1,"total_runs":5,"fairness":1,"per_worker_runs":[5],"identical":true}],"chaos":{"procs":3,"victim":"w1","takeovers":0,"identical":true}}`,
		"chaos diverged": `{"experiment":"shard","bugs":["a"],"procs":[1],"rows":[{"procs":1,"total_runs":5,"fairness":1,"per_worker_runs":[5],"identical":true}],"chaos":{"procs":3,"victim":"w1","takeovers":1,"identical":false}}`,
	}
	for name, data := range cases {
		if err := ValidateBenchJSON([]byte(data)); err == nil {
			t.Errorf("%s: validated, want error", name)
		}
	}
}
