package experiments

import (
	"os"
	"path/filepath"
	"testing"
)

// TestServiceLoadExperiment runs a reduced fleet — two tenants, forty
// agents, transport faults on — and checks every diagnosis came back
// byte-identical and the BENCH artifact validates.
func TestServiceLoadExperiment(t *testing.T) {
	res, err := ServiceLoad("deadlock", 2, 20, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reports != 2 || !res.Identical {
		t.Fatalf("result: %+v", res)
	}
	if res.Agents != 40 {
		t.Errorf("agents = %d, want 40", res.Agents)
	}
	if res.LostTasks != 0 {
		t.Errorf("%d tasks lost under transport faults; retries and leases must cover them", res.LostTasks)
	}
	if res.ReportsPerSec <= 0 || res.RequestsPerSec <= 0 {
		t.Errorf("throughput not recorded: %+v", res)
	}
	if len(res.RPCs) == 0 {
		t.Error("no RPC latency rows")
	}

	path := filepath.Join(t.TempDir(), "BENCH_service.json")
	if err := WriteJSON(path, res); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateBenchJSON(data); err != nil {
		t.Errorf("artifact failed validation: %v", err)
	}
	if err := ValidateServiceJSON([]byte(`{"experiment":"service"}`)); err == nil {
		t.Error("empty service artifact validated")
	}
	if err := ValidateServiceJSON([]byte(`{"experiment":"perf"}`)); err == nil {
		t.Error("wrong-experiment artifact validated")
	}
}
