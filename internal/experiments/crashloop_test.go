package experiments

import (
	"os"
	"path/filepath"
	"testing"
)

// TestCrashloopExperiment runs a reduced sweep — one bug, clean and
// faulty pipeline, clean and very faulty disk — and checks that every
// cell resumed byte-identically, that the faulty-disk cells actually
// exercised recovery, and that the BENCH artifact validates.
func TestCrashloopExperiment(t *testing.T) {
	res, err := Crashloop(Suite("pbzip2"), []float64{0, 0.10}, []float64{0, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("%d rows, want 4", len(res.Rows))
	}
	sawRecovery := false
	for _, row := range res.Rows {
		if !row.Identical {
			t.Errorf("%s pipe=%g disk=%g: not byte-identical", row.Bug, row.PipelineRate, row.DiskRate)
		}
		if row.Saves == 0 {
			t.Errorf("%s pipe=%g disk=%g: no durable saves", row.Bug, row.PipelineRate, row.DiskRate)
		}
		if row.Resumes != row.Kills {
			t.Errorf("%s pipe=%g disk=%g: %d resumes for %d kills", row.Bug, row.PipelineRate, row.DiskRate, row.Resumes, row.Kills)
		}
		if row.DiskRate > 0 && (row.Quarantined > 0 || row.SaveErrors > 0 || row.Fallbacks > 0 || row.ColdStarts > 0) {
			sawRecovery = true
		}
	}
	if !sawRecovery {
		t.Error("disk rate 0.9 cells never exercised quarantine/fallback/fsync recovery")
	}

	// Determinism: the same sweep reproduces the same rows.
	again, err := Crashloop(Suite("pbzip2"), []float64{0, 0.10}, []float64{0, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Rows {
		if res.Rows[i] != again.Rows[i] {
			t.Errorf("row %d not deterministic:\n%+v\n%+v", i, res.Rows[i], again.Rows[i])
		}
	}

	path := filepath.Join(t.TempDir(), "BENCH_crashloop.json")
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
	if err := ValidateCrashloopJSON([]byte(`{"experiment":"crashloop"}`)); err == nil {
		t.Error("empty crashloop artifact validated")
	}
}
