package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/bugs"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/telemetry"
)

// TestWorkersDeterminism is the repo's end-to-end determinism contract:
// a diagnosis at 8 fleet workers must be byte-identical to the serial
// one — sketches, predictor rankings, slice contents, per-iteration
// stats, and FleetHealth — on every printed-sketch bug, both with a
// reliable fleet and under 10% composite fault injection. CI runs this
// under -race at GOMAXPROCS=1 and at the default.
func TestWorkersDeterminism(t *testing.T) {
	for _, name := range []string{"pbzip2", "curl", "apache-3"} {
		for _, rate := range []float64{0, 0.10} {
			t.Run(fmt.Sprintf("%s/rate=%.2f", name, rate), func(t *testing.T) {
				serial := diagnosisFingerprint(t, name, rate, 1)
				wide := diagnosisFingerprint(t, name, rate, 8)
				if wide != serial {
					t.Fatalf("workers=8 diverged from serial:\n--- serial ---\n%s\n--- workers=8 ---\n%s", serial, wide)
				}
			})
		}
	}
}

// TestTelemetryDeterminism pins the observability contract: attaching a
// tracer (with a live JSONL writer) must not perturb the diagnosis.
// Fingerprints with telemetry on must be byte-identical to telemetry
// off at every fleet width and fault rate, and the admission-ordered
// fault/fleet counters must themselves be width-stable.
func TestTelemetryDeterminism(t *testing.T) {
	for _, name := range []string{"pbzip2", "apache-3"} {
		for _, rate := range []float64{0, 0.10} {
			t.Run(fmt.Sprintf("%s/rate=%.2f", name, rate), func(t *testing.T) {
				bare := diagnosisFingerprint(t, name, rate, 1)
				var counters [2]map[string]int64
				for i, workers := range []int{1, 8} {
					tel := telemetry.NewWithWriter(&bytes.Buffer{})
					traced := tracedFingerprint(t, name, rate, workers, tel)
					if traced != bare {
						t.Fatalf("telemetry at workers=%d perturbed the diagnosis:\n--- off ---\n%s\n--- on ---\n%s",
							workers, bare, traced)
					}
					snap := tel.Snapshot()
					counters[i] = stripEngineCounters(snap.Counters)
					if rate > 0 && snap.Counters["faults.injected_runs"] == 0 {
						t.Fatalf("workers=%d rate=%.2f: no faults.injected_runs counted", workers, rate)
					}
					for _, phase := range []string{telemetry.PhaseSlice, telemetry.PhaseDecode, telemetry.PhaseRank, telemetry.PhaseSketch} {
						if snap.Phases[phase].Count == 0 {
							t.Errorf("workers=%d: phase %q recorded no spans", workers, phase)
						}
					}
				}
				if fmt.Sprint(counters[0]) != fmt.Sprint(counters[1]) {
					t.Fatalf("counters diverge across widths:\n--- workers=1 ---\n%v\n--- workers=8 ---\n%v",
						counters[0], counters[1])
				}
			})
		}
	}
}

// stripEngineCounters drops the vm.* execution-engine counters before a
// cross-width comparison: compile-cache hits depend on process-global
// cache warmth and machine-pool hits on physical execution counts
// (speculative chunks over-dispatch at wide fleets), so both are
// explicitly observability-only and not width-stable. Everything the
// admission path counts must still match exactly.
func stripEngineCounters(counters map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(counters))
	for name, v := range counters {
		if strings.HasPrefix(name, "vm.") {
			continue
		}
		out[name] = v
	}
	return out
}

func diagnosisFingerprint(t *testing.T, name string, rate float64, workers int) string {
	return tracedFingerprint(t, name, rate, workers, nil)
}

func tracedFingerprint(t *testing.T, name string, rate float64, workers int, tel *telemetry.Tracer) string {
	t.Helper()
	b := Suite(name)[0]
	cfg := b.GistConfig()
	cfg.Features = core.AllFeatures()
	cfg.Workers = workers
	cfg.Telemetry = tel
	cfg.StopWhen = bugs.DeveloperOracle(b)
	if rate > 0 {
		cfg.Faults = faults.Composite(faults.ChaosSeed, rate)
	}
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatalf("%s rate=%.2f workers=%d: %v", name, rate, workers, err)
	}
	fp := fmt.Sprintf("disc=%d total=%d rec=%d ov=%.6f\nhealth=%s\n",
		res.DiscoveryRuns, res.TotalRuns, res.FailureRecurrences,
		res.AvgOverheadPct, res.Health)
	for _, it := range res.Iters {
		fp += fmt.Sprintf("%+v\n", it)
	}
	fp += fmt.Sprintf("slice=%v\n", res.Slice.IDs)
	fp += res.Sketch.Render()
	for _, r := range res.Sketch.AllRanked {
		fp += fmt.Sprintf("%+v\n", r)
	}
	return fp
}
