package experiments

import (
	"testing"

	"repro/internal/bugs"
	"repro/internal/core"
	"repro/internal/faults"
)

// TestChaosRegressionPrintedSketches is the headline robustness
// guarantee: at a 10% composite fault rate the three sketches the paper
// prints (pbzip2, curl, apache-3) must still satisfy the developer
// oracle — the root cause stays in the sketch with a high-precision
// predictor — despite crashed endpoints, corrupt traces, and damaged
// trap logs.
func TestChaosRegressionPrintedSketches(t *testing.T) {
	for _, name := range []string{"pbzip2", "curl", "apache-3"} {
		b := bugs.ByName(name)
		res, err := diagnoseFaulty(b, 0.10, faults.ChaosSeed)
		if err != nil {
			t.Errorf("%s: diagnosis failed at 10%% faults: %v", name, err)
			continue
		}
		if res.Sketch == nil {
			t.Errorf("%s: no sketch at 10%% faults", name)
			continue
		}
		if !bugs.DeveloperOracle(b)(res.Sketch) {
			t.Errorf("%s: sketch no longer contains the root cause at 10%% faults", name)
		}
		_, _, overall := res.Sketch.Accuracy(b.Ideal())
		if overall < 60 {
			t.Errorf("%s: accuracy collapsed to %.1f%% at 10%% faults", name, overall)
		}
	}
}

// TestChaosSweepIsDeterministic: the chaos table is a regression
// artifact, so identical invocations must produce identical rows.
func TestChaosSweepIsDeterministic(t *testing.T) {
	suite := Suite("pbzip2")
	rates := []float64{0.10}
	a := Chaos(suite, rates)
	b := Chaos(suite, rates)
	if RenderChaos(a) != RenderChaos(b) {
		t.Fatalf("chaos sweep not deterministic:\n%s\nvs\n%s", RenderChaos(a), RenderChaos(b))
	}
}

// TestChaosRateZeroMatchesCleanDiagnosis: the 0% row of the sweep must
// be the byte-identical clean pipeline — same accuracy, same run
// counts, clean health.
func TestChaosRateZeroMatchesCleanDiagnosis(t *testing.T) {
	b := bugs.ByName("pbzip2")
	faulty, err := diagnoseFaulty(b, 0, faults.ChaosSeed)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := Diagnose(b, core.AllFeatures(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if faulty.Sketch.Render() != clean.Sketch.Render() {
		t.Error("0%% fault rate changed the sketch")
	}
	if faulty.TotalRuns != clean.TotalRuns || faulty.FailureRecurrences != clean.FailureRecurrences {
		t.Errorf("0%% fault rate changed run counts: %d/%d vs %d/%d",
			faulty.TotalRuns, faulty.FailureRecurrences, clean.TotalRuns, clean.FailureRecurrences)
	}
	if faulty.Health.Degraded() {
		t.Errorf("0%% fault rate degraded the fleet: %s", faulty.Health)
	}
}
