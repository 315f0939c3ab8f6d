package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestOverloadExperiment runs the full mix sweep at reduced scale — two
// victims, one flooding tenant at up to 10× the rate limit, slow agents
// on the slow mixes — and checks the shed/hedge counters moved, every
// sketch came back byte-identical, and the BENCH artifact validates.
func TestOverloadExperiment(t *testing.T) {
	res, err := Overload(OverloadOptions{
		Victims:         2,
		AgentsPerTenant: 2,
		FoldsPerVictim:  8,
		NovelBurst:      6,
		SlowMeanMs:      200,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Identical {
		t.Fatalf("diagnoses diverged from batch: %+v", res)
	}
	if len(res.Mixes) != len(overloadMixes) {
		t.Fatalf("got %d mixes, want %d", len(res.Mixes), len(overloadMixes))
	}
	for _, m := range res.Mixes {
		if m.VictimAdmitted < res.Victims {
			t.Errorf("mix %s: only %d victim submits admitted", m.Name, m.VictimAdmitted)
		}
		if m.MaxQueuedLaunches > res.LaunchBudget {
			t.Errorf("mix %s: launch queue peaked at %d over budget %d",
				m.Name, m.MaxQueuedLaunches, res.LaunchBudget)
		}
		if m.DeadlineExpired != 0 {
			t.Errorf("mix %s: %d deadlines expired under a 120s budget", m.Name, m.DeadlineExpired)
		}
		if m.FloodFactor > 0 {
			if m.FloodShed == 0 || m.ShedRateLimited == 0 {
				t.Errorf("mix %s: flood not shed (client=%d server=%d)",
					m.Name, m.FloodShed, m.ShedRateLimited)
			}
			if m.ShedLaunches == 0 {
				t.Errorf("mix %s: novel burst never hit the launch budget", m.Name)
			}
		} else if m.FloodShed != 0 || m.FloodOffered != 0 {
			t.Errorf("mix %s: flood traffic recorded without a flooder: %+v", m.Name, m)
		}
		if m.SlowAgents && m.HedgedTasks == 0 {
			t.Errorf("mix %s: slow agents never triggered a hedge", m.Name)
		}
	}

	path := filepath.Join(t.TempDir(), "BENCH_overload.json")
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
}

// TestValidateOverloadJSON exercises the validator's rejection paths on
// mutations of a minimal valid artifact.
func TestValidateOverloadJSON(t *testing.T) {
	valid := func() *OverloadResult {
		mix := func(name string, flood float64, slow bool) OverloadMix {
			m := OverloadMix{
				Name: name, FloodFactor: flood, SlowAgents: slow,
				VictimReports: 10, VictimAdmitted: 10, GoodputPerSec: 12,
				AdmitP50Ms: 0.3, AdmitP95Ms: 0.8, AdmitP99Ms: 1.2,
				E2EP50Ms: 900, E2EMaxMs: 1500,
				HeapAllocMB: 40, MaxQueuedLaunches: 1,
				Identical: true, Sketches: 2,
			}
			if flood > 0 {
				m.FloodOffered, m.FloodShed, m.FloodShedRate = 200, 180, 0.9
				m.ShedRateLimited, m.ShedLaunches = 150, 6
			}
			if slow {
				m.HedgedTasks, m.HedgedResults = 4, 3
			}
			return m
		}
		return &OverloadResult{
			Experiment: "overload", Bug: "deadlock", Victims: 2, GoMaxProcs: 4,
			TenantRPS: 50, MaxInflight: 2, LaunchBudget: 1, HedgeAfterMs: 50,
			Identical: true,
			Mixes: []OverloadMix{
				mix("baseline", 0, false),
				mix("flood-4x", 4, false),
				mix("flood-10x", 10, false),
				mix("slow", 0, true),
				mix("flood-slow-10x", 10, true),
			},
		}
	}
	check := func(name string, mutate func(*OverloadResult), wantErr bool) {
		t.Helper()
		r := valid()
		mutate(r)
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		err = ValidateOverloadJSON(data)
		if wantErr && err == nil {
			t.Errorf("%s: validated, want rejection", name)
		}
		if !wantErr && err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}

	check("valid", func(r *OverloadResult) {}, false)
	check("not identical", func(r *OverloadResult) { r.Identical = false }, true)
	check("mix not identical", func(r *OverloadResult) { r.Mixes[2].Identical = false }, true)
	check("missing acceptance mix", func(r *OverloadResult) { r.Mixes = r.Mixes[:4] }, true)
	check("no knobs recorded", func(r *OverloadResult) { r.TenantRPS = 0 }, true)
	check("flood mix shed nothing", func(r *OverloadResult) {
		r.Mixes[2].FloodShed = 0
	}, true)
	check("flood mix no rate-limit sheds", func(r *OverloadResult) {
		r.Mixes[2].ShedRateLimited = 0
	}, true)
	check("flood mix no launch sheds", func(r *OverloadResult) {
		r.Mixes[2].ShedLaunches = 0
	}, true)
	check("slow mix never hedged", func(r *OverloadResult) {
		r.Mixes[3].HedgedTasks = 0
	}, true)
	check("launch queue over budget", func(r *OverloadResult) {
		r.Mixes[1].MaxQueuedLaunches = 2
	}, true)
	check("isolation violated", func(r *OverloadResult) {
		r.Mixes[2].AdmitP99Ms = 100 // 2× the 5ms-floored baseline is 10ms
	}, true)
	check("deadline tripped", func(r *OverloadResult) {
		r.Mixes[4].DeadlineExpired = 1
	}, true)
	check("non-monotone percentiles", func(r *OverloadResult) {
		r.Mixes[0].AdmitP95Ms = 5
	}, true)
	check("no goodput", func(r *OverloadResult) {
		r.Mixes[0].VictimAdmitted, r.Mixes[0].GoodputPerSec = 0, 0
	}, true)
	check("unbounded heap", func(r *OverloadResult) {
		r.Mixes[0].HeapAllocMB = 4096
	}, true)
	check("too few sketches", func(r *OverloadResult) {
		r.Mixes[0].Sketches = 1
	}, true)
	check("wrong experiment", func(r *OverloadResult) {
		r.Experiment = "perf"
	}, true)
}
