package service

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/bugs"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/slicer"
)

// wirePlan is apache-1's tracking plan, whose runs carry PT flow on
// several cores (up to ~60 ring bytes each) and a watchpoint trap log;
// under the extended-PT plan a core's ring holds about 580 bytes.
func wirePlan(t *testing.T, feats core.Features) (*core.Plan, core.Config) {
	t.Helper()
	cfg := bugs.ByName("apache-1").GistConfig()
	report, _, err := core.FirstFailure(cfg)
	if err != nil {
		t.Fatalf("discovery: %v", err)
	}
	g := cfg.BuildGraph()
	return core.BuildPlan(g, slicer.Compute(g, report.InstrID).Window(8), feats), cfg
}

// TestRunSurvivesTheWire is the split run's contract: what an agent
// records (core.RecordRun), shipped as JSON and finished at the server
// (core.FinishRun) from a second, fresh copy of the run's fault
// decision, is exactly the run the in-process fleet executes — for
// every per-run fault class. A hang leaves the trace as it is: the
// server discards the report from its own copy of the decision.
func TestRunSurvivesTheWire(t *testing.T) {
	plan, cfg := wirePlan(t, core.AllFeatures())
	// The overflow fault's 512-byte ring holds a whole watch-group run
	// of apache-1; an extended-PT run's ring wraps.
	extended, _ := wirePlan(t, core.Features{ControlFlow: true, DataFlow: true, ExtendedPT: true})
	kinds := []struct {
		name  string
		fcfg  faults.Config
		trunc faults.TruncateKind
		plan  *core.Plan
	}{
		{name: "none"},
		{name: "overflow", fcfg: faults.Config{OverflowRate: 1}, plan: extended},
		{name: "corrupt", fcfg: faults.Config{CorruptRate: 1}},
		{name: "drop", fcfg: faults.Config{TrapDropRate: 1}},
		{name: "reorder", fcfg: faults.Config{TrapReorderRate: 1}},
		{name: "truncate-outcome", fcfg: faults.Config{TruncateRate: 1}, trunc: faults.TruncateOutcome},
		{name: "truncate-traps", fcfg: faults.Config{TruncateRate: 1}, trunc: faults.TruncateTraps},
		{name: "truncate-branches", fcfg: faults.Config{TruncateRate: 1}, trunc: faults.TruncateBranches},
		{name: "hang", fcfg: faults.Config{HangRate: 1}},
	}
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			plan := plan
			if k.plan != nil {
				plan = k.plan
			}
			k.fcfg.Seed = 7
			inj := faults.NewInjector(k.fcfg)
			checked, acted := 0, 0
			for seed := int64(1); seed <= 40 && checked < 4; seed++ {
				spec := core.RunSpec{EndpointID: int(seed % 5), Seed: seed, PreemptMean: cfg.PreemptMean, MaxSteps: 200_000}
				if inj.ForRun(spec.EndpointID, spec.Seed).Truncate != k.trunc {
					continue
				}
				clean := core.RunInstrumented(plan, spec)
				if len(clean.Traps) < 2 || len(clean.Flow) == 0 {
					continue // the fault would have nothing to act on
				}
				want := core.RunInstrumentedFaults(plan, spec, inj.ForRun(spec.EndpointID, spec.Seed))

				data, err := json.Marshal(EncodeTrace(core.RecordRun(plan, spec, inj.ForRun(spec.EndpointID, spec.Seed))))
				if err != nil {
					t.Fatalf("marshal: %v", err)
				}
				var w WireTrace
				if err := json.Unmarshal(data, &w); err != nil {
					t.Fatalf("unmarshal: %v", err)
				}
				got := DecodeTrace(&w)
				core.FinishRun(plan, got, inj.ForRun(spec.EndpointID, spec.Seed))
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d: the run finished at the server differs from the in-process run\nserver:     %+v\nin-process: %+v", seed, got, want)
				}
				checked++
				if !reflect.DeepEqual(want, clean) {
					acted++
				}
			}
			if changes := k.name != "none" && k.name != "hang"; checked == 0 || changes != (acted > 0) {
				t.Fatalf("%d runs checked, the fault changed %d of them", checked, acted)
			}
		})
	}
}

// TestUploadShipsNoDecodedTrace pins what leaves the endpoint: raw ring
// bytes and the trap log, never the decoded flow.
func TestUploadShipsNoDecodedTrace(t *testing.T) {
	plan, cfg := wirePlan(t, core.AllFeatures())
	rt := core.RecordRun(plan, core.RunSpec{EndpointID: 1, Seed: 3, PreemptMean: cfg.PreemptMean, MaxSteps: 200_000}, faults.Decision{})
	if len(rt.PT) == 0 || rt.Flow != nil || rt.Branches != nil {
		t.Fatalf("RecordRun: %d PT cores, flow %v, branches %v; want raw cores and nothing decoded", len(rt.PT), rt.Flow, rt.Branches)
	}
	data, err := json.Marshal(EncodeTrace(rt))
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	for k := range keys {
		switch k {
		case "spec", "outcome", "pt", "traps", "base_mc", "extra_mc":
		default:
			t.Errorf("upload carries %q, which the server derives", k)
		}
	}
}

func TestNilTraceStaysNil(t *testing.T) {
	if EncodeTrace(nil) != nil {
		t.Fatal("EncodeTrace(nil) != nil")
	}
	if DecodeTrace(nil) != nil {
		t.Fatal("DecodeTrace(nil) != nil")
	}
}
