package core_test

// The instrumented run takes a shortcut on the bytecode engine — the
// plan's step mask lets the engine skip OnStep outside the tracked
// window — that the tree-walking interpreter does not take. What a run
// records must not depend on it.

import (
	"bytes"
	"encoding/json"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/bugs"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/service"
	"repro/internal/slicer"
)

// TestRunTraceIdenticalAcrossEngines runs every suite bug under every
// tracking configuration on both engines and requires deep-equal
// RunTraces — Flow and Branches with their key sets (a thread that never
// traced still has its nil Branches entry), Traps, Meter, SalvagedCores,
// DecodeErr — and byte-equal wire encodings.
func TestRunTraceIdenticalAcrossEngines(t *testing.T) {
	feats := []struct {
		name string
		f    core.Features
	}{
		{"all", core.AllFeatures()},
		{"cf", core.Features{Static: true, ControlFlow: true}},
		{"df", core.Features{Static: true, DataFlow: true}},
		{"extpt", core.Features{Static: true, ControlFlow: true, DataFlow: true, ExtendedPT: true}},
	}
	seeds := int64(8)
	if testing.Short() {
		seeds = 2
	}
	var runs, damaged, untracedCores atomic.Int64
	t.Run("bugs", func(t *testing.T) {
		for i, b := range bugs.All() {
			t.Run(b.Name, func(t *testing.T) {
				t.Parallel()
				cfg := b.GistConfig()
				report, _, err := core.FirstFailure(cfg)
				if err != nil {
					t.Fatalf("discovery: %v", err)
				}
				g := cfg.BuildGraph()
				sl := slicer.Compute(g, report.InstrID)
				inj := faults.NewInjector(faults.Composite(int64(i), 0.10))
				var prev []int
				for _, sigma := range []int{2, 8, 32} {
					window := sl.Window(sigma)
					if slices.Equal(window, prev) {
						continue // the slice ran out: same plan, same runs
					}
					prev = window
					for fi, ft := range feats {
						fast := core.BuildPlan(g, window, ft.f)
						oracle := core.BuildPlan(g, window, ft.f).OnInterp()
						for seed := int64(0); seed < seeds; seed++ {
							spec := core.RunSpec{
								EndpointID: int(seed), Seed: seed, MaxSteps: 200_000, PreemptMean: b.PreemptMean,
							}
							if n := len(b.Workloads); n > 0 {
								spec.Workload = b.Workloads[int(seed)%n]
							}
							// A decision carries its own random stream, so each
							// run gets a fresh, equal one.
							faulty := func() faults.Decision { return inj.ForRun(spec.EndpointID, seed+int64(100*sigma+1000*fi)) }
							decisions := []func() faults.Decision{func() faults.Decision { return faults.Decision{} }}
							if faulty().Any() {
								decisions = append(decisions, faulty)
							}
							for _, decide := range decisions {
								dec := decide()
								got := core.RunInstrumentedFaults(fast, spec, dec)
								want := core.RunInstrumentedFaults(oracle, spec, decide())
								if !reflect.DeepEqual(got, want) {
									t.Fatalf("σ=%d %s seed %d faults %+v: bytecode and interpreter run traces differ\nbytecode: %+v\ninterp:   %+v",
										sigma, ft.name, seed, decide(), got, want)
								}
								gw, _ := json.Marshal(service.EncodeTrace(got))
								ww, _ := json.Marshal(service.EncodeTrace(want))
								if !bytes.Equal(gw, ww) {
									t.Fatalf("σ=%d %s seed %d faults %+v: wire encodings differ", sigma, ft.name, seed, decide())
								}
								runs.Add(1)
								if got == nil {
									continue
								}
								if got.DecodeErr != nil || got.SalvagedCores > 0 || dec.Truncate != faults.TruncateNone {
									damaged.Add(1)
								}
								for core := range got.Branches {
									if _, traced := got.Flow[core]; !traced {
										untracedCores.Add(1)
									}
								}
							}
						}
					}
				}
			})
		}
	})
	// The comparison is only worth its name if the hard cases came up:
	// damaged traces, and threads that ran but never traced.
	t.Logf("%d runs per engine, %d damaged traces, %d never-traced cores", runs.Load(), damaged.Load(), untracedCores.Load())
	if damaged.Load() == 0 || untracedCores.Load() == 0 {
		t.Errorf("want damaged traces and never-traced cores among the runs")
	}
}
