package core_test

// The instrumented run takes a shortcut on the bytecode engine — the
// plan's step mask lets the engine skip OnStep outside the tracked
// window — that the tree-walking interpreter does not take. What a run
// records must not depend on it.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/bugs"
	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/service"
	"repro/internal/slicer"
	"repro/internal/telemetry"
)

// TestRunTraceIdenticalAcrossEngines runs every suite bug under every
// tracking configuration on both engines and requires deep-equal
// RunTraces — the decoded ring bytes, Branches with its key set (a
// thread that never traced still has its empty PT core and its nil
// Branches entry), Traps, Meter, SalvagedCores, DecodeErr — and
// byte-equal wire encodings.
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
								for _, c := range got.PT {
									if _, decoded := got.Branches[c.Core]; decoded && len(c.Data) == 0 {
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

// memoChecker is a Runner that executes each job under the campaign's
// plan, memo on, and again on a fresh plan of the same window, memo
// empty, with a fresh copy of the job's fault decision: the two traces
// must deep-equal, Spec included.
type memoChecker struct {
	t        *testing.T
	name     string
	g        *cfg.TICFG
	onInterp bool
	inj      *faults.Injector
	tel      *telemetry.Tracer
	runs     int
	hits     int64
}

func (m *memoChecker) RunBatch(plan *core.Plan, jobs []core.RunJob) []*core.RunTrace {
	hits := func() int64 { return m.tel.Snapshot().Counters["vm.run_memo_hit"] }
	out := make([]*core.RunTrace, len(jobs))
	for i, job := range jobs {
		before := hits()
		out[i] = core.RunInstrumentedFaults(plan, job.Spec, job.Dec)
		hit := hits() - before
		fresh := core.BuildPlan(m.g, plan.Tracked, plan.Feats)
		if m.onInterp {
			fresh.OnInterp()
		}
		want := core.RunInstrumentedFaults(fresh, job.Spec, m.inj.ForRun(job.Spec.EndpointID, job.Spec.Seed))
		if !reflect.DeepEqual(out[i], want) {
			m.t.Fatalf("%s: endpoint %d seed %d (memo hit: %v): the run differs from a fresh execution\ngot:  %+v\nwant: %+v",
				m.name, job.Spec.EndpointID, job.Spec.Seed, hit == 1, out[i], want)
		}
		m.runs++
		m.hits += hit
	}
	return out
}

// TestRunMemoMatchesExecution runs every suite bug's first AsT iteration
// on both engines, with a reliable fleet and at fault rate 0.3, and
// requires each run, memo hit or not, to equal a fresh execution after
// FinishRun. Admission runs on the served traces in between, so a later
// hit would also show whatever admission wrote into a shared trace. The
// single-threaded bugs must hit, and no other bug may.
func TestRunMemoMatchesExecution(t *testing.T) {
	spawnFree := map[string]bool{"curl": true, "cppcheck-1": true, "cppcheck-2": true}
	for _, b := range bugs.All() {
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			base := b.GistConfig()
			report, disc, err := core.FirstFailure(base)
			if err != nil {
				t.Fatalf("discovery: %v", err)
			}
			for _, rate := range []float64{0, 0.3} {
				for _, onInterp := range []bool{false, true} {
					c := base
					if rate > 0 {
						c.Faults = faults.Composite(faults.ChaosSeed, rate)
					}
					name := fmt.Sprintf("bytecode rate %.1f", rate)
					if onInterp {
						c = c.OnInterp()
						name = fmt.Sprintf("interp rate %.1f", rate)
					}
					c.Telemetry = telemetry.New()
					camp, err := core.NewCampaign(c, report, disc)
					if err != nil {
						t.Fatal(err)
					}
					check := &memoChecker{t: t, name: name, g: c.BuildGraph(), onInterp: onInterp, inj: faults.NewInjector(c.Faults), tel: c.Telemetry}
					camp.UseRunner(check)
					camp.Plan()
					camp.Dispatch()
					camp.Admit()
					if spawnFree[b.Name] != (check.hits > 0) {
						t.Errorf("%s: %d of %d runs served from the memo; spawn-free bug: %v", name, check.hits, check.runs, spawnFree[b.Name])
					}
				}
			}
		})
	}
}
