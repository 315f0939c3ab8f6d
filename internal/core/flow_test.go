package core_test

import (
	"reflect"
	"testing"

	"repro/internal/bugs"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/hw/pt"
	"repro/internal/ir"
	"repro/internal/slicer"
)

// decoderFlow is the flow of a run's ring buffers by pt.Decode alone:
// per core the clean replay, else what salvage recovers. ok is
// false when some core yields nothing either way, and the run then has
// no flow at all.
func decoderFlow(prog *ir.Program, cores []core.PTCore) (flows map[int][]int, ok bool) {
	flows = make(map[int][]int)
	for _, c := range cores {
		flow, _, _, rep, err := pt.Decode(prog, c.Data, c.Wrapped, true)
		if err != nil && !rep.Recovered() {
			return map[int][]int{}, false
		}
		if len(flow) > 0 {
			flows[c.Core] = flow
		}
	}
	return flows, true
}

// TestFlowOnDemandMatchesDecoder: FinishRun keeps no flow, so a sketch
// decodes its run's flow again from the bytes FinishRun decoded. For
// every suite bug, under a watch-group and an extended-PT plan, on
// clean, wrapped (OverflowRate 1) and corrupted (CorruptRate 1)
// buffers, that flow must be what the decoders make of the same bytes —
// the endpoint's ring buffers after the decision's in-flight
// corruption — and empty for a run whose trace did not decode.
func TestFlowOnDemandMatchesDecoder(t *testing.T) {
	kinds := []struct {
		name string
		inj  *faults.Injector
	}{
		{"clean", nil},
		{"wrapped", faults.NewInjector(faults.Config{Seed: faults.ChaosSeed, OverflowRate: 1})},
		{"corrupt", faults.NewInjector(faults.Config{Seed: faults.ChaosSeed, CorruptRate: 1})},
	}
	var traced, wrapped, salvaged, undecoded int
	for _, b := range bugs.All() {
		cfg := b.GistConfig()
		report, _, err := core.FirstFailure(cfg)
		if err != nil {
			t.Fatalf("%s: discovery: %v", b.Name, err)
		}
		g := cfg.BuildGraph()
		window := slicer.Compute(g, report.InstrID).Window(8)
		prog := b.Program()
		for _, feats := range []core.Features{core.AllFeatures(), {ControlFlow: true, DataFlow: true, ExtendedPT: true}} {
			plan := core.BuildPlan(g, window, feats)
			for _, k := range kinds {
				for seed := int64(1); seed <= 4; seed++ {
					spec := core.RunSpec{EndpointID: int(seed), Seed: seed, PreemptMean: cfg.PreemptMean, MaxSteps: 200_000}
					// A decision carries its own random stream, so each
					// use gets a fresh, equal one.
					decide := func() faults.Decision {
						if k.inj == nil {
							return faults.Decision{}
						}
						return k.inj.ForRun(spec.EndpointID, seed)
					}
					rt := core.RunInstrumentedFaults(plan, spec, decide())
					// FinishRun corrupts the cores in order, first thing
					// off the decision's stream.
					dec := decide()
					cores := core.RecordRun(plan, spec, dec).PT
					for i := range cores {
						cores[i].Data = dec.CorruptTrace(cores[i].Data)
					}
					got := rt.Flow(prog)
					want, ok := decoderFlow(prog, cores)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s %s seed %d: the flow on demand differs from the decoders'\ngot:  %v\nwant: %v", b.Name, k.name, seed, got, want)
					}
					if ok != (rt.DecodeErr == nil) {
						t.Fatalf("%s %s seed %d: DecodeErr %v, but the decoders recover every core: %v", b.Name, k.name, seed, rt.DecodeErr, ok)
					}
					if len(got) > 0 {
						traced++
					}
					for _, c := range rt.PT {
						if c.Wrapped {
							wrapped++
						}
					}
					if rt.SalvagedCores > 0 {
						salvaged++
					}
					if rt.DecodeErr != nil {
						undecoded++
					}
				}
			}
		}
	}
	t.Logf("%d runs with flow, %d wrapped cores, %d salvaged runs, %d undecoded runs", traced, wrapped, salvaged, undecoded)
	if traced == 0 || wrapped == 0 || salvaged == 0 || undecoded == 0 {
		t.Errorf("want runs with flow, wrapped cores, salvaged runs and undecoded runs among the cases")
	}
}
