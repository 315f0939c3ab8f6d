package agent

import (
	"reflect"
	"testing"

	"repro/internal/bugs"
	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/slicer"
	"repro/internal/telemetry"
)

// TestRunTaskServesRepeatRunsFromMemo: an agent keeps the plan of its
// last window, and with it the plan's run memo. Two tasks for curl (a
// program that never spawns) with the same window, workload and watch
// group but different seeds record the same run, and the second one
// executes nothing.
func TestRunTaskServesRepeatRunsFromMemo(t *testing.T) {
	b := bugs.ByName("curl")
	cfg := b.GistConfig()
	report, _, err := core.FirstFailure(cfg)
	if err != nil {
		t.Fatalf("discovery: %v", err)
	}
	window := slicer.Compute(cfg.BuildGraph(), report.InstrID).Window(8)
	feats := core.AllFeatures()
	task := func(id uint64, endpoint int, seed int64) *service.WireTask {
		return &service.WireTask{TaskID: id, Bug: b.Name, Window: window, Feats: feats, Spec: core.RunSpec{
			EndpointID: endpoint, Seed: seed, Workload: b.Workloads[0], PreemptMean: b.PreemptMean, MaxSteps: 200_000,
		}}
	}

	a := &Agent{graphs: make(map[string]*plannedBug)}
	pb, err := a.bugConfig(b.Name)
	if err != nil {
		t.Fatal(err)
	}
	tel := telemetry.New()
	a.planFor(pb, window, feats).Telemetry = tel
	hits := func() int64 { return tel.Snapshot().Counters["vm.run_memo_hit"] }

	first, err := a.runTask(task(1, 0, 11))
	if err != nil || first == nil {
		t.Fatalf("first task: %v, %v", first, err)
	}
	if n := hits(); n != 0 {
		t.Fatalf("the first task was served from the memo (%d hits)", n)
	}
	second, err := a.runTask(task(2, 4*len(b.Workloads), 12))
	if err != nil || second == nil {
		t.Fatalf("second task: %v, %v", second, err)
	}
	if n := hits(); n != 1 {
		t.Errorf("the second task counted %d memo hits, want 1", n)
	}
	if second.Spec.Seed != 12 {
		t.Errorf("the served trace carries seed %d, want its own 12", second.Spec.Seed)
	}
	want := *first
	want.Spec = second.Spec
	if !reflect.DeepEqual(second, &want) {
		t.Errorf("the two tasks recorded different runs:\nfirst:  %+v\nsecond: %+v", first, second)
	}
}
