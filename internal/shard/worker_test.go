package shard_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/bugs"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/vm"
)

// fleetBug prepares one bug for fleet tests: the campaign config, the
// discovered failure, and the single-process baseline sketch bytes.
type fleetBug struct {
	name     string
	cfg      core.Config
	report   *vm.FailureReport
	disc     int
	baseline []byte
}

func prepareFleetBug(t *testing.T, tenant, name string) fleetBug {
	t.Helper()
	b := bugs.ByName(name)
	if b == nil {
		t.Fatalf("unknown bug %q", name)
	}
	cfg := b.GistConfig()
	cfg.Features = core.AllFeatures()
	cfg.Label = tenant + "/" + name
	cfg.Workers = 1
	report, disc, err := core.FirstFailure(cfg)
	if err != nil {
		t.Fatalf("%s: discovery: %v", name, err)
	}
	res, err := core.RunFromReport(cfg, report, disc)
	if err != nil {
		t.Fatalf("%s: baseline: %v", name, err)
	}
	baseline, err := res.Sketch.MarshalIndentJSON()
	if err != nil {
		t.Fatalf("%s: baseline sketch: %v", name, err)
	}
	return fleetBug{name: name, cfg: cfg, report: report, disc: disc, baseline: baseline}
}

func newTestWorker(t *testing.T, b store.Backend, idx, shards int, ttl time.Duration, fbs []fleetBug) *shard.Worker {
	t.Helper()
	cfgs := map[string]core.Config{}
	for _, fb := range fbs {
		cfgs[fb.name] = fb.cfg
	}
	w, err := shard.NewWorker(shard.WorkerOptions{
		Backend: b, Root: "fleet",
		Index: idx, Shards: shards,
		LeaseTTL: ttl, Width: 1, NoFsync: true,
		ConfigFor: func(bug string) (core.Config, error) {
			cfg, ok := cfgs[bug]
			if !ok {
				return core.Config{}, fmt.Errorf("unknown bug %q", bug)
			}
			return cfg, nil
		},
	})
	if err != nil {
		t.Fatalf("NewWorker %d: %v", idx, err)
	}
	return w
}

// TestFleetMatchesSingleProcess places two campaigns on a two-worker
// fleet, drives both workers round-robin to completion, and requires
// every published sketch to byte-match the single-process baseline —
// the repo invariant extended across process boundaries.
func TestFleetMatchesSingleProcess(t *testing.T) {
	const tenant = "acme"
	fbs := []fleetBug{
		prepareFleetBug(t, tenant, "pbzip2"),
		prepareFleetBug(t, tenant, "curl"),
	}
	b := store.NewMemBackend()
	coord, err := shard.NewCoordinator(b, "fleet", 2, true)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	for _, fb := range fbs {
		if _, err := coord.Assign(shard.Assignment{
			Tenant: tenant, Bug: fb.name, Report: fb.report, DiscoveryRuns: fb.disc,
		}); err != nil {
			t.Fatalf("Assign %s: %v", fb.name, err)
		}
	}
	workers := []*shard.Worker{
		newTestWorker(t, b, 0, 2, 10*time.Second, fbs),
		newTestWorker(t, b, 1, 2, 10*time.Second, fbs),
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		for _, w := range workers {
			if _, err := w.Round(); err != nil {
				t.Fatalf("%s: Round: %v", w.ID(), err)
			}
		}
		done := 0
		for _, fb := range fbs {
			if rec, err := coord.Done(tenant, fb.name); err != nil {
				t.Fatalf("Done %s: %v", fb.name, err)
			} else if rec != nil {
				done++
			}
		}
		if done == len(fbs) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet did not finish %d campaigns in time", len(fbs))
		}
	}
	for _, fb := range fbs {
		rec, err := coord.Done(tenant, fb.name)
		if err != nil || rec == nil {
			t.Fatalf("Done %s: %+v, %v", fb.name, rec, err)
		}
		if rec.Err != "" {
			t.Fatalf("%s failed on %s: %s", fb.name, rec.Worker, rec.Err)
		}
		wantWorker := fmt.Sprintf("w%d", shard.Place(tenant, fb.name, "", 2)+1)
		if rec.Worker != wantWorker {
			t.Errorf("%s diagnosed by %s, placement says %s", fb.name, rec.Worker, wantWorker)
		}
		if !bytes.Equal(rec.Sketch, fb.baseline) {
			t.Errorf("%s: fleet sketch diverged from the single-process baseline", fb.name)
		}
	}
}

// TestDeadWorkerCampaignIsTakenOverByteIdentically is the kill-a-worker
// chaos path as a unit test: the owning worker claims its campaign,
// checkpoints a couple of rounds, and is never driven again — a SIGKILL
// leaves exactly that (lease intact, no release). The surviving worker
// must wait out the lease, take the campaign over, resume from the last
// durable generation, and publish a sketch byte-identical to the
// undisturbed single-process run.
func TestDeadWorkerCampaignIsTakenOverByteIdentically(t *testing.T) {
	// Pick a tenant whose single campaign lands on shard 0 (the victim).
	const bug = "pbzip2"
	tenant := ""
	for i := 0; i < 64; i++ {
		cand := fmt.Sprintf("tenant-%d", i)
		if shard.Place(cand, bug, "", 2) == 0 {
			tenant = cand
			break
		}
	}
	if tenant == "" {
		t.Fatalf("no tenant label places %s on shard 0", bug)
	}
	fbs := []fleetBug{prepareFleetBug(t, tenant, bug)}

	b := store.NewMemBackend()
	coord, err := shard.NewCoordinator(b, "fleet", 2, true)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	if _, err := coord.Assign(shard.Assignment{
		Tenant: tenant, Bug: bug, Report: fbs[0].report, DiscoveryRuns: fbs[0].disc,
	}); err != nil {
		t.Fatalf("Assign: %v", err)
	}

	// Long enough that one survivor round never outlives the survivor's
	// own lease under the race detector on a loaded two-core box (a
	// 300 ms lease did: lost lease, second takeover), short enough that
	// waiting out the victim's lease costs the test about two seconds.
	const ttl = 2 * time.Second
	victim := newTestWorker(t, b, 0, 2, ttl, fbs)
	survivor := newTestWorker(t, b, 1, 2, ttl, fbs)

	// The victim claims the campaign and checkpoints two rounds, then
	// "dies": no release, lease left to expire.
	for round := 0; round < 2; round++ {
		if _, err := victim.Round(); err != nil {
			t.Fatalf("victim Round: %v", err)
		}
	}
	if rec, err := coord.Done(tenant, bug); err != nil || rec != nil {
		t.Fatalf("campaign finished in two rounds (%+v, %v); it must outlive the victim for the test to bite", rec, err)
	}

	deadline := time.Now().Add(60 * time.Second)
	for {
		if _, err := survivor.Round(); err != nil {
			t.Fatalf("survivor Round: %v", err)
		}
		rec, err := coord.Done(tenant, bug)
		if err != nil {
			t.Fatalf("Done: %v", err)
		}
		if rec != nil {
			if rec.Err != "" {
				t.Fatalf("takeover diagnosis failed: %s", rec.Err)
			}
			if rec.Worker != "w2" {
				t.Fatalf("done record published by %s, want the survivor w2", rec.Worker)
			}
			if !rec.Resumed {
				t.Fatalf("survivor rebuilt the campaign from scratch instead of resuming the victim's checkpoint")
			}
			if !bytes.Equal(rec.Sketch, fbs[0].baseline) {
				t.Fatalf("takeover sketch diverged from the single-process baseline")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("survivor never finished the dead worker's campaign")
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := survivor.Stats()
	if st.Takeovers != 1 || st.Resumed != 1 || st.Finished != 1 {
		t.Fatalf("survivor stats = %+v, want exactly one takeover, resumed, finished", st)
	}
}

// TestFinishedCampaignsAreReleased is the long-lived-worker bound: one
// worker finishes several campaigns one after another, and once each is
// published its supervisor holds nothing of it — no campaign, result or
// snapshot stays reachable, and no later round scans or copies it —
// while Stats keeps reporting every run consumed here.
func TestFinishedCampaignsAreReleased(t *testing.T) {
	fb := prepareFleetBug(t, "t0", "pbzip2")
	res, err := core.RunFromReport(fb.cfg, fb.report, fb.disc)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	b := store.NewMemBackend()
	coord, err := shard.NewCoordinator(b, "fleet", 1, true)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	w := newTestWorker(t, b, 0, 1, 10*time.Second, []fleetBug{fb})
	const campaigns = 3
	for n := 1; n <= campaigns; n++ {
		tenant := fmt.Sprintf("t%d", n)
		if _, err := coord.Assign(shard.Assignment{
			Tenant: tenant, Bug: fb.name, Report: fb.report, DiscoveryRuns: fb.disc,
		}); err != nil {
			t.Fatalf("Assign %s: %v", tenant, err)
		}
		for rounds := 0; ; rounds++ {
			live, err := w.Round()
			if err != nil {
				t.Fatalf("Round: %v", err)
			}
			if live == 0 {
				break
			}
			if w.Supervised() > 1 {
				t.Fatalf("campaign %d: supervisor holds %d campaigns, only one is in flight", n, w.Supervised())
			}
			if rounds > 100 {
				t.Fatalf("campaign %d did not finish", n)
			}
		}
		rec, err := coord.Done(tenant, fb.name)
		if err != nil || rec == nil || rec.Err != "" {
			t.Fatalf("Done %s: %+v, %v", tenant, rec, err)
		}
		if !bytes.Equal(rec.Sketch, fb.baseline) {
			t.Errorf("%s: sketch diverged from the single-process baseline", tenant)
		}
		if got := w.Supervised(); got != 0 {
			t.Errorf("after publishing campaign %d the supervisor still holds %d", n, got)
		}
		if got, want := w.Stats().Runs, n*res.TotalRuns; got != want {
			t.Errorf("after campaign %d Stats.Runs = %d, want %d (%d per campaign)", n, got, want, res.TotalRuns)
		}
	}
	if st := w.Stats(); st.Campaigns != campaigns || st.Finished != campaigns {
		t.Errorf("Stats = %+v, want %d campaigns enrolled and finished", st, campaigns)
	}
}

// TestDiscoveryFailureIsPublishedAsSuch pins the done record a reportless
// assignment leaves when its server-side discovery finds no failure: the
// error names discovery, as it did when the worker ran discovery itself.
func TestDiscoveryFailureIsPublishedAsSuch(t *testing.T) {
	const tenant, bug = "acme", "cppcheck-1"
	cfg := bugs.ByName(bug).GistConfig()
	cfg.Prog = ir.MustCompile("ok.mc", "int main() { return 0; }") // never fails
	b := store.NewMemBackend()
	coord, err := shard.NewCoordinator(b, "fleet", 1, true)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	if _, err := coord.Assign(shard.Assignment{Tenant: tenant, Bug: bug}); err != nil {
		t.Fatalf("Assign: %v", err)
	}
	w := newTestWorker(t, b, 0, 1, 10*time.Second, []fleetBug{{name: bug, cfg: cfg}})
	if _, err := w.Round(); err != nil {
		t.Fatalf("Round: %v", err)
	}
	rec, err := coord.Done(tenant, bug)
	if err != nil || rec == nil {
		t.Fatalf("Done: %+v, %v", rec, err)
	}
	if !strings.HasPrefix(rec.Err, "discovery: ") {
		t.Errorf("done record error %q, want it to start with \"discovery: \"", rec.Err)
	}
}
