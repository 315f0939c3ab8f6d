package supervise_test

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/supervise"
	"repro/internal/telemetry"
)

// openStore opens a fresh per-campaign checkpoint store on b.
func openStore(t *testing.T, b store.Backend, name string) *store.Store {
	t.Helper()
	st, err := store.Open("ckpt", name, store.Options{Backend: b, NoFsync: true})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	return st
}

// TestAdoptFreshWhenStoreIsEmpty pins Adopt's cold path: with no
// checkpoint generation it builds the campaign via the fresh callback
// and reports resumed=false.
func TestAdoptFreshWhenStoreIsEmpty(t *testing.T) {
	fx := prepare(t, []string{"pbzip2"})[0]
	b := store.NewMemBackend()
	sup := supervise.New(core.NewPool(1), supervise.Config{})
	slot, resumed, err := sup.Adopt(fx.cfg, openStore(t, b, fx.name), func() (*core.Campaign, error) {
		return core.NewCampaign(fx.cfg, fx.report, fx.disc)
	})
	if err != nil {
		t.Fatalf("Adopt: %v", err)
	}
	if resumed {
		t.Fatalf("Adopt reported resumed on an empty store")
	}
	out := sup.Run()[slot]
	if got := fingerprint(out.Result, out.Err); got != fx.serial {
		t.Errorf("adopted-fresh diagnosis diverged from serial baseline")
	}
}

// TestAdoptResumesFromLatestGeneration pins the takeover path: a first
// supervisor checkpoints a few rounds and stops (process death); a
// second supervisor adopting the same store must resume (not restart —
// the fresh callback must not run) and finish byte-identical to the
// serial baseline.
func TestAdoptResumesFromLatestGeneration(t *testing.T) {
	fx := prepare(t, []string{"pbzip2"})[0]
	b := store.NewMemBackend()

	first := supervise.New(core.NewPool(1), supervise.Config{})
	camp, err := core.NewCampaign(fx.cfg, fx.report, fx.disc)
	if err != nil {
		t.Fatalf("NewCampaign: %v", err)
	}
	if _, err := first.Add(fx.cfg, camp, openStore(t, b, fx.name)); err != nil {
		t.Fatalf("Add: %v", err)
	}
	for r := 0; r < 2; r++ {
		if first.RunRound() == 0 {
			t.Fatalf("campaign finished before the handoff round; pick a longer bug")
		}
	}
	// The first supervisor is simply never driven again — process death.

	second := supervise.New(core.NewPool(1), supervise.Config{})
	slot, resumed, err := second.Adopt(fx.cfg, openStore(t, b, fx.name), func() (*core.Campaign, error) {
		t.Fatalf("fresh callback ran despite a durable checkpoint generation")
		return nil, nil
	})
	if err != nil {
		t.Fatalf("Adopt: %v", err)
	}
	if !resumed {
		t.Fatalf("Adopt did not resume from the checkpoint store")
	}
	out := second.Run()[slot]
	if got := fingerprint(out.Result, out.Err); got != fx.serial {
		t.Errorf("resumed diagnosis diverged from serial baseline:\n--- resumed ---\n%s\n--- serial ---\n%s",
			got, fx.serial)
	}
}

// TestAdoptFallsBackAcrossCorruptGenerations: a newest generation whose
// payload no longer decodes is discarded and the previous one resumes.
func TestAdoptFallsBackAcrossCorruptGenerations(t *testing.T) {
	fx := prepare(t, []string{"pbzip2"})[0]
	b := store.NewMemBackend()

	first := supervise.New(core.NewPool(1), supervise.Config{})
	camp, err := core.NewCampaign(fx.cfg, fx.report, fx.disc)
	if err != nil {
		t.Fatalf("NewCampaign: %v", err)
	}
	st := openStore(t, b, fx.name)
	if _, err := first.Add(fx.cfg, camp, st); err != nil {
		t.Fatalf("Add: %v", err)
	}
	for r := 0; r < 2; r++ {
		if first.RunRound() == 0 {
			t.Fatalf("campaign finished too early for the test to bite")
		}
	}
	// Append a generation whose frame is valid but whose payload is not
	// a campaign snapshot: Adopt must discard it and use the real one.
	if _, err := st.Save([]byte("not a campaign snapshot")); err != nil {
		t.Fatalf("Save: %v", err)
	}

	second := supervise.New(core.NewPool(1), supervise.Config{})
	slot, resumed, err := second.Adopt(fx.cfg, openStore(t, b, fx.name), func() (*core.Campaign, error) {
		t.Fatalf("fresh callback ran despite a valid older generation")
		return nil, nil
	})
	if err != nil {
		t.Fatalf("Adopt: %v", err)
	}
	if !resumed {
		t.Fatalf("Adopt did not resume")
	}
	out := second.Run()[slot]
	if got := fingerprint(out.Result, out.Err); got != fx.serial {
		t.Errorf("fallback-resumed diagnosis diverged from serial baseline")
	}
}

// TestAdoptNilFreshIsResumeOrFail pins the CLI -resume contract: with a
// nil fresh callback Adopt resumes when a generation restores, and
// otherwise fails with ErrNoCheckpoint — after discarding what it could
// not read, so the caller can name the reason — instead of building a
// campaign from scratch.
func TestAdoptNilFreshIsResumeOrFail(t *testing.T) {
	fx := prepare(t, []string{"pbzip2"})[0]
	b := store.NewMemBackend()

	st := openStore(t, b, fx.name)
	if _, err := st.Save([]byte("not a campaign snapshot")); err != nil {
		t.Fatalf("Save: %v", err)
	}
	st = openStore(t, b, fx.name)
	_, _, err := supervise.New(core.NewPool(1), supervise.Config{}).Adopt(fx.cfg, st, nil)
	if !errors.Is(err, supervise.ErrNoCheckpoint) {
		t.Fatalf("Adopt(nil fresh) with no restorable generation: err = %v, want ErrNoCheckpoint", err)
	}
	if qs := st.Quarantined(); len(qs) != 1 || st.Latest() != nil {
		t.Fatalf("unreadable generation not discarded: %d quarantined, latest %v", len(qs), st.Latest())
	}

	first := supervise.New(core.NewPool(1), supervise.Config{})
	camp, err := core.NewCampaign(fx.cfg, fx.report, fx.disc)
	if err != nil {
		t.Fatalf("NewCampaign: %v", err)
	}
	if _, err := first.Add(fx.cfg, camp, openStore(t, b, fx.name)); err != nil {
		t.Fatalf("Add: %v", err)
	}
	first.RunRound()

	second := supervise.New(core.NewPool(1), supervise.Config{})
	slot, resumed, err := second.Adopt(fx.cfg, openStore(t, b, fx.name), nil)
	if err != nil || !resumed {
		t.Fatalf("Adopt(nil fresh) over a durable generation: resumed=%v err=%v", resumed, err)
	}
	out := second.Run()[slot]
	if got := fingerprint(out.Result, out.Err); got != fx.serial {
		t.Errorf("resumed diagnosis diverged from serial baseline")
	}
}

// TestRetireSlotStopsSteppingAndMarksReleased pins the lease-lost path:
// RetireSlot makes later rounds skip the slot and counts it released,
// distinguishing ownership handoff from breaker abandonment.
func TestRetireSlotStopsSteppingAndMarksReleased(t *testing.T) {
	fx := prepare(t, []string{"pbzip2"})[0]
	tel := telemetry.New()
	sup := supervise.New(core.NewPool(1), supervise.Config{Telemetry: tel})
	camp, err := core.NewCampaign(fx.cfg, fx.report, fx.disc)
	if err != nil {
		t.Fatalf("NewCampaign: %v", err)
	}
	slot, err := sup.Add(fx.cfg, camp, nil)
	if err != nil {
		t.Fatalf("Add: %v", err)
	}
	if sup.RunRound() != 1 {
		t.Fatalf("campaign not live before RetireSlot")
	}
	if _, ok := sup.Settled(slot); ok {
		t.Fatalf("live slot reads as settled")
	}
	sup.RetireSlot(slot)
	if sup.RunRound() != 0 {
		t.Fatalf("retired slot still stepped")
	}
	out, ok := sup.Settled(slot)
	if !ok || tel.Snapshot().Counters["supervise.released"] != 1 {
		t.Fatalf("slot not settled as released after RetireSlot: ok=%v released=%d %+v",
			ok, tel.Snapshot().Counters["supervise.released"], out)
	}
	if out.BreakerTripped {
		t.Fatalf("RetireSlot must not read as a breaker trip")
	}
}

// TestResumeQuarantinesCheckpointForAnotherProgram: a generation whose
// frame and payload are intact but which names instructions the
// program does not have — left by a build whose bug program has since
// changed — is quarantined like a corrupt one, and the valid older
// generation resumes byte-identically. Restoring it would index past
// the program, in RestoreCampaign or in the first Plan.
func TestResumeQuarantinesCheckpointForAnotherProgram(t *testing.T) {
	fx := prepare(t, []string{"pbzip2"})[0]
	first := supervise.New(core.NewPool(1), supervise.Config{})
	camp, err := core.NewCampaign(fx.cfg, fx.report, fx.disc)
	if err != nil {
		t.Fatalf("NewCampaign: %v", err)
	}
	b := store.NewMemBackend()
	if _, err := first.Add(fx.cfg, camp, openStore(t, b, fx.name)); err != nil {
		t.Fatalf("Add: %v", err)
	}
	for r := 0; r < 2; r++ {
		if first.RunRound() == 0 {
			t.Fatalf("campaign finished too early for the test to bite")
		}
	}
	valid := openStore(t, b, fx.name).Latest().Payload
	past := len(fx.cfg.Prog.Instrs)

	for _, tc := range []struct {
		name   string
		mutate func(s *core.CampaignSnapshot)
	}{
		{"report instruction", func(s *core.CampaignSnapshot) { s.Report.InstrID = 1 << 20 }},
		{"deadlock participant", func(s *core.CampaignSnapshot) { s.Report.OtherPCs = append(s.Report.OtherPCs, past) }},
		{"refinement", func(s *core.CampaignSnapshot) { s.Added = append(s.Added, past) }},
		{"sketch refinement", func(s *core.CampaignSnapshot) { s.Sketch.AddedByRefinement = append(s.Sketch.AddedByRefinement, past) }},
		{"sketch predictor", func(s *core.CampaignSnapshot) { s.Sketch.AllRanked[0].InstrIDs = []int{-1} }},
		{"negative sigma", func(s *core.CampaignSnapshot) { s.Sigma = -3 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			snap, err := core.DecodeCampaignSnapshot(valid)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if snap.Sketch == nil || len(snap.Sketch.AllRanked) == 0 {
				t.Fatalf("generation after two rounds carries no ranked sketch")
			}
			tc.mutate(snap)
			snap.ReportID = "" // the identity check is not what this test probes
			bad, err := snap.Encode()
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			if _, err := snap.RenderSketchJSON(fx.cfg.Prog); err == nil {
				t.Errorf("RenderSketchJSON accepted the foreign snapshot")
			}

			b := store.NewMemBackend()
			seed := openStore(t, b, fx.name)
			for _, payload := range [][]byte{valid, bad} {
				if _, err := seed.Save(payload); err != nil {
					t.Fatalf("Save: %v", err)
				}
			}
			st := openStore(t, b, fx.name)
			camp, err := supervise.Resume(fx.cfg, st)
			if err != nil {
				t.Fatalf("Resume: %v", err)
			}
			if qs := st.Quarantined(); len(qs) != 1 {
				t.Fatalf("%d generations quarantined, want the foreign one", len(qs))
			}
			res, err := camp.Run()
			if got := fingerprint(res, err); got != fx.serial {
				t.Errorf("resumed diagnosis diverged from serial baseline")
			}
		})
	}
}
