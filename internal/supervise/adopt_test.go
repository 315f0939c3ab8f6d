package supervise_test

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/supervise"
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
	sup := supervise.New(1, supervise.Config{})
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

	first := supervise.New(1, supervise.Config{})
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

	second := supervise.New(1, supervise.Config{})
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

	first := supervise.New(1, supervise.Config{})
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

	second := supervise.New(1, supervise.Config{})
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
	_, _, err := supervise.New(1, supervise.Config{}).Adopt(fx.cfg, st, nil)
	if !errors.Is(err, supervise.ErrNoCheckpoint) {
		t.Fatalf("Adopt(nil fresh) with no restorable generation: err = %v, want ErrNoCheckpoint", err)
	}
	if qs := st.Quarantined(); len(qs) != 1 || st.Latest() != nil {
		t.Fatalf("unreadable generation not discarded: %d quarantined, latest %v", len(qs), st.Latest())
	}

	first := supervise.New(1, supervise.Config{})
	camp, err := core.NewCampaign(fx.cfg, fx.report, fx.disc)
	if err != nil {
		t.Fatalf("NewCampaign: %v", err)
	}
	if _, err := first.Add(fx.cfg, camp, openStore(t, b, fx.name)); err != nil {
		t.Fatalf("Add: %v", err)
	}
	first.RunRound()

	second := supervise.New(1, supervise.Config{})
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
// RetireSlot makes later rounds skip the slot and the outcome reports
// Released, distinguishing ownership handoff from breaker abandonment.
func TestRetireSlotStopsSteppingAndMarksReleased(t *testing.T) {
	fx := prepare(t, []string{"pbzip2"})[0]
	sup := supervise.New(1, supervise.Config{})
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
	if !ok || !out.Released {
		t.Fatalf("outcome not marked Released after RetireSlot: %+v", out)
	}
	if out.BreakerTripped {
		t.Fatalf("RetireSlot must not read as a breaker trip")
	}
}
