package supervise_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/supervise"
)

// roundBugs is the multi-tenant suite: four distinct failures diagnosed
// concurrently over one shared fleet.
var roundBugs = []string{"pbzip2", "curl", "memcached", "apache-1"}

// TestRoundsMatchSerial interleaves all tenants over shared pools of
// width 1 and 8 and requires every campaign's outcome to be
// byte-identical to its serial RunFromReport baseline — determinism
// regardless of interleaving — and reported in enrollment order.
func TestRoundsMatchSerial(t *testing.T) {
	fixtures := prepare(t, roundBugs)
	for _, width := range []int{1, 8} {
		sup := supervise.New(width, supervise.Config{})
		for _, fx := range fixtures {
			if _, err := sup.Add(fx.cfg, fx.make(), nil); err != nil {
				t.Fatal(err)
			}
		}
		outs := sup.Run()
		if len(outs) != len(fixtures) {
			t.Fatalf("width %d: %d outcomes, want %d", width, len(outs), len(fixtures))
		}
		for i, out := range outs {
			fx := fixtures[i]
			if out.Label != fx.name {
				t.Errorf("width %d: outcome %d label %q, want %q (enrollment order)", width, i, out.Label, fx.name)
			}
			if got := fingerprint(out.Result, out.Err); got != fx.serial {
				t.Errorf("width %d: %s diverged from serial diagnosis:\n--- scheduled ---\n%s\n--- serial ---\n%s",
					width, fx.name, got, fx.serial)
			}
		}
	}
}

// TestRoundFairnessTrace checks the round-robin accounting: every
// tenant is stepped every round it is live, the per-round samples match
// the round count, and the per-round run deltas sum to the diagnosis
// total.
func TestRoundFairnessTrace(t *testing.T) {
	fixtures := prepare(t, roundBugs)
	sup := supervise.New(0, supervise.Config{})
	camps := make([]*core.Campaign, len(fixtures))
	for i, fx := range fixtures {
		camps[i] = fx.make()
		if _, err := sup.Add(fx.cfg, camps[i], nil); err != nil {
			t.Fatal(err)
		}
	}
	for i, out := range sup.Run() {
		if out.Rounds == 0 {
			t.Errorf("%s: zero rounds", out.Label)
		}
		if len(out.RunsPerRound) != out.Rounds {
			t.Errorf("%s: %d round samples for %d rounds", out.Label, len(out.RunsPerRound), out.Rounds)
		}
		sum := 0
		for _, n := range out.RunsPerRound {
			sum += n
		}
		if out.Result == nil {
			t.Fatalf("%s: nil result (err %v)", out.Label, out.Err)
		}
		if sum != out.Result.TotalRuns {
			t.Errorf("%s: per-round runs sum to %d, TotalRuns %d", out.Label, sum, out.Result.TotalRuns)
		}
		if camps[i].Iteration()+1 < out.Rounds {
			t.Errorf("%s: %d rounds but campaign only reached iteration %d", out.Label, out.Rounds, camps[i].Iteration())
		}
	}
}

// TestRetireAndAdoptAcrossSupervisors is the rebalancing contract the
// shard layer is built on: a campaign stepped partway on supervisor A
// (worker A's fleet pool), retired mid-diagnosis, and adopted by
// supervisor B from the generation A saved at the retirement boundary
// must finish with a transcript byte-identical to the undisturbed
// serial run — the boundary checkpoint carries everything, and nothing
// leaks between hosts through the slot.
func TestRetireAndAdoptAcrossSupervisors(t *testing.T) {
	for _, fx := range prepare(t, roundBugs) {
		backend := store.NewMemBackend()
		a := supervise.New(1, supervise.Config{})
		slot, err := a.Add(fx.cfg, fx.make(), openStore(t, backend, fx.name))
		if err != nil {
			t.Fatalf("%s: Add: %v", fx.name, err)
		}
		// Step on A until the campaign is a few iteration boundaries in
		// (or done, for a bug that converges sooner).
		for r := 0; r < 3 && a.RunRound() > 0; r++ {
		}
		// Retire on A: A's slot steps no more, even if A keeps running.
		a.RetireSlot(slot)
		if out, ok := a.Settled(slot); !ok || !out.Released {
			t.Fatalf("%s: slot not settled as released: ok=%v %+v", fx.name, ok, out)
		}
		if a.RunRound() != 0 {
			t.Fatalf("%s: retired slot still stepped", fx.name)
		}

		// Resume on B from the durable generation, exactly as the new
		// owner's process would after a handoff.
		b := supervise.New(1, supervise.Config{})
		if _, resumed, err := b.Adopt(fx.cfg, openStore(t, backend, fx.name), nil); err != nil || !resumed {
			t.Fatalf("%s: Adopt: resumed=%v err=%v", fx.name, resumed, err)
		}
		out := b.Run()[0]
		if got := fingerprint(out.Result, out.Err); got != fx.serial {
			t.Errorf("%s: handed-off diagnosis diverged from serial baseline:\n--- handed off ---\n%s\n--- serial ---\n%s",
				fx.name, got, fx.serial)
		}
	}
}

// TestRestartSwapsTheSlotCampaign pins the swap a restart performs:
// once a step has crashed, the slot steps the campaign restored from
// the checkpoint and the original object is never stepped again.
func TestRestartSwapsTheSlotCampaign(t *testing.T) {
	fx := prepare(t, roundBugs[:1])[0]
	sup := supervise.New(1, supervise.Config{})
	orig := fx.make()
	slot, err := sup.Add(fx.cfg, orig, nil)
	if err != nil {
		t.Fatal(err)
	}
	sup.SetStepFault(slot, func(step int) supervise.StepFault {
		if step == 0 {
			return supervise.StepPanic
		}
		return supervise.StepNone
	})
	out := sup.Run()[slot]
	if got := fingerprint(out.Result, out.Err); got != fx.serial {
		t.Errorf("replacement campaign diverged from serial baseline:\n%s", got)
	}
	if orig.Finished() || orig.Iteration() != 0 {
		t.Errorf("original campaign was stepped after the swap (iteration %d, finished %v)",
			orig.Iteration(), orig.Finished())
	}
}
