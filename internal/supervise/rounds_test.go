package supervise_test

import (
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/supervise"
	"repro/internal/telemetry"
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
		sup := supervise.New(core.NewPool(width), supervise.Config{})
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
// the rounds it was live in, and the per-round run deltas sum to the
// diagnosis total.
func TestRoundFairnessTrace(t *testing.T) {
	fixtures := prepare(t, roundBugs)
	sup := supervise.New(core.NewPool(0), supervise.Config{})
	camps := make([]*core.Campaign, len(fixtures))
	for i, fx := range fixtures {
		camps[i] = fx.make()
		if _, err := sup.Add(fx.cfg, camps[i], nil); err != nil {
			t.Fatal(err)
		}
	}
	// Count each slot's live rounds independently of the trace.
	rounds := make([]int, len(fixtures))
	for {
		for i := range rounds {
			if _, settled := sup.Settled(i); !settled {
				rounds[i]++
			}
		}
		if sup.RunRound() == 0 {
			break
		}
	}
	for i, out := range sup.Outcomes() {
		if rounds[i] == 0 {
			t.Errorf("%s: zero rounds", out.Label)
		}
		if len(out.RunsPerRound) != rounds[i] {
			t.Errorf("%s: %d round samples for %d rounds", out.Label, len(out.RunsPerRound), rounds[i])
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
		if camps[i].Iteration()+1 < rounds[i] {
			t.Errorf("%s: %d rounds but campaign only reached iteration %d", out.Label, rounds[i], camps[i].Iteration())
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
		tel := telemetry.New()
		a := supervise.New(core.NewPool(1), supervise.Config{Telemetry: tel})
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
		if out, ok := a.Settled(slot); !ok || tel.Snapshot().Counters["supervise.released"] != 1 {
			t.Fatalf("%s: slot not settled as released: ok=%v released=%d %+v",
				fx.name, ok, tel.Snapshot().Counters["supervise.released"], out)
		}
		if a.RunRound() != 0 {
			t.Fatalf("%s: retired slot still stepped", fx.name)
		}

		// Resume on B from the durable generation, exactly as the new
		// owner's process would after a handoff.
		b := supervise.New(core.NewPool(1), supervise.Config{})
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
	sup := supervise.New(core.NewPool(1), supervise.Config{})
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

// countingFleet is a fleet that is not a core.Pool: it forwards every
// batch to a pool and counts the runs it carried.
type countingFleet struct {
	pool *core.Pool
	runs atomic.Int64
}

func (f *countingFleet) RunBatch(plan *core.Plan, jobs []core.RunJob) []*core.RunTrace {
	f.runs.Add(int64(len(jobs)))
	return f.pool.RunBatch(plan, jobs)
}

// TestRestartKeepsTheSupervisorsFleet pins that a campaign restored
// after a crash runs on the fleet the supervisor was built with, not on
// the private pool restoration gives it: every round's runs, before and
// after the restart, pass through the supervisor's fleet, and the
// diagnosis still equals the serial one.
func TestRestartKeepsTheSupervisorsFleet(t *testing.T) {
	fx := prepare(t, roundBugs[:1])[0]
	fleet := &countingFleet{pool: core.NewPool(2)}
	sup := supervise.New(fleet, supervise.Config{})
	slot, err := sup.Add(fx.cfg, fx.make(), nil)
	if err != nil {
		t.Fatal(err)
	}
	sup.SetStepFault(slot, func(step int) supervise.StepFault {
		if step == 1 {
			return supervise.StepPanic
		}
		return supervise.StepNone
	})
	var carried []int
	for {
		before := fleet.runs.Load()
		if sup.RunRound() == 0 {
			break
		}
		carried = append(carried, int(fleet.runs.Load()-before))
	}
	out := sup.Outcomes()[slot]
	if out.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1", out.Restarts)
	}
	if got := fingerprint(out.Result, out.Err); got != fx.serial {
		t.Errorf("diagnosis diverged from serial baseline:\n--- supervised ---\n%s\n--- serial ---\n%s", got, fx.serial)
	}
	// A fleet that is not a pool is fed one run at a time, so nothing is
	// speculated past admission: the fleet carries exactly the runs the
	// campaign admits, round by round.
	if !slices.Equal(carried, out.RunsPerRound) {
		t.Errorf("runs carried by the fleet per round %v, campaign consumed %v", carried, out.RunsPerRound)
	}
	after := 0
	for _, n := range out.RunsPerRound[2:] {
		after += n
	}
	if after == 0 {
		t.Errorf("no runs after the restart (rounds %v); the test does not reach the restored campaign", out.RunsPerRound)
	}
}
