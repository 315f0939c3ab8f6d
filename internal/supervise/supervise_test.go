package supervise_test

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/bugs"
	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/supervise"
	"repro/internal/telemetry"
	"repro/internal/vm"
)

var superBugs = []string{"pbzip2", "curl", "memcached"}

// fingerprint captures everything diagnosis-visible about an outcome;
// two equal fingerprints mean byte-identical diagnoses.
func fingerprint(res *core.Result, err error) string {
	if err != nil {
		return "err: " + err.Error()
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "disc=%d total=%d rec=%d ov=%.9f\n",
		res.DiscoveryRuns, res.TotalRuns, res.FailureRecurrences, res.AvgOverheadPct)
	fmt.Fprintf(&sb, "health=%+v\n", res.Health)
	for _, it := range res.Iters {
		fmt.Fprintf(&sb, "iter=%+v\n", it)
	}
	fmt.Fprintf(&sb, "slice=%v\n", res.Slice.IDs)
	sb.WriteString(res.Sketch.Render())
	for _, r := range res.Sketch.AllRanked {
		fmt.Fprintf(&sb, "ranked=%+v\n", r)
	}
	return sb.String()
}

type tenantFixture struct {
	name   string
	cfg    core.Config
	report *vm.FailureReport
	disc   int
	make   func() *core.Campaign
	serial string
}

// prepare discovers each bug's first failure once and returns per-bug
// campaign factories (with the restore config the supervisor needs)
// plus serial baseline fingerprints.
func prepare(t *testing.T, names []string) []*tenantFixture {
	t.Helper()
	var out []*tenantFixture
	for _, name := range names {
		b := bugs.ByName(name)
		if b == nil {
			t.Fatalf("unknown bug %q", name)
		}
		cfg := b.GistConfig()
		cfg.Label = b.Name
		cfg.StopWhen = bugs.DeveloperOracle(b)
		report, disc, err := core.FirstFailure(cfg)
		if err != nil {
			t.Fatalf("%s: discovery: %v", name, err)
		}
		fx := &tenantFixture{name: name, cfg: cfg, report: report, disc: disc}
		fx.serial = fingerprint(core.RunFromReport(cfg, report, disc))
		fx.make = func() *core.Campaign {
			camp, err := core.NewCampaign(cfg, report, disc)
			if err != nil {
				t.Fatalf("%s: NewCampaign: %v", name, err)
			}
			return camp
		}
		out = append(out, fx)
	}
	return out
}

// TestSupervisedCleanMatchesSerial runs all tenants supervised with no
// faults: every diagnosis must be byte-identical to the serial
// baseline, with zero restarts and a durable checkpoint per step.
func TestSupervisedCleanMatchesSerial(t *testing.T) {
	fixtures := prepare(t, superBugs)
	sup := supervise.New(core.NewPool(0), supervise.Config{})
	// One tracer per slot's store counts that slot's durable saves.
	tels := make([]*telemetry.Tracer, len(fixtures))
	for i, fx := range fixtures {
		tels[i] = telemetry.New()
		st, err := store.Open(t.TempDir(), fx.name, store.Options{Telemetry: tels[i]})
		if err != nil {
			t.Fatal(err)
		}
		slot, err := sup.Add(fx.cfg, fx.make(), st)
		if err != nil || slot != i {
			t.Fatalf("Add(%s) = slot %d, err %v", fx.name, slot, err)
		}
	}
	outs := sup.Run()
	for i, out := range outs {
		fx := fixtures[i]
		if got := fingerprint(out.Result, out.Err); got != fx.serial {
			t.Errorf("%s: supervised diagnosis diverged from serial:\n%s", fx.name, got)
		}
		if out.Restarts != 0 || out.BreakerTripped || out.Drained {
			t.Errorf("%s: clean run recorded supervision events: %+v", fx.name, out)
		}
		// One checkpoint at enrollment plus one per completed round.
		if saves, rounds := tels[i].Snapshot().Counters["store.saves"], len(out.RunsPerRound); saves != int64(rounds+1) {
			t.Errorf("%s: %d checkpoints for %d rounds", fx.name, saves, rounds)
		}
	}
}

// TestCrashAndHangRestartsAreByteIdentical injects one panic into one
// tenant and one hang into another; the supervisor must restart both
// from their checkpoints and still produce byte-identical diagnoses.
func TestCrashAndHangRestartsAreByteIdentical(t *testing.T) {
	fixtures := prepare(t, superBugs)
	tel := telemetry.New()
	sup := supervise.New(core.NewPool(0), supervise.Config{StepTimeout: 2 * time.Second, Telemetry: tel})
	for _, fx := range fixtures {
		if _, err := sup.Add(fx.cfg, fx.make(), nil); err != nil {
			t.Fatal(err)
		}
	}
	sup.SetStepFault(0, func(step int) supervise.StepFault {
		if step == 1 {
			return supervise.StepPanic
		}
		return supervise.StepNone
	})
	sup.SetStepFault(1, func(step int) supervise.StepFault {
		if step == 0 {
			return supervise.StepHang
		}
		return supervise.StepNone
	})
	// Each fault fires in its own round, so the supervisor-wide counters
	// read after that round name the slot that restarted and why: round
	// 1 trips slot 1's watchdog, round 2 catches slot 0's panic (slot 1
	// sits it out in backoff).
	for round, want := range []struct{ restarts0, restarts1, panics, trips int64 }{
		{0, 1, 0, 1},
		{1, 1, 1, 1},
	} {
		sup.RunRound()
		outs := sup.Outcomes()
		got := struct{ restarts0, restarts1, panics, trips int64 }{
			int64(outs[0].Restarts), int64(outs[1].Restarts),
			tel.Snapshot().Counters["supervise.panics"], tel.Snapshot().Counters["supervise.watchdog_trips"],
		}
		if got != want {
			t.Errorf("after round %d: slot 0 restarts, slot 1 restarts, panics, watchdog trips = %v, want %v",
				round+1, got, want)
		}
	}
	outs := sup.Run()
	for i, out := range outs {
		fx := fixtures[i]
		if got := fingerprint(out.Result, out.Err); got != fx.serial {
			t.Errorf("%s: post-restart diagnosis diverged from serial:\n%s", fx.name, got)
		}
	}
	if outs[0].Restarts != 1 || tel.Snapshot().Counters["supervise.panics"] != 1 {
		t.Errorf("slot 0: restarts=%d panics=%d, want 1/1", outs[0].Restarts, tel.Snapshot().Counters["supervise.panics"])
	}
	if outs[1].Restarts != 1 || tel.Snapshot().Counters["supervise.watchdog_trips"] != 1 {
		t.Errorf("slot 1: restarts=%d watchdog=%d, want 1/1", outs[1].Restarts, tel.Snapshot().Counters["supervise.watchdog_trips"])
	}
	if outs[2].Restarts != 0 {
		t.Errorf("slot 2: healthy tenant restarted %d times", outs[2].Restarts)
	}
}

// TestBreakerDegradesToLastCheckpoint crash-loops one tenant past its
// restart budget: the breaker must retire the slot and serve the last
// checkpointed sketch marked low-confidence rather than fail the whole
// schedule.
func TestBreakerDegradesToLastCheckpoint(t *testing.T) {
	fx := prepare(t, []string{"pbzip2"})[0]
	// Drop the developer oracle so the campaign needs several
	// iterations to converge — the breaker must fire mid-diagnosis.
	cfg := fx.cfg
	cfg.StopWhen = nil

	// Expected degraded state: one clean iteration, then abandonment.
	ref, err := core.NewCampaign(cfg, fx.report, fx.disc)
	if err != nil {
		t.Fatal(err)
	}
	if done, _ := ref.Step(); done {
		t.Skip("bug converged in one iteration; breaker cannot fire mid-diagnosis")
	}
	snap, err := ref.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	expected, err := core.RestoreCampaign(cfg, snap)
	if err != nil {
		t.Fatal(err)
	}
	expected.Abandon(fmt.Errorf("reference"))
	wantRes, wantErr := expected.Result()

	sup := supervise.New(core.NewPool(0), supervise.Config{})
	camp, err := core.NewCampaign(cfg, fx.report, fx.disc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sup.Add(cfg, camp, nil); err != nil {
		t.Fatal(err)
	}
	sup.SetStepFault(0, func(step int) supervise.StepFault {
		if step >= 1 {
			return supervise.StepPanic
		}
		return supervise.StepNone
	})
	out := sup.Run()[0]
	if !out.BreakerTripped {
		t.Fatalf("breaker did not trip: %+v", out)
	}
	if out.Restarts != 4 {
		t.Errorf("restarts = %d, want 4 (budget 3 + breaker trip)", out.Restarts)
	}
	if wantErr != nil {
		if out.Err == nil || out.Err.Error() != wantErr.Error() {
			t.Fatalf("degraded err = %v, want %v", out.Err, wantErr)
		}
		return
	}
	if out.Result == nil {
		t.Fatalf("breaker served no result (err %v)", out.Err)
	}
	if !out.Result.Sketch.LowConfidence {
		t.Error("degraded sketch not marked low-confidence")
	}
	if got, want := fingerprint(out.Result, out.Err), fingerprint(wantRes, wantErr); got != want {
		t.Errorf("degraded diagnosis is not the last checkpoint:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestCrashLoopCannotStarveOthers is the fairness satellite: one tenant
// crash-loops from its very first step, and the healthy tenants must
// still complete byte-identically with an even share of the fleet
// (Jain index over their per-round consumption stays near 1).
func TestCrashLoopCannotStarveOthers(t *testing.T) {
	fixtures := prepare(t, superBugs)
	sup := supervise.New(core.NewPool(0), supervise.Config{})
	for _, fx := range fixtures {
		if _, err := sup.Add(fx.cfg, fx.make(), nil); err != nil {
			t.Fatal(err)
		}
	}
	sup.SetStepFault(0, func(int) supervise.StepFault { return supervise.StepPanic })
	outs := sup.Run()

	if !outs[0].BreakerTripped {
		t.Fatalf("crash-looping tenant did not trip the breaker: %+v", outs[0])
	}
	for _, n := range outs[0].RunsPerRound {
		if n != 0 {
			t.Errorf("crash-looping tenant consumed %d fleet runs in a round", n)
		}
	}
	var shares []float64
	for i := 1; i < len(outs); i++ {
		out := outs[i]
		fx := fixtures[i]
		if got := fingerprint(out.Result, out.Err); got != fx.serial {
			t.Errorf("%s: diagnosis diverged beside a crash-looping tenant:\n%s", fx.name, got)
		}
		sum := 0
		for _, n := range out.RunsPerRound {
			sum += n
		}
		shares = append(shares, float64(sum)/float64(len(out.RunsPerRound)))
	}
	if j := jainIndex(shares); j < 0.6 {
		t.Errorf("Jain fairness index %.3f across healthy tenants, want >= 0.6 (shares %v)", j, shares)
	}
}

// TestDrainCheckpointsAndResumes requests a drain mid-run: every
// in-flight campaign must be checkpointed durably, and a fresh process
// (new store handle, new supervisor) must finish each diagnosis
// byte-identically from those checkpoints.
func TestDrainCheckpointsAndResumes(t *testing.T) {
	fixtures := prepare(t, superBugs)
	dirs := make([]string, len(fixtures))
	sup := supervise.New(core.NewPool(0), supervise.Config{})
	for i, fx := range fixtures {
		dirs[i] = t.TempDir()
		st, err := store.Open(dirs[i], fx.name, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sup.Add(fx.cfg, fx.make(), st); err != nil {
			t.Fatal(err)
		}
	}
	// A stepper-side hook flips the drain flag during round 2; the
	// supervisor notices at the round boundary.
	sup.SetStepFault(0, func(step int) supervise.StepFault {
		if step == 1 {
			sup.RequestDrain()
		}
		return supervise.StepNone
	})
	outs := sup.Run()
	drained := 0
	for i, out := range outs {
		if out.Drained {
			drained++
		} else if out.Err != nil || out.Result == nil {
			t.Fatalf("%s: neither finished nor drained (err %v)", fixtures[i].name, out.Err)
		}
	}
	if drained == 0 {
		t.Fatal("drain request lost")
	}

	for i, out := range outs {
		fx := fixtures[i]
		final := out
		if out.Drained {
			if out.Err == nil {
				t.Errorf("%s: drained outcome has no pending error", fx.name)
			}
			// Simulate process restart: reopen the store, restore the
			// newest generation, finish under a new supervisor.
			st, err := store.Open(dirs[i], fx.name, store.Options{})
			if err != nil {
				t.Fatal(err)
			}
			latest := st.Latest()
			if latest == nil {
				t.Fatalf("%s: drain left no durable checkpoint", fx.name)
			}
			snap, err := core.DecodeCampaignSnapshot(latest.Payload)
			if err != nil {
				t.Fatalf("%s: drain checkpoint undecodable: %v", fx.name, err)
			}
			camp, err := core.RestoreCampaign(fx.cfg, snap)
			if err != nil {
				t.Fatalf("%s: restore: %v", fx.name, err)
			}
			resumed := supervise.New(core.NewPool(0), supervise.Config{})
			if _, err := resumed.Add(fx.cfg, camp, st); err != nil {
				t.Fatal(err)
			}
			final = resumed.Run()[0]
		}
		if got := fingerprint(final.Result, final.Err); got != fx.serial {
			t.Errorf("%s: drained-and-resumed diagnosis diverged from serial:\n%s", fx.name, got)
		}
	}
}

// jainIndex is Jain's fairness index (sum x)^2 / (n * sum x^2) over a
// non-negative allocation vector: 1.0 for perfectly equal shares,
// approaching 1/n as one tenant monopolizes. An empty or all-zero
// vector is vacuously fair.
func jainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sq)
}

func TestJainIndex(t *testing.T) {
	cases := []struct {
		name string
		xs   []float64
		want float64
	}{
		{"empty is vacuously fair", nil, 1},
		{"all zero is vacuously fair", []float64{0, 0, 0}, 1},
		{"equal shares", []float64{5, 5, 5, 5}, 1},
		{"one tenant monopolizes", []float64{10, 0, 0, 0}, 0.25},
		{"moderate skew", []float64{4, 2}, 0.9},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := jainIndex(c.xs); math.Abs(got-c.want) > 1e-9 {
				t.Errorf("jainIndex(%v) = %g, want %g", c.xs, got, c.want)
			}
		})
	}
}
