package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/faults"
)

// campaignFingerprint captures everything diagnosis-visible about a
// result; equal fingerprints mean byte-identical diagnoses.
func campaignFingerprint(res *Result, err error) string {
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
	if res.Sketch != nil {
		sb.WriteString(res.Sketch.Render())
		for _, r := range res.Sketch.AllRanked {
			fmt.Fprintf(&sb, "ranked=%+v\n", r)
		}
	}
	return sb.String()
}

// TestSeedCursorFollowsDiscovery pins the satellite fix: the production
// seed cursor starts right after the seeds discovery actually consumed,
// not after the maxDiscoveryRuns worth it was budgeted.
func TestSeedCursorFollowsDiscovery(t *testing.T) {
	cfg := pbzipConfig(t)
	report, disc, err := FirstFailure(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if disc >= maxDiscoveryRuns {
		t.Fatalf("discovery consumed its whole budget (%d runs); the cursor fix is unobservable", disc)
	}
	camp, err := NewCampaign(cfg, report, disc)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := camp.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if want := cfg.SeedBase + int64(disc); snap.SeedCursor != want {
		t.Errorf("seed cursor %d, want SeedBase+discRuns = %d (historical bug: SeedBase+maxDiscoveryRuns = %d)",
			snap.SeedCursor, want, cfg.SeedBase+maxDiscoveryRuns)
	}
}

// TestCampaignWrapperEquivalence checks RunFromReport (the wrapper) and
// a manually stepped campaign produce identical diagnoses.
func TestCampaignWrapperEquivalence(t *testing.T) {
	cfg := pbzipConfig(t)
	report, disc, err := FirstFailure(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := campaignFingerprint(RunFromReport(cfg, report, disc))
	camp, err := NewCampaign(cfg, report, disc)
	if err != nil {
		t.Fatal(err)
	}
	for {
		done, _ := camp.Step()
		if done {
			break
		}
	}
	if got := campaignFingerprint(camp.Result()); got != want {
		t.Errorf("stepped campaign diverged from RunFromReport:\n--- stepped ---\n%s\n--- wrapper ---\n%s", got, want)
	}
}

// TestCampaignSnapshotRoundTrip: Snapshot → Encode → Decode → Restore →
// Snapshot → Encode must be byte-identical JSON.
func TestCampaignSnapshotRoundTrip(t *testing.T) {
	cfg := pbzipConfig(t)
	report, disc, err := FirstFailure(cfg)
	if err != nil {
		t.Fatal(err)
	}
	camp, err := NewCampaign(cfg, report, disc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := camp.Step(); err != nil {
		t.Fatal(err)
	}
	snap, err := camp.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeCampaignSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	camp2, err := RestoreCampaign(cfg, dec)
	if err != nil {
		t.Fatal(err)
	}
	snap2, err := camp2.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	data2, err := snap2.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Errorf("snapshot round trip not byte-identical:\n--- first ---\n%s\n--- second ---\n%s", data, data2)
	}
}

// TestSnapshotSketchNotShared: Abandon marks a campaign's sketch
// low-confidence in place, so neither the campaign a snapshot was taken
// from nor one restored from it may share the snapshot's sketch — the
// supervisor restarts from that snapshot, and its copy must stay as
// checkpointed.
func TestSnapshotSketchNotShared(t *testing.T) {
	cfg := pbzipConfig(t)
	report, disc, err := FirstFailure(cfg)
	if err != nil {
		t.Fatal(err)
	}
	camp, err := NewCampaign(cfg, report, disc)
	if err != nil {
		t.Fatal(err)
	}
	if done, err := camp.Step(); done || err != nil {
		t.Fatalf("first step: done=%v err=%v; the test needs an unfinished campaign", done, err)
	}
	snap, err := camp.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Sketch == nil || snap.Sketch.LowConfidence {
		t.Fatalf("the test needs a confident sketch after one step, got %+v", snap.Sketch)
	}
	for _, c := range []struct {
		name string
		camp func() *Campaign
	}{
		{"snapshotted campaign", func() *Campaign { return camp }},
		{"restored campaign", func() *Campaign {
			restored, err := RestoreCampaign(cfg, snap)
			if err != nil {
				t.Fatal(err)
			}
			return restored
		}},
	} {
		live := c.camp()
		live.Abandon(nil)
		res, err := live.Result()
		if err != nil || !res.Sketch.LowConfidence {
			t.Fatalf("%s: Abandon did not mark its sketch low-confidence (err %v)", c.name, err)
		}
		if snap.Sketch.LowConfidence {
			t.Fatalf("abandoning the %s marked the snapshot's sketch low-confidence", c.name)
		}
	}
}

// TestCampaignSnapshotVersioning: unknown or malformed checkpoints are
// rejected with clear errors, never silently accepted.
func TestCampaignSnapshotVersioning(t *testing.T) {
	cases := []struct {
		name, data, wantErr string
	}{
		{"unknown version", `{"version": 99}`, "version 99 not supported"},
		{"zero version", `{"version": 0}`, "version 0 not supported"},
		{"not json", `garbage`, "not valid JSON"},
		{"no report", `{"version": 1}`, "no failure report"},
		{"unknown version, bad field", `{"version": 99, "iter": "x"}`, "version 99 not supported"},
		{"bad field", `{"version": 1, "iter": "x"}`, "gist: checkpoint: "},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := DecodeCampaignSnapshot([]byte(c.data))
			if err == nil {
				t.Fatalf("decode accepted %q", c.data)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("error %q does not mention %q", err, c.wantErr)
			}
		})
	}
	if _, err := RestoreCampaign(pbzipConfig(t), &CampaignSnapshot{Version: 7}); err == nil ||
		!strings.Contains(err.Error(), "version 7 not supported") {
		t.Errorf("RestoreCampaign accepted version 7: %v", err)
	}
	if _, err := RestoreCampaign(pbzipConfig(t), nil); err == nil {
		t.Error("RestoreCampaign accepted a nil snapshot")
	}
}

// TestCampaignSnapshotMidIterationRejected: checkpoints only happen at
// iteration boundaries; transient fleet state is not serializable.
func TestCampaignSnapshotMidIterationRejected(t *testing.T) {
	cfg := pbzipConfig(t)
	report, disc, err := FirstFailure(cfg)
	if err != nil {
		t.Fatal(err)
	}
	camp, err := NewCampaign(cfg, report, disc)
	if err != nil {
		t.Fatal(err)
	}
	camp.Plan()
	if _, err := camp.Snapshot(); err == nil || !strings.Contains(err.Error(), "mid-iteration") {
		t.Errorf("mid-iteration snapshot not rejected: %v", err)
	}
}

// TestCampaignResumeEveryBoundary is the persistence acceptance test:
// killing a diagnosis at ANY iteration boundary and resuming from the
// checkpoint must reproduce the uninterrupted diagnosis byte-for-byte —
// on a clean fleet and under 10% composite fault injection.
func TestCampaignResumeEveryBoundary(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"clean", func(*Config) {}},
		{"faults10", func(c *Config) { c.Faults = faults.Composite(1, 0.10) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := pbzipConfig(t)
			tc.mut(&cfg)
			report, disc, err := FirstFailure(cfg)
			if err != nil {
				t.Fatal(err)
			}
			baseline := campaignFingerprint(RunFromReport(cfg, report, disc))
			boundaries := 0
			for k := 0; ; k++ {
				camp, err := NewCampaign(cfg, report, disc)
				if err != nil {
					t.Fatal(err)
				}
				done := false
				for i := 0; i < k && !done; i++ {
					done, _ = camp.Step()
				}
				if done {
					break // every boundary of the diagnosis covered
				}
				snap, err := camp.Snapshot()
				if err != nil {
					t.Fatalf("boundary %d: %v", k, err)
				}
				data, err := snap.Encode()
				if err != nil {
					t.Fatalf("boundary %d: %v", k, err)
				}
				dec, err := DecodeCampaignSnapshot(data)
				if err != nil {
					t.Fatalf("boundary %d: %v", k, err)
				}
				resumed, err := RestoreCampaign(cfg, dec)
				if err != nil {
					t.Fatalf("boundary %d: %v", k, err)
				}
				if got := campaignFingerprint(resumed.Run()); got != baseline {
					t.Fatalf("resume at boundary %d diverged:\n--- resumed ---\n%s\n--- uninterrupted ---\n%s",
						k, got, baseline)
				}
				boundaries++
			}
			if boundaries == 0 {
				t.Fatal("diagnosis finished before any boundary; test covered nothing")
			}
		})
	}
}

// TestCampaignFinishedSnapshot: a terminal campaign checkpoints as
// finished, restores as finished, and stepping it stays a no-op.
func TestCampaignFinishedSnapshot(t *testing.T) {
	cfg := pbzipConfig(t)
	report, disc, err := FirstFailure(cfg)
	if err != nil {
		t.Fatal(err)
	}
	camp, err := NewCampaign(cfg, report, disc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := camp.Run(); err != nil {
		t.Fatal(err)
	}
	want := campaignFingerprint(camp.Result())
	snap, err := camp.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !snap.Finished {
		t.Fatal("terminal campaign snapshotted as unfinished")
	}
	data, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeCampaignSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreCampaign(cfg, dec)
	if err != nil {
		t.Fatal(err)
	}
	if !restored.Finished() {
		t.Fatal("restored terminal campaign reports unfinished")
	}
	if done, _ := restored.Step(); !done {
		t.Error("Step on a finished campaign must stay terminal")
	}
	if got := campaignFingerprint(restored.Result()); got != want {
		t.Errorf("restored terminal result diverged:\n--- restored ---\n%s\n--- original ---\n%s", got, want)
	}
}

// TestCampaignMaxItersResumable: running out of MaxIters is boundary
// state, not a terminal verdict — resuming with a larger budget
// continues to the same diagnosis an unbudgeted run produces.
func TestCampaignMaxItersResumable(t *testing.T) {
	cfg := pbzipConfig(t)
	report, disc, err := FirstFailure(cfg)
	if err != nil {
		t.Fatal(err)
	}
	baseline := campaignFingerprint(RunFromReport(cfg, report, disc))

	small := cfg
	small.MaxIters = 2
	camp, err := NewCampaign(small, report, disc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := camp.Run(); err != nil {
		t.Fatalf("budgeted run: %v", err)
	}
	snap, err := camp.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Finished {
		t.Fatal("MaxIters exhaustion snapshotted as finished; resume would be refused more budget")
	}
	if snap.Iter != 2 {
		t.Fatalf("exhausted at iteration %d, want 2", snap.Iter)
	}
	resumed, err := RestoreCampaign(cfg, snap)
	if err != nil {
		t.Fatal(err)
	}
	if got := campaignFingerprint(resumed.Run()); got != baseline {
		t.Errorf("resume after MaxIters exhaustion diverged:\n--- resumed ---\n%s\n--- uninterrupted ---\n%s",
			got, baseline)
	}
}
