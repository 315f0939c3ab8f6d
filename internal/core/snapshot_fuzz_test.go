package core_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/bugs"
	"repro/internal/core"
)

// snapshotBugs are the programs FuzzCampaignSnapshot restores against:
// a concurrency bug, a sequential one, a deadlock (whose report carries
// other threads' PCs) and the suite's largest program.
var snapshotBugs = []string{"pbzip2", "curl", "deadlock", "apache-1"}

// snapshotSeeds encodes each bug's campaign at its first three
// iteration boundaries: before any run, and after one and two steps,
// once a sketch and refinement-added statements exist.
func snapshotSeeds(tb testing.TB, cfgs []core.Config) (which []uint8, data [][]byte) {
	for i, cfg := range cfgs {
		camp, err := core.NewCampaign(cfg, nil, 0)
		if err != nil {
			tb.Fatalf("%s: %v", snapshotBugs[i], err)
		}
		for step := 0; step < 3; step++ {
			snap, err := camp.Snapshot()
			if err != nil {
				tb.Fatalf("%s: snapshot: %v", snapshotBugs[i], err)
			}
			enc, err := snap.Encode()
			if err != nil {
				tb.Fatalf("%s: encode: %v", snapshotBugs[i], err)
			}
			which = append(which, uint8(i))
			data = append(data, enc)
			if done, _ := camp.Step(); done {
				break
			}
		}
	}
	return which, data
}

// TestSnapshotEncodeCompact: a checkpoint is compact JSON ending in one
// newline, for every snapshotBugs campaign at its first three boundaries
// (fewer for a campaign that finishes sooner). That encoding survives a
// decode byte for byte is TestCampaignSnapshotRoundTrip's.
func TestSnapshotEncodeCompact(t *testing.T) {
	cfgs := make([]core.Config, len(snapshotBugs))
	for i, name := range snapshotBugs {
		cfgs[i] = bugs.ByName(name).GistConfig()
	}
	which, data := snapshotSeeds(t, cfgs)
	for i, enc := range data {
		var compact bytes.Buffer
		if err := json.Compact(&compact, enc); err != nil {
			t.Fatalf("%s #%d: %v", snapshotBugs[which[i]], i, err)
		}
		if !bytes.HasSuffix(enc, []byte("}\n")) || !bytes.Equal(compact.Bytes(), enc[:len(enc)-1]) {
			t.Fatalf("%s #%d: checkpoint is not compact JSON and one newline:\n%.200s", snapshotBugs[which[i]], i, enc)
		}
	}
}

// FuzzCampaignSnapshot feeds arbitrary checkpoint bytes down the path a
// resuming server takes: decode, render the stored sketch, restore, and
// plan the next iteration. Each stage may reject its input with an
// error; none may panic.
func FuzzCampaignSnapshot(f *testing.F) {
	cfgs := make([]core.Config, len(snapshotBugs))
	for i, name := range snapshotBugs {
		cfgs[i] = bugs.ByName(name).GistConfig()
	}
	which, data := snapshotSeeds(f, cfgs)
	for i := range data {
		f.Add(which[i], data[i])
	}
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		cfg := cfgs[int(which)%len(cfgs)]
		snap, err := core.DecodeCampaignSnapshot(data)
		if err != nil {
			return
		}
		_, _ = snap.RenderSketchJSON(cfg.Prog)
		camp, err := core.RestoreCampaign(cfg, snap)
		if err != nil {
			return
		}
		camp.Plan()
	})
}
