package supervise_test

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/bugs"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/store"
	"repro/internal/supervise"
)

// crashloopRow counts what one kill-and-resume cell went through.
type crashloopRow struct {
	kills, resumes    int
	saves, saveErrors int
	// quarantined counts generations the reopen scans moved aside as torn
	// or corrupt; fallbacks counts the ones Resume discarded because they
	// did not restore; coldStarts counts resumes where no generation
	// survived and the campaign was rebuilt from its config.
	quarantined, fallbacks, coldStarts int
	generations                        int
}

// crashloopCell runs pbzip2 to completion while killing the in-memory
// campaign at seeded iteration boundaries and resuming it from a
// checkpoint store that suffers injected disk faults, and returns the
// cell's counts with the final diagnosis fingerprint. The kill schedule
// is a pure function of cell, the cell's name.
func crashloopCell(t *testing.T, cell string, cfg core.Config, diskRate float64, dir string) (crashloopRow, string) {
	t.Helper()
	var row crashloopRow
	var dinj *faults.Injector
	if diskRate > 0 {
		dinj = faults.NewInjector(faults.Disk(experiments.ChaosSeed, diskRate))
	}
	open := func() *store.Store {
		st, err := store.Open(dir, cfg.Label, store.Options{Faults: dinj})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	st := open()
	camp, err := core.NewCampaign(cfg, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	save := func() {
		_, saved, err := supervise.Checkpoint(camp, st)
		if err != nil {
			t.Fatalf("checkpoint: %v", err)
		}
		if saved {
			row.saves++
		} else {
			row.saveErrors++ // injected fsync error: the previous generation stands
		}
	}
	save()

	h := fnv.New64a()
	fmt.Fprintf(h, "crashloop|%d|%s", int64(experiments.ChaosSeed), cell)
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	for {
		// The first cycle kills after one boundary, so the cell always
		// resumes at least once; later cycles kill after 1–3 boundaries.
		steps := 1
		if row.kills > 0 {
			steps = 1 + rng.Intn(3)
		}
		for i := 0; i < steps && !camp.Finished(); i++ {
			if done, _ := camp.Step(); !done {
				save()
			}
		}
		if camp.Finished() {
			break
		}
		// Kill: the in-memory campaign is gone. A fresh process reopens the
		// store and resumes from the newest generation that restores.
		row.kills++
		st = open()
		scanned := len(st.Quarantined())
		row.quarantined += scanned
		camp, err = supervise.Resume(cfg, st)
		row.fallbacks += len(st.Quarantined()) - scanned
		if errors.Is(err, supervise.ErrNoCheckpoint) {
			row.coldStarts++
			camp, err = core.NewCampaign(cfg, nil, 0)
		}
		if err != nil {
			t.Fatalf("kill %d: resume: %v", row.kills, err)
		}
		row.resumes++
	}
	row.generations = len(st.Generations())
	return row, fingerprint(camp.Result())
}

// TestCrashloopResumesByteIdentically is the durability property end to
// end: across clean and faulty pipelines and clean and heavily faulty
// disks, a diagnosis killed at iteration boundaries and resumed through
// the checkpoint store ends byte-identical to the uninterrupted run;
// kills and disk corruption cost generations and recovery work, never
// answers. A second pass must reproduce the same counts.
func TestCrashloopResumesByteIdentically(t *testing.T) {
	b := bugs.ByName("pbzip2")
	for _, pipeRate := range []float64{0, 0.10} {
		cfg := b.GistConfig()
		cfg.Label = b.Name
		cfg.StopWhen = bugs.DeveloperOracle(b)
		if pipeRate > 0 {
			cfg.Faults = faults.Composite(experiments.ChaosSeed, pipeRate)
		}
		baseline := fingerprint(core.Run(cfg))
		for _, diskRate := range []float64{0, 0.9} {
			cell := fmt.Sprintf("pipe=%g/disk=%g", pipeRate, diskRate)
			t.Run(cell, func(t *testing.T) {
				row, got := crashloopCell(t, cell, cfg, diskRate, t.TempDir())
				if got != baseline {
					t.Errorf("resumed diagnosis diverged from the uninterrupted run after %d kills:\n--- resumed ---\n%s\n--- baseline ---\n%s",
						row.kills, got, baseline)
				}
				if row.kills == 0 || row.resumes != row.kills {
					t.Errorf("%d resumes for %d kills, want equal and > 0", row.resumes, row.kills)
				}
				if row.saves == 0 {
					t.Error("no durable saves")
				}
				damage := row.quarantined + row.fallbacks + row.saveErrors + row.coldStarts
				if diskRate == 0 && (damage != 0 || row.generations == 0) {
					t.Errorf("clean disk reports damage or no generations: %+v", row)
				}
				if diskRate > 0 && damage == 0 {
					t.Errorf("disk rate %g never exercised quarantine, fallback, save-error or cold-start recovery: %+v", diskRate, row)
				}
				if again, _ := crashloopCell(t, cell, cfg, diskRate, t.TempDir()); again != row {
					t.Errorf("second pass not deterministic:\n%+v\n%+v", row, again)
				}
			})
		}
	}
}
