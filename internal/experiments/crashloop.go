package experiments

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/bugs"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/store"
	"repro/internal/supervise"
)

// The crashloop experiment is the durability evaluation: a diagnosis is
// repeatedly killed at random iteration boundaries and resumed from the
// durable checkpoint store, while the store itself suffers injected
// disk faults (torn writes, bit flips, dropped renames, fsync errors)
// and the pipeline runs under composite fleet faults. The experiment
// asserts — and the BENCH artifact records — that every resumed
// diagnosis is byte-identical to the uninterrupted run: kills and disk
// corruption cost generations and recovery work, never answers.

// CrashloopPipelineRates and CrashloopDiskRates are the default sweep
// axes: a clean pipeline and the chaos table's 10% composite rate,
// crossed with a clean disk and a heavily faulty one.
var (
	CrashloopPipelineRates = []float64{0, 0.10}
	CrashloopDiskRates     = []float64{0, 0.25}
)

// CrashloopRow is one (bug, pipeline rate, disk rate) cell.
type CrashloopRow struct {
	Bug          string  `json:"bug"`
	PipelineRate float64 `json:"pipeline_rate"`
	DiskRate     float64 `json:"disk_rate"`

	// Kills is how many times the in-memory diagnosis was destroyed at
	// an iteration boundary; Resumes counts the restores from the store
	// (equal to Kills when recovery always succeeded).
	Kills   int `json:"kills"`
	Resumes int `json:"resumes"`
	// Saves/SaveErrors split checkpoint writes by outcome; a failed
	// save (injected fsync error) leaves the previous generation
	// standing.
	Saves      int `json:"saves"`
	SaveErrors int `json:"save_errors"`
	// Quarantined counts generations the recovery scans moved aside as
	// torn or corrupt; Fallbacks counts resumes that had to discard the
	// newest generation and fall back to an older one; ColdStarts counts
	// resumes where no valid generation survived at all and the
	// diagnosis restarted from scratch (still byte-identical — a
	// campaign is a pure function of its config and seed cursor).
	Quarantined int `json:"quarantined"`
	Fallbacks   int `json:"fallbacks"`
	ColdStarts  int `json:"cold_starts"`
	// Generations is how many valid checkpoints survived on disk at the
	// end; TotalRuns is the finished diagnosis's production-run count.
	Generations int `json:"generations"`
	TotalRuns   int `json:"total_runs"`
	// Identical records the byte-identity assertion against the
	// uninterrupted baseline. Crashloop fails loudly when false, so a
	// written artifact always says true — the field documents the
	// check.
	Identical bool `json:"identical"`
}

// CrashloopResult is the full crashloop experiment, serialized by
// -json to BENCH_crashloop.json.
type CrashloopResult struct {
	Experiment    string         `json:"experiment"`
	Seed          int64          `json:"seed"`
	Bugs          []string       `json:"bugs"`
	PipelineRates []float64      `json:"pipeline_rates"`
	DiskRates     []float64      `json:"disk_rates"`
	Rows          []CrashloopRow `json:"rows"`
}

// crashloopRNG derives the deterministic kill schedule for one cell.
func crashloopRNG(bug string, pipeRate, diskRate float64) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "crashloop|%d|%s|%g|%g", int64(ChaosSeed), bug, pipeRate, diskRate)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// Crashloop runs the kill-and-resume sweep. Unlike the chaos sweep, a
// divergent resumed diagnosis is an error, not a data point: byte
// identity under kills is the property the checkpoint store exists to
// provide.
func Crashloop(suite []*bugs.Bug, pipeRates, diskRates []float64) (*CrashloopResult, error) {
	if suite == nil {
		suite = ChaosSuite()
	}
	if len(pipeRates) == 0 {
		pipeRates = CrashloopPipelineRates
	}
	if len(diskRates) == 0 {
		diskRates = CrashloopDiskRates
	}
	res := &CrashloopResult{
		Experiment:    "crashloop",
		Seed:          ChaosSeed,
		PipelineRates: pipeRates,
		DiskRates:     diskRates,
	}
	for _, b := range suite {
		res.Bugs = append(res.Bugs, b.Name)
	}
	scratch, err := os.MkdirTemp("", "gist-crashloop-")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(scratch)

	cell := 0
	for _, b := range suite {
		for _, pr := range pipeRates {
			for _, dr := range diskRates {
				dir := filepath.Join(scratch, fmt.Sprintf("cell%03d", cell))
				cell++
				row, err := crashloopCell(b, pr, dr, dir)
				if err != nil {
					return res, fmt.Errorf("crashloop %s pipe=%.2f disk=%.2f: %w", b.Name, pr, dr, err)
				}
				res.Rows = append(res.Rows, row)
			}
		}
	}
	return res, nil
}

// crashloopCell runs one bug to completion through repeated kills.
func crashloopCell(b *bugs.Bug, pipeRate, diskRate float64, dir string) (CrashloopRow, error) {
	row := CrashloopRow{Bug: b.Name, PipelineRate: pipeRate, DiskRate: diskRate}
	cfg := b.GistConfig()
	cfg.Features = core.AllFeatures()
	cfg.Workers = Workers
	cfg.Label = b.Name
	cfg.StopWhen = DeveloperOracle(b)
	if pipeRate > 0 {
		cfg.Faults = faults.Composite(ChaosSeed, pipeRate)
	}
	baseline := schedFingerprint(core.Run(cfg))

	if err := os.MkdirAll(dir, 0o755); err != nil {
		return row, err
	}
	var dinj *faults.Injector
	if diskRate > 0 {
		dinj = faults.NewInjector(faults.Disk(ChaosSeed, diskRate))
	}
	st, err := store.Open(dir, b.Name, store.Options{Faults: dinj})
	if err != nil {
		return row, err
	}
	camp, err := core.NewCampaign(cfg, nil, 0)
	if err != nil {
		return row, err
	}
	save := func(c *core.Campaign) error {
		_, saved, err := supervise.Checkpoint(c, st)
		if saved {
			row.Saves++
		} else if err == nil {
			row.SaveErrors++ // previous durable generation stands
		}
		return err
	}
	if err := save(camp); err != nil {
		return row, err
	}

	rng := crashloopRNG(b.Name, pipeRate, diskRate)
	var final *core.Result
	var finalErr error
	for done := false; !done; {
		// First cycle always kills after one boundary, so every cell with
		// a multi-iteration diagnosis exercises at least one resume; later
		// cycles kill after 1–3 boundaries.
		steps := 1
		if row.Kills > 0 {
			steps = 1 + rng.Intn(3)
		}
		for i := 0; i < steps && !done; i++ {
			done, _ = camp.Step()
			if done {
				final, finalErr = camp.Result()
				break
			}
			if err := save(camp); err != nil {
				return row, err
			}
		}
		if done {
			break
		}
		// Kill: the in-memory campaign is gone; a fresh process reopens
		// the store (quarantining anything the crash or disk faults left
		// torn) and resumes from the newest generation that restores,
		// falling back when the newest does not.
		row.Kills++
		camp = nil
		st, err = store.Open(dir, b.Name, store.Options{Faults: dinj})
		if err != nil {
			return row, err
		}
		scanned := len(st.Quarantined())
		row.Quarantined += scanned
		camp, err = supervise.Resume(cfg, st)
		row.Fallbacks += len(st.Quarantined()) - scanned
		if errors.Is(err, supervise.ErrNoCheckpoint) {
			// Disk faults destroyed every durable generation. A fresh
			// campaign rediscovers the same report and seed cursor, so
			// the answer is still byte-identical.
			row.ColdStarts++
			camp, err = core.NewCampaign(cfg, nil, 0)
		}
		if err != nil {
			return row, fmt.Errorf("kill %d: restore: %w", row.Kills, err)
		}
		row.Resumes++
		if camp.Finished() {
			final, finalErr = camp.Result()
			done = true
		}
	}

	row.Generations = len(st.Generations())
	if final != nil {
		row.TotalRuns = final.TotalRuns
	}
	got := schedFingerprint(final, finalErr)
	row.Identical = got == baseline
	if !row.Identical {
		return row, fmt.Errorf("resumed diagnosis diverged from uninterrupted run after %d kills:\n--- resumed ---\n%s\n--- baseline ---\n%s",
			row.Kills, got, baseline)
	}
	return row, nil
}

// RenderCrashloop renders the crashloop experiment for the terminal.
func RenderCrashloop(r *CrashloopResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Crash-loop durability: kill-and-resume at iteration boundaries (seed %d)\n", r.Seed)
	fmt.Fprintf(&sb, "campaigns: %s\n\n", strings.Join(r.Bugs, ", "))
	fmt.Fprintf(&sb, "%-10s %6s %6s %6s %8s %6s %7s %6s %6s %5s %5s %9s\n",
		"bug", "pipe", "disk", "kills", "resumes", "saves", "saverr", "quar", "fback", "cold", "gens", "identical")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-10s %5.0f%% %5.0f%% %6d %8d %6d %7d %6d %6d %5d %5d %9v\n",
			row.Bug, row.PipelineRate*100, row.DiskRate*100, row.Kills, row.Resumes,
			row.Saves, row.SaveErrors, row.Quarantined, row.Fallbacks, row.ColdStarts,
			row.Generations, row.Identical)
	}
	sb.WriteString("\nEvery resumed diagnosis verified byte-identical to its uninterrupted run.\n")
	return sb.String()
}

// ValidateCrashloopJSON checks a crashloop BENCH artifact's schema: the
// sweep grid is complete, every cell checkpointed durably and verified
// byte-identical, and clean-disk cells saw no disk damage.
func ValidateCrashloopJSON(data []byte) error {
	var r CrashloopResult
	if err := json.Unmarshal(data, &r); err != nil {
		return fmt.Errorf("bench json: %w", err)
	}
	if r.Experiment != "crashloop" {
		return fmt.Errorf("bench json: experiment %q, want crashloop", r.Experiment)
	}
	if len(r.Bugs) == 0 || len(r.PipelineRates) == 0 || len(r.DiskRates) == 0 {
		return fmt.Errorf("bench json: empty sweep axes")
	}
	want := len(r.Bugs) * len(r.PipelineRates) * len(r.DiskRates)
	if len(r.Rows) != want {
		return fmt.Errorf("bench json: %d rows for a %dx%dx%d sweep (want %d)",
			len(r.Rows), len(r.Bugs), len(r.PipelineRates), len(r.DiskRates), want)
	}
	for i, row := range r.Rows {
		if !row.Identical {
			return fmt.Errorf("bench json: row %d (%s) not byte-identical to the uninterrupted run", i, row.Bug)
		}
		if row.Saves <= 0 {
			return fmt.Errorf("bench json: row %d (%s) durably saved no checkpoints", i, row.Bug)
		}
		if row.DiskRate == 0 && row.Generations <= 0 {
			return fmt.Errorf("bench json: row %d (%s) left no valid generations on a clean disk", i, row.Bug)
		}
		if row.Resumes > row.Kills {
			return fmt.Errorf("bench json: row %d (%s) resumed %d times for %d kills", i, row.Bug, row.Resumes, row.Kills)
		}
		if row.DiskRate == 0 && (row.Quarantined > 0 || row.SaveErrors > 0 || row.Fallbacks > 0 || row.ColdStarts > 0) {
			return fmt.Errorf("bench json: row %d (%s) reports disk damage at disk rate 0", i, row.Bug)
		}
		if row.TotalRuns < 0 {
			return fmt.Errorf("bench json: row %d (%s) negative total runs", i, row.Bug)
		}
	}
	return nil
}
