package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/analysis"
	"repro/internal/bugs"
	"repro/internal/core"
	"repro/internal/hw/pt"
	"repro/internal/hw/watch"
	"repro/internal/telemetry"
)

// The perf experiment measures the two parallel layers this repo adds on
// top of the paper's pipeline: the fleet worker pool inside one
// diagnosis (core.Config.Workers) and the per-bug fan-out across a
// suite sweep (fanOut). Both layers are byte-identical for any worker
// count, so this experiment reports wall-clock only; correctness is the
// determinism test's job.
//
// Each worker pass additionally runs under its own telemetry tracer and
// reports where the time went (§5.3's per-phase accounting, applied to
// the reproduction itself): slice/decode/watch/rank phase totals plus
// the cache and fault counters for that pass.

// PerfBugRow is one bug's scaling series. Slices are aligned with
// PerfResult.Workers: WallMS[i] is the diagnosis wall time at
// Workers[i] fleet workers.
type PerfBugRow struct {
	Bug        string    `json:"bug"`
	TotalRuns  int       `json:"total_runs"`
	WallMS     []float64 `json:"wall_ms"`
	RunsPerSec []float64 `json:"runs_per_sec"`
	// Speedup is WallMS[0] / WallMS[i]; the first entry of Workers is
	// always 1, so Speedup[i] is vs. the serial fleet.
	Speedup []float64 `json:"speedup"`
}

// PhaseRow is one pipeline phase's aggregate over a worker pass.
type PhaseRow struct {
	Phase   string  `json:"phase"`
	Count   int64   `json:"count"`
	TotalMS float64 `json:"total_ms"`
	MaxMS   float64 `json:"max_ms"`
}

// PerfResult is the full perf experiment, serialized to
// BENCH_fleet.json by -json.
type PerfResult struct {
	Experiment string `json:"experiment"`
	// GoMaxProcs is runtime.GOMAXPROCS at measurement time. Speedups
	// are bounded by it: on a 1-CPU host every worker count runs at
	// roughly serial speed and Speedup stays near 1.
	GoMaxProcs int   `json:"gomaxprocs"`
	Workers    []int `json:"workers"`
	// Bugs scales the fleet pool inside one diagnosis (bugs measured
	// serially, Config.Workers = w).
	Bugs []PerfBugRow `json:"bugs"`
	// Sweep* scale the per-bug fan-out across the whole suite (fan-out
	// width w, each diagnosis with a serial fleet).
	SweepWallMS  []float64 `json:"sweep_wall_ms"`
	SweepSpeedup []float64 `json:"sweep_speedup"`
	// Cache is the analysis-cache counter snapshot after each worker
	// pass (the cache is reset before each pass, so hits within a pass
	// are hits the memoization earned, not leftovers).
	Cache []analysis.Stats `json:"analysis_cache"`
	// Phases is the per-phase timing breakdown of each worker pass
	// (aligned with Workers): how long the pass spent in slicing, PT
	// decode, watchpoint collection, predictor ranking, and the other
	// pipeline phases, aggregated across every diagnosis of the pass.
	Phases [][]PhaseRow `json:"phase_breakdown"`
	// Counters is each pass's counter inventory (aligned with
	// Workers): the fleet.* FleetHealth mirror, faults.* injection
	// counts, cache.* analysis-cache counters, and the pt.*/watch.*
	// hardware-layer counters.
	Counters []map[string]int64 `json:"counters"`
}

// RequiredPhases are the phase names the BENCH JSON must always carry;
// CI's smoke step refuses a BENCH file without them.
var RequiredPhases = []string{
	telemetry.PhaseSlice,
	telemetry.PhaseDecode,
	telemetry.PhaseWatch,
	telemetry.PhaseRank,
}

func perfDiagnose(b *bugs.Bug, fleetWorkers int, tel *telemetry.Tracer) (*core.Result, error) {
	cfg := b.GistConfig()
	cfg.Features = core.AllFeatures()
	cfg.Workers = fleetWorkers
	cfg.Telemetry = tel
	cfg.StopWhen = DeveloperOracle(b)
	return core.Run(cfg)
}

// Perf runs the scaling experiment over the given worker counts
// (nil = {1, 2, 4, 8}). The first measured count is always 1, the
// serial baseline every speedup is relative to.
func Perf(suite []*bugs.Bug, workersList []int) (*PerfResult, error) {
	if suite == nil {
		suite = bugs.All()
	}
	if len(workersList) == 0 {
		workersList = []int{1, 2, 4, 8}
	}
	if workersList[0] != 1 {
		workersList = append([]int{1}, workersList...)
	}

	res := &PerfResult{
		Experiment: "perf",
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Workers:    workersList,
	}
	res.Bugs = make([]PerfBugRow, len(suite))
	for i, b := range suite {
		res.Bugs[i].Bug = b.Name
	}

	for _, w := range workersList {
		// Cold cache and fresh counters per pass so every pass pays
		// (and then amortizes) the same static-analysis work and
		// reports only its own activity.
		analysis.Reset()
		pt.ResetMetrics()
		watch.ResetMetrics()
		tel := telemetry.New()
		tel.SetGauge("fleet.workers", int64(w))

		// Layer 1: fleet pool inside one diagnosis.
		for i, b := range suite {
			t0 := time.Now()
			r, err := perfDiagnose(b, w, tel)
			if err != nil {
				return res, fmt.Errorf("%s workers=%d: %w", b.Name, w, err)
			}
			wall := time.Since(t0)
			ms := float64(wall.Microseconds()) / 1e3
			row := &res.Bugs[i]
			row.TotalRuns = r.TotalRuns + r.DiscoveryRuns
			row.WallMS = append(row.WallMS, ms)
			row.RunsPerSec = append(row.RunsPerSec, float64(row.TotalRuns)/wall.Seconds())
			row.Speedup = append(row.Speedup, row.WallMS[0]/ms)
		}

		// Layer 2: per-bug fan-out across the sweep, serial fleets.
		t0 := time.Now()
		outs := fanOut(len(suite), w, func(i int) error {
			_, err := perfDiagnose(suite[i], 1, tel)
			return err
		})
		for i, err := range outs {
			if err != nil {
				return res, fmt.Errorf("sweep %s workers=%d: %w", suite[i].Name, w, err)
			}
		}
		ms := float64(time.Since(t0).Microseconds()) / 1e3
		res.SweepWallMS = append(res.SweepWallMS, ms)
		res.SweepSpeedup = append(res.SweepSpeedup, res.SweepWallMS[0]/ms)
		res.Cache = append(res.Cache, analysis.Snapshot())
		res.Phases = append(res.Phases, phaseRows(tel.Snapshot()))
		res.Counters = append(res.Counters, passCounters(tel.Snapshot()))
	}
	return res, nil
}

// phaseRows flattens a snapshot's phase aggregates into sorted rows,
// materializing the required phases even when a pass recorded no span
// for one (so the BENCH schema is stable for downstream tooling).
func phaseRows(snap telemetry.Snapshot) []PhaseRow {
	for _, name := range RequiredPhases {
		if _, ok := snap.Phases[name]; !ok {
			snap.Phases[name] = telemetry.PhaseStat{}
		}
	}
	rows := make([]PhaseRow, 0, len(snap.Phases))
	for _, name := range snap.PhaseNames() {
		ps := snap.Phases[name]
		rows = append(rows, PhaseRow{
			Phase:   name,
			Count:   ps.Count,
			TotalMS: ps.TotalMS(),
			MaxMS:   float64(ps.MaxNS) / 1e6,
		})
	}
	return rows
}

// passCounters merges the pass's telemetry counters with the cache and
// hardware-layer counters into one flat inventory.
func passCounters(snap telemetry.Snapshot) map[string]int64 {
	out := make(map[string]int64, len(snap.Counters)+12)
	for name, v := range snap.Counters {
		out[name] = v
	}
	cs := analysis.Snapshot()
	out["cache.graph_builds"] = cs.GraphBuilds
	out["cache.graph_hits"] = cs.GraphHits
	out["cache.slice_builds"] = cs.SliceBuilds
	out["cache.slice_hits"] = cs.SliceHits
	out["cache.bytecode_builds"] = cs.BytecodeBuilds
	out["cache.bytecode_hits"] = cs.BytecodeHits
	pm := pt.Snapshot()
	out["pt.decode_calls"] = pm.DecodeCalls
	out["pt.decode_errors"] = pm.DecodeErrors
	out["pt.decoded_bytes"] = pm.DecodedBytes
	out["pt.salvage_calls"] = pm.SalvageCalls
	out["pt.salvaged_chunks"] = pm.SalvagedChunks
	out["pt.salvaged_instrs"] = pm.SalvagedInstrs
	wm := watch.Snapshot()
	out["watch.arms"] = wm.Arms
	out["watch.traps"] = wm.Traps
	// The fault counters are always materialized, zero or not, so a
	// clean pass and a chaos pass share one schema.
	for _, name := range []string{
		"faults.injected_runs", "faults.crash", "faults.hang",
		"faults.overflow", "faults.corrupt", "faults.drop_traps",
		"faults.reorder_traps", "faults.truncate",
	} {
		if _, ok := out[name]; !ok {
			out[name] = 0
		}
	}
	return out
}

// WriteJSON serializes an experiment result (indented, trailing
// newline) to path — the BENCH_*.json artifact format.
func WriteJSON(path string, result any) error {
	data, err := json.MarshalIndent(result, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ValidateBenchJSON parses a BENCH artifact produced by a WriteJSON
// (perf, sched, or crashloop experiment), dispatching on its
// "experiment" field, and checks the matching observability schema.
// CI's smoke steps run this against the artifacts they just generated.
func ValidateBenchJSON(data []byte) error {
	var probe struct {
		Experiment string `json:"experiment"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return fmt.Errorf("bench json: %w", err)
	}
	switch probe.Experiment {
	case "perf":
		return validatePerfJSON(data)
	case "sched":
		return ValidateSchedJSON(data)
	case "shard":
		return ValidateShardJSON(data)
	case "crashloop":
		return ValidateCrashloopJSON(data)
	case "service":
		return ValidateServiceJSON(data)
	case "vm":
		return ValidateVMJSON(data)
	case "ingest":
		return ValidateIngestJSON(data)
	case "overload":
		return ValidateOverloadJSON(data)
	default:
		return fmt.Errorf("bench json: unknown experiment %q (want perf, sched, shard, crashloop, service, vm, ingest, or overload)", probe.Experiment)
	}
}

// validatePerfJSON checks the perf schema: every worker pass must carry
// the required phase rows and the cache/fault counter families.
func validatePerfJSON(data []byte) error {
	var r PerfResult
	if err := json.Unmarshal(data, &r); err != nil {
		return fmt.Errorf("bench json: %w", err)
	}
	if r.Experiment != "perf" {
		return fmt.Errorf("bench json: experiment %q, want perf", r.Experiment)
	}
	if len(r.Workers) == 0 {
		return fmt.Errorf("bench json: no worker passes")
	}
	if len(r.Phases) != len(r.Workers) || len(r.Counters) != len(r.Workers) {
		return fmt.Errorf("bench json: %d phase rows and %d counter rows for %d workers",
			len(r.Phases), len(r.Counters), len(r.Workers))
	}
	for i, rows := range r.Phases {
		have := make(map[string]bool, len(rows))
		for _, row := range rows {
			have[row.Phase] = true
			if row.Count < 0 || row.TotalMS < 0 || row.MaxMS < 0 {
				return fmt.Errorf("bench json: pass %d phase %s has negative fields", i, row.Phase)
			}
		}
		for _, name := range RequiredPhases {
			if !have[name] {
				return fmt.Errorf("bench json: pass %d missing phase %q", i, name)
			}
		}
	}
	for i, counters := range r.Counters {
		for _, name := range []string{"cache.graph_builds", "cache.slice_builds", "faults.injected_runs", "fleet.dispatched"} {
			if _, ok := counters[name]; !ok {
				return fmt.Errorf("bench json: pass %d missing counter %q", i, name)
			}
		}
	}
	return nil
}
