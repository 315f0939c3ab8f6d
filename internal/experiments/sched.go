package experiments

import (
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/bugs"
	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/vm"
)

// The sched experiment measures the multi-bug scheduler: the whole
// suite diagnosed concurrently over one shared fleet pool
// (internal/sched) against the serial baseline that diagnoses the same
// bugs one campaign at a time. Outcomes are byte-identical by
// construction — Sched verifies that on every pass and fails loudly on
// divergence — so the experiment reports aggregate throughput and the
// round-robin fairness of fleet sharing.

// SchedWidthRow is one shared-pool width's measurement.
type SchedWidthRow struct {
	Width int `json:"width"`
	// SchedWallMS is the wall time of the concurrent scheduler pass;
	// SerialWallMS diagnoses the same campaigns one at a time with the
	// same fleet width.
	SchedWallMS  float64 `json:"sched_wall_ms"`
	SerialWallMS float64 `json:"serial_wall_ms"`
	Speedup      float64 `json:"speedup"`
	// TotalRuns is the production runs all campaigns consumed together;
	// RunsPerSec is that total over the scheduler pass's wall time.
	TotalRuns  int     `json:"total_runs"`
	RunsPerSec float64 `json:"runs_per_sec"`
	// Fairness is the mean over scheduler rounds of Jain's index across
	// the live campaigns' per-round run consumption: 1.0 means every
	// live campaign drew an equal fleet share each round.
	Fairness float64 `json:"fairness"`
	// Rounds is the longest campaign's round count.
	Rounds int `json:"rounds"`
}

// SchedResult is the full sched experiment, serialized by -json.
type SchedResult struct {
	Experiment string          `json:"experiment"`
	GoMaxProcs int             `json:"gomaxprocs"`
	Bugs       []string        `json:"bugs"`
	Widths     []int           `json:"widths"`
	Rows       []SchedWidthRow `json:"rows"`
	// Campaigns is each pass's per-tenant telemetry (aligned with
	// Widths): phase spans and counters attributed to each bug's
	// campaign label, the multi-tenant half of -metrics-json.
	Campaigns []map[string]telemetry.CampaignStats `json:"campaigns"`
	// Counters is each pass's aggregate counter inventory.
	Counters []map[string]int64 `json:"counters"`
}

// JainIndex is Jain's fairness index (sum x)^2 / (n * sum x^2) over a
// non-negative allocation vector: 1.0 for perfectly equal shares,
// approaching 1/n as one tenant monopolizes. An empty or all-zero
// vector is vacuously fair.
func JainIndex(xs []float64) float64 {
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

// roundFairness averages Jain's index across scheduler rounds: round r
// considers every campaign live in r (its RunsPerRound has an entry).
func roundFairness(outs []sched.Outcome) (float64, int) {
	rounds := 0
	for _, o := range outs {
		if o.Rounds > rounds {
			rounds = o.Rounds
		}
	}
	if rounds == 0 {
		return 1, 0
	}
	var idx []float64
	for r := 0; r < rounds; r++ {
		var shares []float64
		for _, o := range outs {
			if r < len(o.RunsPerRound) {
				shares = append(shares, float64(o.RunsPerRound[r]))
			}
		}
		idx = append(idx, JainIndex(shares))
	}
	var sum float64
	for _, v := range idx {
		sum += v
	}
	return sum / float64(len(idx)), rounds
}

// schedFingerprint summarizes everything diagnosis-visible about an
// outcome so serial and scheduled passes can be compared exactly.
func schedFingerprint(res *core.Result, err error) string {
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

type schedTenant struct {
	bug    *bugs.Bug
	cfg    core.Config
	report *vm.FailureReport
	disc   int
}

// Sched runs the multi-bug scheduler experiment over the given shared
// pool widths (nil = {1, 2, 4, 8}): per width, a serial baseline pass,
// then a concurrent scheduler pass whose per-campaign outcomes must be
// byte-identical to the baseline.
func Sched(suite []*bugs.Bug, widths []int) (*SchedResult, error) {
	if suite == nil {
		suite = bugs.All()
	}
	if len(widths) == 0 {
		widths = []int{1, 2, 4, 8}
	}
	res := &SchedResult{
		Experiment: "sched",
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Widths:     widths,
	}

	var tenants []schedTenant
	for _, b := range suite {
		res.Bugs = append(res.Bugs, b.Name)
		cfg := b.GistConfig()
		cfg.Features = core.AllFeatures()
		cfg.Label = b.Name
		cfg.StopWhen = DeveloperOracle(b)
		report, disc, err := core.FirstFailure(cfg)
		if err != nil {
			return res, fmt.Errorf("%s: discovery: %w", b.Name, err)
		}
		tenants = append(tenants, schedTenant{bug: b, cfg: cfg, report: report, disc: disc})
	}

	for _, w := range widths {
		// Serial baseline: same campaigns, same fleet width, one at a
		// time. Telemetry is off here so the pass's artifact carries only
		// the scheduler's activity.
		t0 := time.Now()
		serial := make([]string, len(tenants))
		for i, tn := range tenants {
			cfg := tn.cfg
			cfg.Workers = w
			r, err := core.RunFromReport(cfg, tn.report, tn.disc)
			if err != nil {
				return res, fmt.Errorf("serial %s width=%d: %w", tn.bug.Name, w, err)
			}
			serial[i] = schedFingerprint(r, nil)
		}
		serialMS := float64(time.Since(t0).Microseconds()) / 1e3

		tel := telemetry.New()
		s := sched.New(w)
		for _, tn := range tenants {
			cfg := tn.cfg
			cfg.Workers = w
			cfg.Telemetry = tel
			camp, err := core.NewCampaign(cfg, tn.report, tn.disc)
			if err != nil {
				return res, fmt.Errorf("sched %s width=%d: %w", tn.bug.Name, w, err)
			}
			s.Add(camp)
		}
		t1 := time.Now()
		outs := s.Run()
		schedWall := time.Since(t1)

		totalRuns := 0
		for i, out := range outs {
			if out.Err != nil {
				return res, fmt.Errorf("sched %s width=%d: %w", tenants[i].bug.Name, w, out.Err)
			}
			if got := schedFingerprint(out.Result, nil); got != serial[i] {
				return res, fmt.Errorf("sched %s width=%d: scheduled diagnosis diverged from serial baseline", tenants[i].bug.Name, w)
			}
			totalRuns += out.Result.TotalRuns
		}
		fairness, rounds := roundFairness(outs)
		schedMS := float64(schedWall.Microseconds()) / 1e3
		row := SchedWidthRow{
			Width:        w,
			SchedWallMS:  schedMS,
			SerialWallMS: serialMS,
			TotalRuns:    totalRuns,
			RunsPerSec:   float64(totalRuns) / schedWall.Seconds(),
			Fairness:     fairness,
			Rounds:       rounds,
		}
		if schedMS > 0 {
			row.Speedup = serialMS / schedMS
		}
		res.Rows = append(res.Rows, row)
		snap := tel.Snapshot()
		if snap.Campaigns == nil {
			snap.Campaigns = map[string]telemetry.CampaignStats{}
		}
		res.Campaigns = append(res.Campaigns, snap.Campaigns)
		res.Counters = append(res.Counters, snap.Counters)
	}
	return res, nil
}

// RenderSched renders the sched experiment for the terminal.
func RenderSched(r *SchedResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Multi-bug scheduler: %d campaigns over one shared fleet (GOMAXPROCS=%d)\n",
		len(r.Bugs), r.GoMaxProcs)
	fmt.Fprintf(&sb, "campaigns: %s\n\n", strings.Join(r.Bugs, ", "))
	fmt.Fprintf(&sb, "%-7s %12s %12s %8s %10s %11s %9s %7s\n",
		"width", "sched ms", "serial ms", "speedup", "runs", "runs/sec", "fairness", "rounds")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-7d %12.1f %12.1f %7.2fx %10d %11.1f %9.3f %7d\n",
			row.Width, row.SchedWallMS, row.SerialWallMS, row.Speedup,
			row.TotalRuns, row.RunsPerSec, row.Fairness, row.Rounds)
	}
	sb.WriteString("\nEvery scheduled diagnosis verified byte-identical to its serial baseline.\n")
	return sb.String()
}

// ValidateSchedJSON checks a sched BENCH artifact's schema: width rows
// aligned with per-pass campaign telemetry, fairness within (0,1], and
// every enrolled bug attributed in every pass.
func ValidateSchedJSON(data []byte) error {
	var r SchedResult
	if err := json.Unmarshal(data, &r); err != nil {
		return fmt.Errorf("bench json: %w", err)
	}
	if r.Experiment != "sched" {
		return fmt.Errorf("bench json: experiment %q, want sched", r.Experiment)
	}
	if len(r.Widths) == 0 {
		return fmt.Errorf("bench json: no width passes")
	}
	if len(r.Bugs) == 0 {
		return fmt.Errorf("bench json: no campaigns")
	}
	if len(r.Rows) != len(r.Widths) || len(r.Campaigns) != len(r.Widths) || len(r.Counters) != len(r.Widths) {
		return fmt.Errorf("bench json: %d rows, %d campaign maps, %d counter maps for %d widths",
			len(r.Rows), len(r.Campaigns), len(r.Counters), len(r.Widths))
	}
	for i, row := range r.Rows {
		if row.Width != r.Widths[i] {
			return fmt.Errorf("bench json: row %d width %d, widths list says %d", i, row.Width, r.Widths[i])
		}
		if row.TotalRuns <= 0 {
			return fmt.Errorf("bench json: pass %d consumed no runs", i)
		}
		if row.Fairness <= 0 || row.Fairness > 1 {
			return fmt.Errorf("bench json: pass %d fairness %g outside (0,1]", i, row.Fairness)
		}
		if row.SchedWallMS < 0 || row.SerialWallMS < 0 || row.RunsPerSec < 0 {
			return fmt.Errorf("bench json: pass %d has negative timings", i)
		}
	}
	for i, camps := range r.Campaigns {
		for _, bug := range r.Bugs {
			cs, ok := camps[bug]
			if !ok {
				return fmt.Errorf("bench json: pass %d missing campaign telemetry for %q", i, bug)
			}
			if cs.Counters["fleet.dispatched"] <= 0 {
				return fmt.Errorf("bench json: pass %d campaign %q dispatched no runs", i, bug)
			}
		}
	}
	for i, counters := range r.Counters {
		if counters["fleet.dispatched"] <= 0 {
			return fmt.Errorf("bench json: pass %d aggregate counters missing fleet.dispatched", i)
		}
	}
	return nil
}
