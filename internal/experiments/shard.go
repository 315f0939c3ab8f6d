package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bugs"
	"repro/internal/core"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/vm"
)

// The shard experiment measures the multi-process campaign fleet
// (internal/shard): the whole suite placed by a coordinator and driven
// by P worker processes sharing one backend, against the P=1 baseline.
// Sketches are byte-identical across process counts by construction —
// every pass verifies that against a single-process core run and fails
// loudly on divergence — so the experiment reports aggregate throughput
// and the fairness of the placement hash, plus a chaos pass that kills
// a worker mid-campaign and proves the survivors' takeover changes
// nothing.

// ShardRow is one process count's measurement.
type ShardRow struct {
	Procs  int     `json:"procs"`
	WallMS float64 `json:"wall_ms"`
	// TotalRuns is the production runs the whole fleet executed;
	// RunsPerSec is that total over the pass's wall time.
	TotalRuns  int     `json:"total_runs"`
	RunsPerSec float64 `json:"runs_per_sec"`
	// Fairness is Jain's index over per-worker executed runs: 1.0 means
	// the placement hash spread the suite's work evenly.
	Fairness      float64 `json:"fairness"`
	PerWorkerRuns []int   `json:"per_worker_runs"`
	// Identical reports that every fleet-produced sketch byte-matched
	// the single-process baseline (the pass fails before reporting
	// otherwise; recorded so the artifact carries the claim).
	Identical bool `json:"identical"`
}

// ShardChaos is the kill-a-worker pass: one worker is halted without
// releasing its leases (a SIGKILL leaves exactly that) and the
// survivors must take its campaigns over from the last durable
// checkpoint generation.
type ShardChaos struct {
	Procs  int    `json:"procs"`
	Victim string `json:"victim"`
	// VictimCampaigns is how many campaigns the victim owned when it
	// died; Takeovers is how many campaigns the survivors stole (>= 1
	// or the pass fails); Resumed is how many takeovers restored from a
	// checkpoint generation rather than starting over.
	VictimCampaigns int     `json:"victim_campaigns"`
	Takeovers       int     `json:"takeovers"`
	Resumed         int     `json:"resumed"`
	Identical       bool    `json:"identical"`
	WallMS          float64 `json:"wall_ms"`
}

// ShardResult is the full shard experiment, serialized by -json.
type ShardResult struct {
	Experiment string      `json:"experiment"`
	GoMaxProcs int         `json:"gomaxprocs"`
	Bugs       []string    `json:"bugs"`
	Procs      []int       `json:"procs"`
	Rows       []ShardRow  `json:"rows"`
	Chaos      *ShardChaos `json:"chaos"`
}

// shardTenant is one suite bug prepared for fleet passes: discovery ran
// once up front, and the single-process baseline sketch is the byte
// oracle every fleet pass must reproduce.
type shardTenant struct {
	bug      *bugs.Bug
	cfg      core.Config
	report   *vm.FailureReport
	disc     int
	iters    int
	baseline []byte
}

// shardFleet drives P workers over one shared backend until every
// campaign has a done record (or a worker errors), halting the victim
// worker (if any) after its first round without releasing leases.
type shardFleet struct {
	tenant  string
	workers []*shard.Worker
	victim  int // index into workers, -1 for none
}

func (f *shardFleet) run(coord *shard.Coordinator, tenants []shardTenant) (time.Duration, error) {
	var (
		stop    atomic.Bool
		wg      sync.WaitGroup
		errOnce sync.Once
		werr    error
	)
	t0 := time.Now()
	for i, w := range f.workers {
		wg.Add(1)
		go func(i int, w *shard.Worker) {
			defer wg.Done()
			rounds := 0
			for !stop.Load() {
				live, err := w.Round()
				if err != nil {
					errOnce.Do(func() { werr = fmt.Errorf("worker %s: %w", w.ID(), err) })
					stop.Store(true)
					return
				}
				rounds++
				if i == f.victim && rounds >= 1 {
					// SIGKILL stand-in: stop driving, leases stay put.
					return
				}
				if live == 0 {
					time.Sleep(2 * time.Millisecond)
				}
			}
		}(i, w)
	}
	for !stop.Load() {
		done := 0
		for _, tn := range tenants {
			rec, err := coord.Done(f.tenant, tn.bug.Name)
			if err != nil {
				errOnce.Do(func() { werr = fmt.Errorf("done poll: %w", err) })
				stop.Store(true)
				break
			}
			if rec != nil {
				done++
			}
		}
		if done == len(tenants) {
			stop.Store(true)
		}
		if !stop.Load() {
			time.Sleep(5 * time.Millisecond)
		}
	}
	wall := time.Since(t0)
	wg.Wait()
	return wall, werr
}

// verifyFleet checks every done record against the baseline bytes.
func verifyFleet(coord *shard.Coordinator, tenant string, tenants []shardTenant) error {
	for _, tn := range tenants {
		rec, err := coord.Done(tenant, tn.bug.Name)
		if err != nil {
			return fmt.Errorf("%s: done: %w", tn.bug.Name, err)
		}
		if rec == nil {
			return fmt.Errorf("%s: no done record after fleet pass", tn.bug.Name)
		}
		if rec.Err != "" {
			return fmt.Errorf("%s: fleet diagnosis failed on worker %s: %s", tn.bug.Name, rec.Worker, rec.Err)
		}
		if !bytes.Equal(rec.Sketch, tn.baseline) {
			return fmt.Errorf("%s: fleet sketch (worker %s) diverged from the single-process baseline", tn.bug.Name, rec.Worker)
		}
	}
	return nil
}

// newShardFleet builds P workers over a fresh fleet on b.
func newShardFleet(b store.Backend, root, tenant string, procs int, ttl time.Duration, tenants []shardTenant) (*shard.Coordinator, *shardFleet, error) {
	coord, err := shard.NewCoordinator(b, root, procs, true)
	if err != nil {
		return nil, nil, err
	}
	cfgFor := make(map[string]core.Config, len(tenants))
	for _, tn := range tenants {
		cfgFor[tn.bug.Name] = tn.cfg
	}
	configFor := func(bug string) (core.Config, error) {
		cfg, ok := cfgFor[bug]
		if !ok {
			return core.Config{}, fmt.Errorf("unknown bug %q", bug)
		}
		return cfg, nil
	}
	for _, tn := range tenants {
		if _, err := coord.Assign(shard.Assignment{
			Tenant: tenant, Bug: tn.bug.Name,
			Report: tn.report, DiscoveryRuns: tn.disc,
		}); err != nil {
			return nil, nil, fmt.Errorf("assign %s: %w", tn.bug.Name, err)
		}
	}
	fleet := &shardFleet{tenant: tenant, victim: -1}
	for i := 0; i < procs; i++ {
		w, err := shard.NewWorker(shard.WorkerOptions{
			Backend: b, Root: root,
			ID: fmt.Sprintf("w%d", i+1), Index: i, Shards: procs,
			LeaseTTL: ttl, Width: 1, NoFsync: true,
			ConfigFor: configFor,
		})
		if err != nil {
			return nil, nil, err
		}
		fleet.workers = append(fleet.workers, w)
	}
	return coord, fleet, nil
}

// Shard runs the sharded-fleet experiment over the given process counts
// (nil = {1, 2, 4}): per count, the suite is placed on a fresh fleet
// and driven to completion, and every sketch must byte-match the
// single-process core baseline. A final chaos pass kills one worker
// after its first round and requires the survivors to finish its
// campaigns identically.
func Shard(suite []*bugs.Bug, procs []int) (*ShardResult, error) {
	if suite == nil {
		suite = bugs.All()
	}
	if len(procs) == 0 {
		procs = []int{1, 2, 4}
	}
	res := &ShardResult{
		Experiment: "shard",
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Procs:      procs,
	}

	var tenants []shardTenant
	for _, b := range suite {
		res.Bugs = append(res.Bugs, b.Name)
		cfg := b.GistConfig()
		cfg.Features = core.AllFeatures()
		cfg.Label = "bench/" + b.Name
		cfg.StopWhen = DeveloperOracle(b)
		cfg.Workers = 1
		report, disc, err := core.FirstFailure(cfg)
		if err != nil {
			return res, fmt.Errorf("%s: discovery: %w", b.Name, err)
		}
		r, err := core.RunFromReport(cfg, report, disc)
		if err != nil {
			return res, fmt.Errorf("%s: baseline: %w", b.Name, err)
		}
		baseline, err := r.Sketch.MarshalIndentJSON()
		if err != nil {
			return res, fmt.Errorf("%s: baseline sketch: %w", b.Name, err)
		}
		tenants = append(tenants, shardTenant{
			bug: b, cfg: cfg, report: report, disc: disc,
			iters: len(r.Iters), baseline: baseline,
		})
	}

	const tenant = "bench"
	for _, p := range procs {
		coord, fleet, err := newShardFleet(store.NewMemBackend(), "fleet", tenant, p, 5*time.Second, tenants)
		if err != nil {
			return res, fmt.Errorf("procs=%d: %w", p, err)
		}
		wall, err := fleet.run(coord, tenants)
		if err != nil {
			return res, fmt.Errorf("procs=%d: %w", p, err)
		}
		if err := verifyFleet(coord, tenant, tenants); err != nil {
			return res, fmt.Errorf("procs=%d: %w", p, err)
		}
		var perWorker []int
		total := 0
		for _, w := range fleet.workers {
			runs := w.Stats().Runs
			perWorker = append(perWorker, runs)
			total += runs
		}
		shares := make([]float64, len(perWorker))
		for i, r := range perWorker {
			shares[i] = float64(r)
		}
		res.Rows = append(res.Rows, ShardRow{
			Procs:         p,
			WallMS:        float64(wall.Microseconds()) / 1e3,
			TotalRuns:     total,
			RunsPerSec:    float64(total) / wall.Seconds(),
			Fairness:      JainIndex(shares),
			PerWorkerRuns: perWorker,
			Identical:     true,
		})
	}

	chaos, err := shardChaos(tenant, tenants)
	if err != nil {
		return res, err
	}
	res.Chaos = chaos
	return res, nil
}

// shardChaos is the kill-a-worker pass: the victim is the worker whose
// shard owns the longest-running campaign (so death is guaranteed to
// strand unfinished work), halted after one round with leases intact.
func shardChaos(tenant string, tenants []shardTenant) (*ShardChaos, error) {
	const procs = 3
	// Short lease so the survivors conclude the victim is dead quickly.
	coord, fleet, err := newShardFleet(store.NewMemBackend(), "fleet", tenant, procs, time.Second, tenants)
	if err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	victim, iters := 0, -1
	victimCampaigns := make([]int, procs)
	for _, tn := range tenants {
		s := shard.Place(tenant, tn.bug.Name, "", procs)
		victimCampaigns[s]++
		if tn.iters > iters {
			victim, iters = s, tn.iters
		}
	}
	fleet.victim = victim
	wall, err := fleet.run(coord, tenants)
	if err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	if err := verifyFleet(coord, tenant, tenants); err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	chaos := &ShardChaos{
		Procs:           procs,
		Victim:          fleet.workers[victim].ID(),
		VictimCampaigns: victimCampaigns[victim],
		Identical:       true,
		WallMS:          float64(wall.Microseconds()) / 1e3,
	}
	for i, w := range fleet.workers {
		if i == victim {
			continue
		}
		st := w.Stats()
		chaos.Takeovers += st.Takeovers
		chaos.Resumed += st.Resumed
	}
	if chaos.Takeovers == 0 {
		return nil, fmt.Errorf("chaos: no survivor took over the dead worker's campaigns")
	}
	return chaos, nil
}

// RenderShard renders the shard experiment for the terminal.
func RenderShard(r *ShardResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Sharded campaign fleet: %d campaigns over worker processes (GOMAXPROCS=%d)\n",
		len(r.Bugs), r.GoMaxProcs)
	fmt.Fprintf(&sb, "campaigns: %s\n\n", strings.Join(r.Bugs, ", "))
	fmt.Fprintf(&sb, "%-7s %12s %10s %11s %9s  %s\n",
		"procs", "wall ms", "runs", "runs/sec", "fairness", "per-worker runs")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-7d %12.1f %10d %11.1f %9.3f  %v\n",
			row.Procs, row.WallMS, row.TotalRuns, row.RunsPerSec, row.Fairness, row.PerWorkerRuns)
	}
	if c := r.Chaos; c != nil {
		fmt.Fprintf(&sb, "\nchaos: killed %s (owner of %d campaign(s)) mid-campaign over %d procs: %d takeover(s), %d resumed from checkpoint, %.1f ms\n",
			c.Victim, c.VictimCampaigns, c.Procs, c.Takeovers, c.Resumed, c.WallMS)
	}
	sb.WriteString("\nEvery fleet sketch verified byte-identical to the single-process baseline.\n")
	return sb.String()
}

// ValidateShardJSON checks a shard BENCH artifact's schema: process
// rows aligned with the procs list, runs executed, fairness within
// (0,1], byte-identity recorded on every pass, and a chaos pass with at
// least one takeover.
func ValidateShardJSON(data []byte) error {
	var r ShardResult
	if err := json.Unmarshal(data, &r); err != nil {
		return fmt.Errorf("bench json: %w", err)
	}
	if r.Experiment != "shard" {
		return fmt.Errorf("bench json: experiment %q, want shard", r.Experiment)
	}
	if len(r.Procs) == 0 {
		return fmt.Errorf("bench json: no process-count passes")
	}
	if len(r.Bugs) == 0 {
		return fmt.Errorf("bench json: no campaigns")
	}
	if len(r.Rows) != len(r.Procs) {
		return fmt.Errorf("bench json: %d rows for %d process counts", len(r.Rows), len(r.Procs))
	}
	for i, row := range r.Rows {
		if row.Procs != r.Procs[i] {
			return fmt.Errorf("bench json: row %d procs %d, procs list says %d", i, row.Procs, r.Procs[i])
		}
		if row.TotalRuns <= 0 {
			return fmt.Errorf("bench json: pass %d executed no runs", i)
		}
		if row.Fairness <= 0 || row.Fairness > 1 {
			return fmt.Errorf("bench json: pass %d fairness %g outside (0,1]", i, row.Fairness)
		}
		if row.WallMS < 0 || row.RunsPerSec < 0 {
			return fmt.Errorf("bench json: pass %d has negative timings", i)
		}
		if len(row.PerWorkerRuns) != row.Procs {
			return fmt.Errorf("bench json: pass %d has %d per-worker entries for %d procs", i, len(row.PerWorkerRuns), row.Procs)
		}
		if !row.Identical {
			return fmt.Errorf("bench json: pass %d did not verify byte-identity", i)
		}
	}
	if r.Chaos == nil {
		return fmt.Errorf("bench json: no chaos pass")
	}
	if !r.Chaos.Identical {
		return fmt.Errorf("bench json: chaos pass did not verify byte-identity")
	}
	if r.Chaos.Takeovers <= 0 {
		return fmt.Errorf("bench json: chaos pass recorded no takeovers")
	}
	return nil
}
