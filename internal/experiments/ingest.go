package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/bugs"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/service"
	"repro/internal/service/agent"
	"repro/internal/stats"
	"repro/internal/vm"
)

// IngestCell is one (bug, fault rate) cell of the ingest experiment.
type IngestCell struct {
	Bug       string  `json:"bug"`
	FaultRate float64 `json:"transport_fault_rate"`
	Signature string  `json:"signature"`
	// Reports is the cell's total submitted reports; Novel of them
	// launched the campaign, Folded were deduped into it.
	Reports int `json:"reports"`
	Novel   int `json:"novel"`
	Folded  int `json:"folded"`
	// DedupRatio is Reports per campaign launched.
	DedupRatio float64 `json:"dedup_ratio"`
	// Identical records that the streamed sketch — fetched through the
	// eviction/reload path — was byte-identical to the batch diagnosis.
	Identical bool `json:"identical"`
}

// IngestRateStats aggregates one fault rate's server-side evidence.
type IngestRateStats struct {
	FaultRate float64 `json:"transport_fault_rate"`
	// Submit-path admit latency (client-observed, includes retries).
	AdmitP50Ms float64 `json:"admit_p50_ms"`
	AdmitP95Ms float64 `json:"admit_p95_ms"`
	AdmitP99Ms float64 `json:"admit_p99_ms"`
	// ReportsPerSec is the sustained ingest rate over the submit phase.
	ReportsPerSec float64 `json:"reports_per_sec"`
	SubmitMS      float64 `json:"submit_ms"`

	NovelSignatures int64 `json:"novel_signatures"`
	FoldedReports   int64 `json:"folded_reports"`
	SketchReloads   int64 `json:"sketch_reloads"`
	LostTasks       int64 `json:"lost_tasks"`

	// Sketch cache occupancy at the end of the run; Bytes <= MaxBytes is
	// the flat-memory bound.
	CacheBytes    int64 `json:"cache_bytes"`
	CacheMaxBytes int64 `json:"cache_max_bytes"`
	CacheEntries  int   `json:"cache_entries"`
}

// IngestResult is the streaming-ingestion experiment, serialized by
// -json to BENCH_ingest.json: a duplicate-heavy failure-report stream
// against the service's ingest front-end, at two transport fault rates,
// with every streamed sketch byte-diffed against the batch diagnosis.
type IngestResult struct {
	Experiment string `json:"experiment"` // "ingest"
	// DupPerSignature is how many reports were filed per distinct
	// signature — the configured dedup ratio.
	DupPerSignature int      `json:"dup_per_signature"`
	Bugs            []string `json:"bugs"`
	GoMaxProcs      int      `json:"gomaxprocs"`
	// Identical is the aggregate: every cell's streamed sketch matched
	// its batch diagnosis byte for byte.
	Identical bool `json:"identical"`

	Cells []IngestCell      `json:"cells"`
	Rates []IngestRateStats `json:"rates"`
}

// ingestFaultRates are the two operating points the experiment proves
// byte-identity at, matching the service experiment's convention.
var ingestFaultRates = []float64{0, 0.10}

// IngestLoad replays a duplicate-heavy report stream: for every bug in
// the suite and both fault rates, one novel production failure report
// plus dupPerSig-1 recurrences submitted concurrently while the
// campaign runs. The server dedups on failure signature, so exactly one
// campaign launches per cell; the finished sketch is fetched through a
// deliberately tiny LRU cache (1 byte — every fetch re-renders from the
// checkpoint store) and must be byte-identical to the batch
// core.RunFromReport diagnosis of the same report.
func IngestLoad(suite []string, dupPerSig, agentsPerTenant int) (*IngestResult, error) {
	if dupPerSig < 2 {
		return nil, fmt.Errorf("ingest: dup-per-signature %d must be >= 2", dupPerSig)
	}
	if agentsPerTenant < 1 {
		agentsPerTenant = 2
	}
	res := &IngestResult{
		Experiment:      "ingest",
		DupPerSignature: dupPerSig,
		Bugs:            suite,
		GoMaxProcs:      runtime.GOMAXPROCS(0),
		Identical:       true,
	}
	for _, rate := range ingestFaultRates {
		stats, cells, err := ingestOneRate(suite, dupPerSig, agentsPerTenant, rate)
		if err != nil {
			return res, err
		}
		res.Rates = append(res.Rates, *stats)
		res.Cells = append(res.Cells, cells...)
		for _, c := range cells {
			if !c.Identical {
				res.Identical = false
			}
		}
	}
	return res, nil
}

// ingestOneRate drives all suite cells against one server at one
// transport fault rate.
func ingestOneRate(suite []string, dupPerSig, agentsPerTenant int, rate float64) (*IngestRateStats, []IngestCell, error) {
	srv := service.NewServer(service.Options{
		LeaseTTL:        5 * time.Second,
		PollTimeout:     100 * time.Millisecond,
		MaxTaskAttempts: 10,
		// A 1-byte cache can hold nothing: every sketch fetch must
		// re-render from the durable checkpoint, so byte-identity below
		// proves the eviction/reload path, not just the hot path.
		SketchCacheBytes: 1,
	})
	defer srv.Close()
	transport := service.LoopbackTransport{Handler: srv.Handler()}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var agentWG sync.WaitGroup
	defer agentWG.Wait()
	defer cancel()

	var (
		mu             sync.Mutex
		latencies      []float64
		cells          []IngestCell
		lastSubmitDone time.Time
	)
	errs := make(chan error, len(suite))
	var cellWG sync.WaitGroup

	// Prepare every cell's batch oracle up front so the timed submit
	// phase measures ingestion, not in-process rediscovery: discover the
	// failure, then diagnose from that exact report — the stream must
	// reproduce these bytes.
	type cellPrep struct {
		tenant string
		report *vm.FailureReport
		disc   int
		want   []byte
	}
	preps := make([]cellPrep, len(suite))
	for bi, bugName := range suite {
		b := bugs.ByName(bugName)
		if b == nil {
			return nil, nil, fmt.Errorf("unknown bug %q", bugName)
		}
		tenant := fmt.Sprintf("tenant-%s", bugName)
		cfg := b.GistConfig()
		report, disc, err := core.FirstFailure(cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: discovery: %w", bugName, err)
		}
		batch, err := core.RunFromReport(cfg, report, disc)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: batch diagnosis: %w", bugName, err)
		}
		want, err := batch.Sketch.MarshalIndentJSON()
		if err != nil {
			return nil, nil, err
		}
		preps[bi] = cellPrep{tenant: tenant, report: report, disc: disc, want: want}

		for a := 0; a < agentsPerTenant; a++ {
			ag, err := agent.New(agent.Config{
				Server:    "http://gist",
				Tenant:    tenant,
				ID:        fmt.Sprintf("ep-%03d-%03d", bi, a),
				Poll:      50 * time.Millisecond,
				Faults:    faults.Transport(int64(bi*1000+a+1), rate),
				Transport: transport,
				Sleep:     func(time.Duration) {},
			})
			if err != nil {
				return nil, nil, err
			}
			agentWG.Add(1)
			go func() {
				defer agentWG.Done()
				_ = ag.Run(ctx)
			}()
		}
	}

	// The timed submit phase: every cell streams its reports at once.
	start := time.Now()
	for bi, bugName := range suite {
		p := preps[bi]
		report, disc, want := p.report, p.disc, p.want
		cellWG.Add(1)
		go func(bi int, bugName, tenant string) {
			defer cellWG.Done()
			newClient := func(actor string, seed int64) *service.Client {
				return service.NewClient(service.ClientOptions{
					BaseURL:   "http://gist",
					Tenant:    tenant,
					Actor:     actor,
					Faults:    faults.Transport(seed, rate),
					Transport: transport,
					Sleep:     func(time.Duration) {},
				})
			}
			submit := func(cli *service.Client, seed int64) (*service.SubmitResponse, error) {
				var resp service.SubmitResponse
				req := &service.SubmitRequest{
					Tenant: tenant, Bug: bugName,
					Report: report, Seed: seed, DiscoveryRuns: disc,
				}
				t0 := time.Now()
				err := cli.Call(ctx, service.PathSubmit, req, &resp)
				d := float64(time.Since(t0).Microseconds()) / 1000
				mu.Lock()
				latencies = append(latencies, d)
				mu.Unlock()
				return &resp, err
			}

			// The novel report launches the campaign...
			first, err := submit(newClient("submit-0", int64(7000+bi)), int64(bi))
			if err != nil {
				errs <- fmt.Errorf("%s: submit: %w", bugName, err)
				return
			}
			// A faulty transport may duplicate the novel delivery, in
			// which case the response the client sees is the second
			// delivery's fold — fine: exactly one campaign launched, and
			// NovelSignatures (checked per rate below) proves it. Only a
			// clean wire makes a Duplicate first response an error.
			if first.Duplicate && rate == 0 {
				errs <- fmt.Errorf("%s: first report reported duplicate", bugName)
				return
			}
			// ...and the recurrences race it from concurrent submitters
			// while the campaign is running.
			const submitters = 4
			var dupWG sync.WaitGroup
			for w := 0; w < submitters; w++ {
				dupWG.Add(1)
				go func(w int) {
					defer dupWG.Done()
					cli := newClient(fmt.Sprintf("submit-%d", w+1), int64(8000+bi*10+w))
					for j := w; j < dupPerSig-1; j += submitters {
						resp, err := submit(cli, int64(100+j))
						if err != nil {
							errs <- fmt.Errorf("%s: dup submit: %w", bugName, err)
							return
						}
						if !resp.Duplicate {
							errs <- fmt.Errorf("%s: recurrence launched a second campaign", bugName)
							return
						}
					}
				}(w)
			}
			dupWG.Wait()
			mu.Lock()
			if t := time.Now(); t.After(lastSubmitDone) {
				lastSubmitDone = t
			}
			mu.Unlock()

			sig := first.Signature
			if !srv.WaitCampaignSig(tenant, bugName, sig) {
				errs <- fmt.Errorf("%s: campaign vanished", bugName)
				return
			}
			cli := newClient("fetch", int64(9000+bi))
			var sk service.SketchResponse
			if err := cli.Call(ctx, service.PathSketch,
				&service.SketchRequest{Tenant: tenant, Bug: bugName, Signature: sig}, &sk); err != nil {
				errs <- fmt.Errorf("%s: sketch: %w", bugName, err)
				return
			}
			if !sk.Ready {
				var st service.StatusResponse
				_ = cli.Call(ctx, service.PathStatus,
					&service.StatusRequest{Tenant: tenant, Bug: bugName, Signature: sig}, &st)
				errs <- fmt.Errorf("%s: campaign finished without a sketch (state=%s err=%q)", bugName, st.State, st.Err)
				return
			}
			cell := IngestCell{
				Bug: bugName, FaultRate: rate, Signature: sig,
				Reports: dupPerSig, Novel: 1, Folded: dupPerSig - 1,
				DedupRatio: float64(dupPerSig),
				Identical:  bytes.Equal(sk.Sketch, want),
			}
			mu.Lock()
			cells = append(cells, cell)
			mu.Unlock()
			if !cell.Identical {
				errs <- fmt.Errorf("%s: streamed sketch differs from batch diagnosis", bugName)
			}
		}(bi, bugName, p.tenant)
	}

	cellWG.Wait()
	close(errs)
	for err := range errs {
		return nil, nil, err
	}

	mu.Lock()
	sort.Float64s(latencies)
	submitElapsed := lastSubmitDone.Sub(start)
	stats := &IngestRateStats{
		FaultRate:     rate,
		AdmitP50Ms:    stats.Percentile(latencies, 0.50),
		AdmitP95Ms:    stats.Percentile(latencies, 0.95),
		AdmitP99Ms:    stats.Percentile(latencies, 0.99),
		SubmitMS:      float64(submitElapsed.Microseconds()) / 1000,
		ReportsPerSec: float64(len(latencies)) / submitElapsed.Seconds(),
	}
	sort.Slice(cells, func(i, j int) bool { return cells[i].Bug < cells[j].Bug })
	out := append([]IngestCell(nil), cells...)
	mu.Unlock()

	counters, _ := srv.Snapshot()
	stats.NovelSignatures = counters.NovelSignatures
	stats.FoldedReports = counters.FoldedReports
	stats.SketchReloads = counters.SketchReloads
	stats.LostTasks = counters.LostTasks
	cache := srv.CacheStats()
	stats.CacheBytes = cache.Bytes
	stats.CacheMaxBytes = cache.MaxBytes
	stats.CacheEntries = cache.Entries
	return stats, out, nil
}

// RenderIngest renders the ingest experiment for the terminal.
func RenderIngest(r *IngestResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Streaming ingestion: %d bugs × %d reports/signature × fault rates {0, 10%%}\n\n",
		len(r.Bugs), r.DupPerSignature)
	fmt.Fprintf(&sb, "sketches byte-identical to batch diagnosis (via cache-evict/reload): %v\n\n", r.Identical)
	for _, s := range r.Rates {
		fmt.Fprintf(&sb, "fault rate %.0f%%: %.0f reports/sec sustained, admit p50/p95/p99 = %.3f/%.3f/%.3f ms\n",
			s.FaultRate*100, s.ReportsPerSec, s.AdmitP50Ms, s.AdmitP95Ms, s.AdmitP99Ms)
		fmt.Fprintf(&sb, "  %d campaigns launched, %d reports folded, %d sketch reloads, cache %d/%d bytes\n",
			s.NovelSignatures, s.FoldedReports, s.SketchReloads, s.CacheBytes, s.CacheMaxBytes)
	}
	fmt.Fprintf(&sb, "\n%-14s %6s %8s %7s %7s %11s  %s\n", "bug", "rate", "reports", "novel", "folded", "dedup", "identical")
	for _, c := range r.Cells {
		fmt.Fprintf(&sb, "%-14s %5.0f%% %8d %7d %7d %10.1f:1  %v\n",
			c.Bug, c.FaultRate*100, c.Reports, c.Novel, c.Folded, c.DedupRatio, c.Identical)
	}
	return sb.String()
}

// ValidateIngestJSON checks the ingest schema: full bug × rate
// coverage, the >= 10:1 dedup floor, byte-identity everywhere, monotone
// admit percentiles, and the cache's flat-memory bound.
func ValidateIngestJSON(data []byte) error {
	var r IngestResult
	if err := json.Unmarshal(data, &r); err != nil {
		return fmt.Errorf("bench json: %w", err)
	}
	if r.Experiment != "ingest" {
		return fmt.Errorf("bench json: experiment %q, want ingest", r.Experiment)
	}
	if len(r.Bugs) == 0 {
		return fmt.Errorf("bench json: no bugs recorded")
	}
	if r.DupPerSignature < 10 {
		return fmt.Errorf("bench json: dup_per_signature %d below the 10:1 dedup floor", r.DupPerSignature)
	}
	if !r.Identical {
		return fmt.Errorf("bench json: streamed sketches were not byte-identical to batch diagnoses")
	}
	if len(r.Rates) != len(ingestFaultRates) {
		return fmt.Errorf("bench json: %d rate rows, want %d", len(r.Rates), len(ingestFaultRates))
	}
	seen := map[string]map[float64]bool{}
	for _, c := range r.Cells {
		if !c.Identical {
			return fmt.Errorf("bench json: cell %s@%g not byte-identical", c.Bug, c.FaultRate)
		}
		if c.Novel != 1 {
			return fmt.Errorf("bench json: cell %s@%g launched %d campaigns, want exactly 1", c.Bug, c.FaultRate, c.Novel)
		}
		if c.Reports != c.Novel+c.Folded {
			return fmt.Errorf("bench json: cell %s@%g report accounting broken: %d != %d+%d",
				c.Bug, c.FaultRate, c.Reports, c.Novel, c.Folded)
		}
		if c.DedupRatio < 10 {
			return fmt.Errorf("bench json: cell %s@%g dedup ratio %.1f below 10:1", c.Bug, c.FaultRate, c.DedupRatio)
		}
		if c.Signature == "" {
			return fmt.Errorf("bench json: cell %s@%g has no signature", c.Bug, c.FaultRate)
		}
		if seen[c.Bug] == nil {
			seen[c.Bug] = map[float64]bool{}
		}
		seen[c.Bug][c.FaultRate] = true
	}
	for _, bug := range r.Bugs {
		for _, rate := range ingestFaultRates {
			if !seen[bug][rate] {
				return fmt.Errorf("bench json: missing cell %s@%g", bug, rate)
			}
		}
	}
	for _, s := range r.Rates {
		if s.AdmitP50Ms < 0 || s.AdmitP50Ms > s.AdmitP95Ms || s.AdmitP95Ms > s.AdmitP99Ms {
			return fmt.Errorf("bench json: rate %g admit percentiles not monotone: p50=%g p95=%g p99=%g",
				s.FaultRate, s.AdmitP50Ms, s.AdmitP95Ms, s.AdmitP99Ms)
		}
		if s.ReportsPerSec <= 0 || s.SubmitMS <= 0 {
			return fmt.Errorf("bench json: rate %g records no sustained ingest rate", s.FaultRate)
		}
		if s.NovelSignatures != int64(len(r.Bugs)) {
			return fmt.Errorf("bench json: rate %g launched %d campaigns, want %d", s.FaultRate, s.NovelSignatures, len(r.Bugs))
		}
		if s.SketchReloads < int64(len(r.Bugs)) {
			return fmt.Errorf("bench json: rate %g shows %d sketch reloads; the tiny cache must force at least one per bug",
				s.FaultRate, s.SketchReloads)
		}
		if s.CacheMaxBytes > 0 && s.CacheBytes > s.CacheMaxBytes {
			return fmt.Errorf("bench json: rate %g sketch cache over budget: %d > %d bytes",
				s.FaultRate, s.CacheBytes, s.CacheMaxBytes)
		}
	}
	return nil
}
