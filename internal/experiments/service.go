package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/bugs"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/service"
	"repro/internal/service/agent"
)

// ServiceResult is the gist-as-a-service load experiment, serialized by
// -json to BENCH_service.json: a loopback diagnosis server driven by a
// large simulated agent fleet, with per-path RPC latency percentiles
// and end-to-end diagnosis throughput.
type ServiceResult struct {
	Experiment string  `json:"experiment"` // "service"
	Bug        string  `json:"bug"`
	Tenants    int     `json:"tenants"`
	Agents     int     `json:"agents"`
	FaultRate  float64 `json:"transport_fault_rate"`

	// Reports is how many failure reports (one campaign each) the
	// server diagnosed to completion.
	Reports        int     `json:"reports"`
	DurationMS     float64 `json:"duration_ms"`
	ReportsPerSec  float64 `json:"reports_per_sec"`
	RequestsPerSec float64 `json:"requests_per_sec"`

	// Identical records that every served sketch was byte-identical to
	// the in-process baseline; the experiment fails loudly when one is
	// not, so a written artifact always says true.
	Identical bool `json:"identical"`

	Requests         int64 `json:"requests"`
	Uploads          int64 `json:"uploads"`
	DuplicateUploads int64 `json:"duplicate_uploads"`
	Reassigned       int64 `json:"reassigned"`
	LostTasks        int64 `json:"lost_tasks"`
	BadChecksum      int64 `json:"bad_checksum"`

	// RPCs is the per-path latency distribution (p50/p95/p99).
	RPCs []service.RPCStat `json:"rpcs"`
}

// ServiceLoad runs the load experiment: tenants×agentsPerTenant
// simulated agents against one loopback server, one diagnosis campaign
// per tenant, transport faults injected on every agent's wire client.
// Every sketch the service returns is diffed byte-for-byte against an
// in-process core.Run of the same bug.
func ServiceLoad(bugName string, tenants, agentsPerTenant int, faultRate float64) (*ServiceResult, error) {
	b := bugs.ByName(bugName)
	if b == nil {
		return nil, fmt.Errorf("unknown bug %q", bugName)
	}
	res := &ServiceResult{
		Experiment: "service",
		Bug:        bugName,
		Tenants:    tenants,
		Agents:     tenants * agentsPerTenant,
		FaultRate:  faultRate,
	}

	// In-process baseline, computed once: the wire must not change a byte.
	base, err := core.Run(b.GistConfig())
	if err != nil {
		return nil, fmt.Errorf("in-process baseline: %w", err)
	}
	want, err := base.Sketch.MarshalIndentJSON()
	if err != nil {
		return nil, err
	}

	srv := service.NewServer(service.Options{
		LeaseTTL:        5 * time.Second,
		PollTimeout:     100 * time.Millisecond,
		MaxTaskAttempts: 10,
	})
	defer srv.Close()
	transport := service.LoopbackTransport{Handler: srv.Handler()}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for t := 0; t < tenants; t++ {
		tenant := fmt.Sprintf("tenant-%03d", t)
		for a := 0; a < agentsPerTenant; a++ {
			ag, err := agent.New(agent.Config{
				Server:    "http://gist",
				Tenant:    tenant,
				ID:        fmt.Sprintf("ep-%03d-%03d", t, a),
				Poll:      50 * time.Millisecond,
				Faults:    faults.Transport(int64(t*1000+a+1), faultRate),
				Transport: transport,
				Sleep:     func(time.Duration) {},
			})
			if err != nil {
				return nil, err
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				_ = ag.Run(ctx)
			}()
		}
	}

	start := time.Now()
	// Submit one failure report per tenant, then collect every sketch.
	var submitWG sync.WaitGroup
	errs := make(chan error, tenants)
	for t := 0; t < tenants; t++ {
		tenant := fmt.Sprintf("tenant-%03d", t)
		submitWG.Add(1)
		go func() {
			defer submitWG.Done()
			cli := service.NewClient(service.ClientOptions{
				BaseURL:   "http://gist",
				Tenant:    tenant,
				Actor:     "submitter",
				Faults:    faults.Transport(int64(len(tenant)), faultRate),
				Transport: transport,
				Sleep:     func(time.Duration) {},
			})
			if err := cli.Call(ctx, service.PathSubmit, &service.SubmitRequest{Tenant: tenant, Bug: bugName}, nil); err != nil {
				errs <- fmt.Errorf("%s: submit: %w", tenant, err)
				return
			}
			if !srv.WaitCampaign(tenant, bugName) {
				errs <- fmt.Errorf("%s: campaign vanished", tenant)
				return
			}
			var sk service.SketchResponse
			if err := cli.Call(ctx, service.PathSketch, &service.SketchRequest{Tenant: tenant, Bug: bugName}, &sk); err != nil {
				errs <- fmt.Errorf("%s: sketch: %w", tenant, err)
				return
			}
			if !sk.Ready {
				var st service.StatusResponse
				_ = cli.Call(ctx, service.PathStatus, &service.StatusRequest{Tenant: tenant, Bug: bugName}, &st)
				errs <- fmt.Errorf("%s: campaign finished without a sketch (state=%s err=%q)", tenant, st.State, st.Err)
				return
			}
			if !bytes.Equal(sk.Sketch, want) {
				errs <- fmt.Errorf("%s: served sketch differs from the in-process baseline", tenant)
			}
		}()
	}
	submitWG.Wait()
	elapsed := time.Since(start)
	cancel()
	wg.Wait()
	close(errs)
	for err := range errs {
		return res, err
	}

	counters, rpcs := srv.Snapshot()
	res.Reports = tenants
	res.DurationMS = float64(elapsed.Microseconds()) / 1000
	res.ReportsPerSec = float64(tenants) / elapsed.Seconds()
	res.RequestsPerSec = float64(counters.Requests) / elapsed.Seconds()
	res.Identical = true
	res.Requests = counters.Requests
	res.Uploads = counters.Uploads
	res.DuplicateUploads = counters.DuplicateUploads
	res.Reassigned = counters.Reassigned
	res.LostTasks = counters.LostTasks
	res.BadChecksum = counters.BadChecksum
	res.RPCs = rpcs
	return res, nil
}

// RenderService renders the load experiment for the terminal.
func RenderService(r *ServiceResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Gist-as-a-service load: %d agents across %d tenants, bug %s, transport faults %.0f%%\n\n",
		r.Agents, r.Tenants, r.Bug, r.FaultRate*100)
	fmt.Fprintf(&sb, "diagnoses completed   %d (%.2f reports/sec)\n", r.Reports, r.ReportsPerSec)
	fmt.Fprintf(&sb, "wire requests         %d (%.0f req/sec)\n", r.Requests, r.RequestsPerSec)
	fmt.Fprintf(&sb, "uploads               %d admitted, %d duplicate deliveries deduped\n", r.Uploads, r.DuplicateUploads)
	fmt.Fprintf(&sb, "reassigned / lost     %d / %d\n", r.Reassigned, r.LostTasks)
	fmt.Fprintf(&sb, "corrupt bodies seen   %d (all rejected on checksum)\n", r.BadChecksum)
	fmt.Fprintf(&sb, "sketches byte-identical to in-process runs: %v\n\n", r.Identical)
	fmt.Fprintf(&sb, "%-22s %9s %9s %9s %9s\n", "path", "count", "p50 ms", "p95 ms", "p99 ms")
	for _, s := range r.RPCs {
		fmt.Fprintf(&sb, "%-22s %9d %9.3f %9.3f %9.3f\n", s.Path, s.Count, s.P50Ms, s.P95Ms, s.P99Ms)
	}
	return sb.String()
}

// ValidateServiceJSON checks the service schema.
func ValidateServiceJSON(data []byte) error {
	var r ServiceResult
	if err := json.Unmarshal(data, &r); err != nil {
		return fmt.Errorf("bench json: %w", err)
	}
	if r.Experiment != "service" {
		return fmt.Errorf("bench json: experiment %q, want service", r.Experiment)
	}
	if r.Bug == "" {
		return fmt.Errorf("bench json: no bug recorded")
	}
	if r.Tenants < 1 || r.Agents < r.Tenants {
		return fmt.Errorf("bench json: implausible fleet: %d tenants, %d agents", r.Tenants, r.Agents)
	}
	if r.Reports < 1 || r.ReportsPerSec <= 0 || r.DurationMS <= 0 {
		return fmt.Errorf("bench json: no completed diagnoses recorded")
	}
	if !r.Identical {
		return fmt.Errorf("bench json: sketches were not byte-identical to in-process runs")
	}
	if r.FaultRate < 0 || r.FaultRate > 1 {
		return fmt.Errorf("bench json: transport fault rate %g outside [0,1]", r.FaultRate)
	}
	if len(r.RPCs) == 0 {
		return fmt.Errorf("bench json: no RPC latency rows")
	}
	if !sort.SliceIsSorted(r.RPCs, func(i, j int) bool { return r.RPCs[i].Path < r.RPCs[j].Path }) {
		return fmt.Errorf("bench json: RPC rows not sorted by path")
	}
	for _, s := range r.RPCs {
		if s.Count < 1 {
			return fmt.Errorf("bench json: path %s has no samples", s.Path)
		}
		if s.P50Ms < 0 || s.P50Ms > s.P95Ms || s.P95Ms > s.P99Ms {
			return fmt.Errorf("bench json: path %s percentiles not monotone: p50=%g p95=%g p99=%g",
				s.Path, s.P50Ms, s.P95Ms, s.P99Ms)
		}
	}
	return nil
}
