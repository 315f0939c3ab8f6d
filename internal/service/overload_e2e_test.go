package service_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bugs"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/service"
	"repro/internal/service/agent"
	"repro/internal/vm"
)

// TestOverloadBullyTenantIsShedVictimsUnharmed runs every admission
// mechanism at once, the way a bad day does: a bully tenant offers 10×
// its token bucket plus a burst of novel signatures against a full
// launch queue, a fifth of all task executions stall far past the hedge
// threshold, and two victim tenants diagnose and file recurrences
// throughout. The bully must be shed at both gates, stragglers must be
// hedged, the launch queue must stay within its budget, no deadline may
// trip, and every sketch served must be the in-process bytes.
func TestOverloadBullyTenantIsShedVictimsUnharmed(t *testing.T) {
	const (
		bug          = "deadlock" // cheapest suite bug: the test is about admission
		rps          = 50
		launchBudget = 1
		novelBurst   = 6
		folds        = 8
		bully        = "bully"
	)
	tenants := []string{"victim-0", "victim-1", bully}
	victims := tenants[:2]
	want := inProcessSketch(t, bug)
	report, disc, err := core.FirstFailure(bugs.ByName(bug).GistConfig())
	if err != nil {
		t.Fatalf("discovery: %v", err)
	}

	srv := service.NewServer(service.Options{
		LeaseTTL:     5 * time.Second,
		PollTimeout:  100 * time.Millisecond,
		TenantRPS:    rps,
		TenantBurst:  20,
		MaxInflight:  len(victims), // the victims fill the slots, the bully's campaign the queue
		LaunchBudget: launchBudget,
		HedgeAfter:   50 * time.Millisecond,
		ConfigFor: func(name string) (core.Config, error) {
			cfg, err := bugs.ConfigFor(name)
			// Slow agents live in their own keyed fault stream: only
			// timing changes, never trace bytes.
			cfg.Faults = faults.Config{Seed: 99, SlowRate: 0.2}
			return cfg, err
		},
	})
	defer srv.Close()
	transport := service.LoopbackTransport{Handler: srv.Handler()}
	ctx, cancel := context.WithCancel(context.Background())
	var agents sync.WaitGroup
	defer agents.Wait()
	defer cancel()
	for _, tenant := range tenants {
		for i := 0; i < 2; i++ {
			a, err := agent.New(agent.Config{
				Server: "http://gist", Tenant: tenant, ID: fmt.Sprintf("%s-ep-%d", tenant, i),
				Poll: 50 * time.Millisecond, Transport: transport, Sleep: func(time.Duration) {},
			})
			if err != nil {
				t.Fatalf("agent: %v", err)
			}
			agents.Add(1)
			go func() {
				defer agents.Done()
				_ = a.Run(ctx)
			}()
		}
	}
	client := func(tenant string) *service.Client {
		return service.NewClient(service.ClientOptions{
			BaseURL: "http://gist", Tenant: tenant, Actor: "submit", Transport: transport,
		})
	}

	// Victims first, so their campaigns hold both slots; then the bully's
	// own campaign, which parks in the launch queue behind them.
	for i, tenant := range tenants {
		req := &service.SubmitRequest{Tenant: tenant, Bug: bug, Report: report, Seed: int64(i), DiscoveryRuns: disc}
		if tenant != bully {
			req.DeadlineMs = 120_000 // exercises deadline propagation without tripping it
		}
		if err := client(tenant).Call(ctx, service.PathSubmit, req, nil); err != nil {
			t.Fatalf("%s: novel submit: %v", tenant, err)
		}
	}

	// The bully may be refused; anything but a 429 is a real failure. Its
	// client retries a shed call at once and counts every 429 it reads, so
	// the server's shed counters can prove no victim was ever refused.
	bullyShed := &shedCounter{next: transport}
	shots := service.NewClient(service.ClientOptions{
		BaseURL: "http://gist", Tenant: bully, Actor: "submit", Transport: bullyShed,
		Sleep: func(time.Duration) {},
	})
	fire := func(req *service.SubmitRequest) {
		err := shots.Call(ctx, service.PathSubmit, req, nil)
		var se *service.StatusError
		if err != nil && !(errors.As(err, &se) && se.Code == http.StatusTooManyRequests) {
			t.Errorf("bully submit: %v", err)
		}
	}
	// A distinct signature per shot — an extra stack frame feeds the
	// signature hash but not the slice roots — on an otherwise real
	// report, so a shot that wins a slot still diagnoses cleanly.
	for i := 0; i < novelBurst; i++ {
		novel := *report
		novel.Stack = append([]vm.StackEntry{{Fn: "flood", CallSiteID: 900_000 + i}}, report.Stack...)
		fire(&service.SubmitRequest{Tenant: bully, Bug: bug, Seed: int64(i), Report: &novel})
	}

	// Recurrence spam at 10× the rate limit until the victims have filed
	// their folds; those stay inside the limit, so none may be refused.
	var filing sync.WaitGroup
	for _, tenant := range victims {
		filing.Add(1)
		go func(tenant string) {
			defer filing.Done()
			cli := client(tenant)
			for j := 0; j < folds; j++ {
				time.Sleep(25 * time.Millisecond)
				var resp service.SubmitResponse
				err := cli.Call(ctx, service.PathSubmit,
					&service.SubmitRequest{Tenant: tenant, Bug: bug, Report: report, Seed: int64(100 + j)}, &resp)
				if err != nil || !resp.Duplicate {
					t.Errorf("%s: fold %d: duplicate=%v err=%v", tenant, j, resp.Duplicate, err)
					return
				}
			}
		}(tenant)
	}
	filed := make(chan struct{})
	go func() { filing.Wait(); close(filed) }()
	pace := newFlood(7, 10*rps, 10)
	for flooding := true; flooding; {
		select {
		case <-filed:
			flooding = false
		default:
			time.Sleep(pace.next())
			fire(&service.SubmitRequest{Tenant: bully, Bug: bug, Report: report, Seed: 2})
		}
	}

	// Every tenant's campaign finishes — the bully's too, which proves the
	// launch queue drains — with the bytes an in-process run produces.
	for _, tenant := range tenants {
		if !srv.WaitCampaignSig(tenant, bug, report.ID()) {
			t.Fatalf("%s: campaign vanished", tenant)
		}
		var sk service.SketchResponse
		err := client(tenant).Call(ctx, service.PathSketch,
			&service.SketchRequest{Tenant: tenant, Bug: bug, Signature: report.ID()}, &sk)
		if err != nil || !sk.Ready {
			t.Fatalf("%s: sketch fetch: ready=%v err=%v", tenant, sk.Ready, err)
		}
		if !bytes.Equal(sk.Sketch, want) {
			t.Errorf("%s: served sketch differs from the in-process run", tenant)
		}
	}

	c, _ := srv.Snapshot()
	if shed, bullys := c.ShedRateLimited+c.ShedLaunches, bullyShed.n.Load(); shed != bullys {
		t.Errorf("server shed %d submits, the bully's flood read %d refusals: a victim was refused", shed, bullys)
	}
	if c.ShedRateLimited == 0 {
		t.Error("10× flood was never shed at the token bucket")
	}
	if c.ShedLaunches == 0 {
		t.Error("novel burst never hit the launch budget")
	}
	if c.HedgedTasks == 0 {
		t.Error("slow agents never triggered a hedge")
	}
	if c.DeadlineExpired != 0 {
		t.Errorf("%d deadlines expired under a 120s budget", c.DeadlineExpired)
	}
	var health service.HealthResponse
	if err := client(victims[0]).Call(ctx, service.PathHealth, struct{}{}, &health); err != nil {
		t.Fatalf("health: %v", err)
	}
	if q := health.MaxQueuedLaunches; q > launchBudget {
		t.Errorf("launch queue peaked at %d, over the budget of %d", q, launchBudget)
	}
}

// shedCounter counts the 429 responses that pass through it.
type shedCounter struct {
	next http.RoundTripper
	n    atomic.Int64
}

func (s *shedCounter) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := s.next.RoundTrip(req)
	if err == nil && resp.StatusCode == http.StatusTooManyRequests {
		s.n.Add(1)
	}
	return resp, err
}
