package service_test

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bugs"
	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/service/agent"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/vm"
)

const restartTenant = "acme"

// serverLife is one server process's lifetime over a shared backend: a
// server, two agents, and a client, all torn down by stop.
type serverLife struct {
	srv  *service.Server
	cli  *service.Client
	stop func()
	// skew is added to the server's clock; deadlineMs rides on submits.
	skew       atomic.Int64
	deadlineMs int64
}

// startLife boots a server over b. atBoundary, when non-nil, is called
// once, mid-campaign: after the first iteration boundary is durable and
// before the next upload is forwarded (see atFirstBoundary).
func startLife(t *testing.T, b store.Backend, atBoundary func(*serverLife)) *serverLife {
	t.Helper()
	l := &serverLife{}
	srv := service.NewServer(service.Options{
		Backend:         b,
		LeaseTTL:        2 * time.Second,
		PollTimeout:     200 * time.Millisecond,
		MaxTaskAttempts: 10,
		Now:             func() time.Time { return time.Now().Add(time.Duration(l.skew.Load())) },
	})
	var transport http.RoundTripper = service.LoopbackTransport{Handler: srv.Handler()}
	agentTransport := transport
	if atBoundary != nil {
		agentTransport = &atFirstBoundary{next: transport, b: b, fire: func() { atBoundary(l) }}
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		a, err := agent.New(agent.Config{
			Server:    "http://gist",
			Tenant:    restartTenant,
			ID:        fmt.Sprintf("ep-%d", i),
			Poll:      150 * time.Millisecond,
			Transport: agentTransport,
			Sleep:     func(time.Duration) {},
		})
		if err != nil {
			t.Fatalf("agent: %v", err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A restarted server may settle before an agent has even
			// registered; being stopped mid-registration is not a failure.
			if err := a.Run(ctx); err != nil && ctx.Err() == nil {
				t.Errorf("agent run: %v", err)
			}
		}()
	}
	l.srv = srv
	l.cli = service.NewClient(service.ClientOptions{
		BaseURL: "http://gist", Tenant: restartTenant, Actor: "cli",
		Transport: transport, Sleep: func(time.Duration) {},
	})
	l.stop = func() {
		cancel()
		wg.Wait()
		srv.Close()
	}
	return l
}

// diagnose submits the report, waits for the campaign to settle, and
// returns its final state, the served sketch (nil unless done), and the
// server's upload count.
func (l *serverLife) diagnose(t *testing.T, bug string, report *vm.FailureReport, disc int) (string, []byte, int64) {
	t.Helper()
	ctx := context.Background()
	var sub service.SubmitResponse
	if err := l.cli.Call(ctx, service.PathSubmit, &service.SubmitRequest{
		Tenant: restartTenant, Bug: bug, Report: report, DiscoveryRuns: disc, DeadlineMs: l.deadlineMs,
	}, &sub); err != nil {
		t.Fatalf("submit: %v", err)
	}
	if !l.srv.WaitCampaignSig(restartTenant, bug, sub.Signature) {
		t.Fatal("campaign vanished after submit")
	}
	var st service.StatusResponse
	if err := l.cli.Call(ctx, service.PathStatus, &service.StatusRequest{
		Tenant: restartTenant, Bug: bug, Signature: sub.Signature,
	}, &st); err != nil {
		t.Fatalf("status: %v", err)
	}
	var sk service.SketchResponse
	if err := l.cli.Call(ctx, service.PathSketch, &service.SketchRequest{
		Tenant: restartTenant, Bug: bug, Signature: sub.Signature,
	}, &sk); err != nil {
		t.Fatalf("sketch: %v", err)
	}
	counters, _ := l.srv.Snapshot()
	return st.State, sk.Sketch, counters.Uploads
}

// atFirstBoundary passes agent traffic through untouched until the
// campaign's first iteration boundary is durable (checkpoint generation
// 1 exists on the backend), then calls fire once before forwarding the
// next upload. That upload belongs to iteration 2 — no task of it exists
// before the generation-1 save — so fire always lands mid-campaign,
// never before the first boundary and never after the last.
type atFirstBoundary struct {
	next http.RoundTripper
	b    store.Backend
	once sync.Once
	fire func()
}

func (a *atFirstBoundary) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path == service.PathUpload {
		names, _ := a.b.ListFiles(filepath.Join("state", shard.Sanitize(restartTenant)))
		for _, name := range names {
			if strings.HasSuffix(name, ".ckpt") && !strings.Contains(name, ".g00000000.") {
				a.once.Do(a.fire)
				break
			}
		}
	}
	return a.next.RoundTrip(req)
}

// TestRestartResumesFromSharedState pins what README and DESIGN promise
// of -state-dir: a second server over the first one's checkpoint state
// picks a resubmitted report's campaign up where it stood. (a) A
// finished campaign is served again with zero production runs. (b) A
// campaign drained mid-flight is finished from its last generation —
// strictly fewer runs than an uninterrupted diagnosis — and either way
// the sketch bytes are those of the uninterrupted run. (c, d) A campaign
// the first server disowned mid-flight — its runs written off by Close
// without a drain, or by the deadline reaper — leaves nothing computed
// from written-off runs in the store: the second server resumes from the
// last boundary reached on real runs, same bytes again.
func TestRestartResumesFromSharedState(t *testing.T) {
	const bug = "pbzip2"
	report, disc, err := core.FirstFailure(bugs.ByName(bug).GistConfig())
	if err != nil {
		t.Fatalf("discovery: %v", err)
	}
	want := inProcessSketch(t, bug)

	finished := store.NewMemBackend()
	first := startLife(t, finished, nil)
	state, sketch, fullUploads := first.diagnose(t, bug, report, disc)
	first.stop()
	if state != service.StateDone || !bytes.Equal(sketch, want) {
		t.Fatalf("uninterrupted run: state %q, sketch matches in-process run: %v", state, bytes.Equal(sketch, want))
	}
	if fullUploads == 0 {
		t.Fatal("uninterrupted run consumed no uploads; the comparison below would be vacuous")
	}

	t.Run("finished", func(t *testing.T) {
		second := startLife(t, finished, nil)
		defer second.stop()
		state, sketch, uploads := second.diagnose(t, bug, report, disc)
		if state != service.StateDone {
			t.Fatalf("restarted server: state %q, want done", state)
		}
		if !bytes.Equal(sketch, want) {
			t.Errorf("restarted server served different sketch bytes")
		}
		if uploads != 0 {
			t.Errorf("restarted server re-executed %d runs (first server: %d) with the finished snapshot in the store", uploads, fullUploads)
		}
	})

	t.Run("drained", func(t *testing.T) {
		b := store.NewMemBackend()
		first := startLife(t, b, func(l *serverLife) { l.srv.BeginDrain() })
		state, _, firstUploads := first.diagnose(t, bug, report, disc)
		drained, idle := first.srv.DrainWait(time.Minute)
		first.stop()
		if state != service.StateDrained || drained != 1 || !idle {
			t.Fatalf("first server: state %q, %d drained, idle %v; want one drained campaign", state, drained, idle)
		}

		second := startLife(t, b, nil)
		defer second.stop()
		state, sketch, uploads := second.diagnose(t, bug, report, disc)
		if state != service.StateDone {
			t.Fatalf("restarted server: state %q, want done", state)
		}
		if !bytes.Equal(sketch, want) {
			t.Errorf("resumed diagnosis served different sketch bytes")
		}
		if uploads >= fullUploads {
			t.Errorf("restarted server ran %d uploads, not fewer than the uninterrupted %d (drained server had run %d)",
				uploads, fullUploads, firstUploads)
		}
	})

	// resumesClean restarts over what a disowning first server left in b.
	resumesClean := func(t *testing.T, b store.Backend) {
		t.Helper()
		second := startLife(t, b, nil)
		defer second.stop()
		state, sketch, uploads := second.diagnose(t, bug, report, disc)
		if state != service.StateDone {
			t.Fatalf("restarted server: state %q, want done", state)
		}
		if !bytes.Equal(sketch, want) {
			t.Errorf("restarted server served a sketch computed from written-off runs")
		}
		if uploads == 0 || uploads >= fullUploads {
			t.Errorf("restarted server ran %d uploads, want mid-campaign resume (uninterrupted: %d)", uploads, fullUploads)
		}
	}

	t.Run("closed", func(t *testing.T) {
		b := store.NewMemBackend()
		first := startLife(t, b, func(l *serverLife) { l.srv.Close() })
		state, sketch, _ := first.diagnose(t, bug, report, disc)
		first.stop()
		if state == service.StateDone || len(sketch) != 0 {
			t.Fatalf("closed server: state %q with %d sketch bytes; written-off runs must not yield a served sketch", state, len(sketch))
		}
		resumesClean(t, b)
	})

	t.Run("expired", func(t *testing.T) {
		b := store.NewMemBackend()
		first := startLife(t, b, func(l *serverLife) { l.skew.Store(int64(2 * time.Hour)) })
		first.deadlineMs = time.Hour.Milliseconds()
		state, sketch, _ := first.diagnose(t, bug, report, disc)
		first.stop()
		if state != service.StateFailed || len(sketch) != 0 {
			t.Fatalf("expired campaign: state %q with %d sketch bytes, want failed and none", state, len(sketch))
		}
		resumesClean(t, b)
	})
}

// TestDiscoveryFailureIsReportedAsSuch pins the status a reportless
// submit reads when server-side discovery finds no failure: the error
// names discovery, as it did when runCampaign ran discovery itself.
func TestDiscoveryFailureIsReportedAsSuch(t *testing.T) {
	const bug = "cppcheck-1" // first fails on discovery run 4
	srv := service.NewServer(service.Options{
		Backend: store.NewMemBackend(),
		ConfigFor: func(string) (core.Config, error) {
			cfg := bugs.ByName(bug).GistConfig()
			cfg.MaxDiscoveryRuns = 1
			return cfg, nil
		},
	})
	defer srv.Close()
	cli := service.NewClient(service.ClientOptions{
		BaseURL: "http://gist", Tenant: restartTenant, Actor: "cli",
		Transport: service.LoopbackTransport{Handler: srv.Handler()}, Sleep: func(time.Duration) {},
	})
	ctx := context.Background()
	if err := cli.Call(ctx, service.PathSubmit, &service.SubmitRequest{Tenant: restartTenant, Bug: bug}, &service.SubmitResponse{}); err != nil {
		t.Fatalf("submit: %v", err)
	}
	srv.WaitCampaign(restartTenant, bug)
	var st service.StatusResponse
	if err := cli.Call(ctx, service.PathStatus, &service.StatusRequest{Tenant: restartTenant, Bug: bug}, &st); err != nil {
		t.Fatalf("status: %v", err)
	}
	if st.State != service.StateFailed || !strings.HasPrefix(st.Err, "discovery: ") {
		t.Errorf("state %q err %q, want failed with an error starting \"discovery: \"", st.State, st.Err)
	}
}
