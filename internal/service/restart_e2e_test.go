package service_test

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
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
}

// startLife boots a server over b. wrap, when non-nil, decorates the
// agents' transport (the drain half uses it to fire BeginDrain at an
// exact point in the campaign).
func startLife(t *testing.T, b store.Backend, wrap func(*service.Server, http.RoundTripper) http.RoundTripper) *serverLife {
	t.Helper()
	srv := service.NewServer(service.Options{
		Backend:         b,
		LeaseTTL:        2 * time.Second,
		PollTimeout:     200 * time.Millisecond,
		MaxTaskAttempts: 10,
	})
	var transport http.RoundTripper = service.LoopbackTransport{Handler: srv.Handler()}
	agentTransport := transport
	if wrap != nil {
		agentTransport = wrap(srv, transport)
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
	return &serverLife{
		srv: srv,
		cli: service.NewClient(service.ClientOptions{
			BaseURL: "http://gist", Tenant: restartTenant, Actor: "cli",
			Transport: transport, Sleep: func(time.Duration) {},
		}),
		stop: func() {
			cancel()
			wg.Wait()
			srv.Close()
		},
	}
}

// diagnose submits the report, waits for the campaign to settle, and
// returns its final state, the served sketch (nil unless done), and the
// server's upload count.
func (l *serverLife) diagnose(t *testing.T, bug string, report *vm.FailureReport, disc int) (string, []byte, int64) {
	t.Helper()
	ctx := context.Background()
	var sub service.SubmitResponse
	if err := l.cli.Call(ctx, service.PathSubmit, &service.SubmitRequest{
		Tenant: restartTenant, Bug: bug, Report: report, DiscoveryRuns: disc,
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

// drainAfterFirstBoundary passes agent traffic through untouched until
// the campaign's first iteration boundary is durable (checkpoint
// generation 1 exists on the backend), then calls BeginDrain before
// forwarding the next upload. That upload belongs to iteration 2 — no
// task of it exists before the generation-1 save — so the server always
// drains mid-campaign, never before the first boundary and never after
// the last.
type drainAfterFirstBoundary struct {
	next http.RoundTripper
	srv  *service.Server
	b    store.Backend
}

func (d drainAfterFirstBoundary) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path == service.PathUpload && !d.srv.Draining() {
		names, _ := d.b.ListFiles(filepath.Join("state", shard.Sanitize(restartTenant)))
		for _, name := range names {
			if strings.HasSuffix(name, ".ckpt") && !strings.Contains(name, ".g00000000.") {
				d.srv.BeginDrain()
				break
			}
		}
	}
	return d.next.RoundTrip(req)
}

// TestRestartResumesFromSharedState pins what README and DESIGN promise
// of -state-dir: a second server over the first one's checkpoint state
// picks a resubmitted report's campaign up where it stood. (a) A
// finished campaign is served again with zero production runs. (b) A
// campaign drained mid-flight is finished from its last generation —
// strictly fewer runs than an uninterrupted diagnosis — and either way
// the sketch bytes are those of the uninterrupted run.
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
		first := startLife(t, b, func(srv *service.Server, next http.RoundTripper) http.RoundTripper {
			return drainAfterFirstBoundary{next: next, srv: srv, b: b}
		})
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
}
