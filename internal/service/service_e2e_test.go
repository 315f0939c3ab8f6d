package service_test

import (
	"bytes"
	"context"
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
)

// inProcessSketch computes the reference sketch bytes exactly as
// `gist -bug X -json` renders them.
var (
	sketchMu    sync.Mutex
	sketchCache = map[string][]byte{}
)

func inProcessSketch(t *testing.T, bug string) []byte {
	t.Helper()
	sketchMu.Lock()
	defer sketchMu.Unlock()
	if data, ok := sketchCache[bug]; ok {
		return data
	}
	b := bugs.ByName(bug)
	if b == nil {
		t.Fatalf("unknown bug %q", bug)
	}
	res, err := core.Run(b.GistConfig())
	if err != nil {
		t.Fatalf("in-process run of %s: %v", bug, err)
	}
	data, err := res.Sketch.MarshalIndentJSON()
	if err != nil {
		t.Fatalf("marshal in-process sketch: %v", err)
	}
	sketchCache[bug] = data
	return data
}

// largestRequest records the largest request body crossing the wire.
type largestRequest struct {
	next  http.RoundTripper
	bytes atomic.Int64
}

func (l *largestRequest) RoundTrip(req *http.Request) (*http.Response, error) {
	for n := req.ContentLength; ; {
		if old := l.bytes.Load(); n <= old || l.bytes.CompareAndSwap(old, n) {
			break
		}
	}
	return l.next.RoundTrip(req)
}

// serviceSketch runs one diagnosis through the full wire: loopback
// server, a small agent fleet, transport faults at the given rate.
func serviceSketch(t *testing.T, bug string, rate float64, nAgents int) ([]byte, service.Counters) {
	t.Helper()
	// A task whose grant was lost on the wire sits out a whole lease before
	// it is reassigned; that wait is most of a faulty cell's wall time.
	srv := service.NewServer(service.Options{
		LeaseTTL:        time.Second,
		PollTimeout:     200 * time.Millisecond,
		MaxTaskAttempts: 10,
	})
	defer srv.Close()
	// The server's body cap must sit far above anything a diagnosis sends.
	transport := &largestRequest{next: service.LoopbackTransport{Handler: srv.Handler()}}
	defer func() {
		if n := transport.bytes.Load(); n == 0 || n > service.MaxBodyBytes/8 {
			t.Errorf("largest request body was %d bytes; the server caps bodies at %d", n, service.MaxBodyBytes)
		}
	}()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < nAgents; i++ {
		a, err := agent.New(agent.Config{
			Server:    "http://gist",
			Tenant:    "acme",
			ID:        fmt.Sprintf("ep-%d", i),
			Poll:      150 * time.Millisecond,
			Faults:    faults.Transport(int64(1000+i), rate),
			Transport: transport,
			Sleep:     func(time.Duration) {},
		})
		if err != nil {
			t.Fatalf("agent: %v", err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := a.Run(ctx); err != nil {
				t.Errorf("agent run: %v", err)
			}
		}()
	}
	defer wg.Wait()
	defer cancel()

	cli := service.NewClient(service.ClientOptions{
		BaseURL:   "http://gist",
		Tenant:    "acme",
		Actor:     "cli",
		Faults:    faults.Transport(77, rate),
		Transport: transport,
		Sleep:     func(time.Duration) {},
	})
	var sub service.SubmitResponse
	if err := cli.Call(ctx, service.PathSubmit, &service.SubmitRequest{Tenant: "acme", Bug: bug}, &sub); err != nil {
		t.Fatalf("submit: %v", err)
	}
	if !srv.WaitCampaign("acme", bug) {
		t.Fatal("campaign vanished after submit")
	}

	var st service.StatusResponse
	if err := cli.Call(ctx, service.PathStatus, &service.StatusRequest{Tenant: "acme", Bug: bug}, &st); err != nil {
		t.Fatalf("status: %v", err)
	}
	if st.State != service.StateDone {
		t.Fatalf("campaign state = %q (err=%q), want done", st.State, st.Err)
	}
	var sk service.SketchResponse
	if err := cli.Call(ctx, service.PathSketch, &service.SketchRequest{Tenant: "acme", Bug: bug}, &sk); err != nil {
		t.Fatalf("sketch: %v", err)
	}
	if !sk.Ready || len(sk.Sketch) == 0 {
		t.Fatal("campaign done but sketch not ready")
	}
	counters, _ := srv.Snapshot()
	return sk.Sketch, counters
}

// TestServiceSketchesByteIdentical is the tentpole proof: a diagnosis
// routed through the wire — JSON codec, checksums, long-polls, retries,
// and (at 10%) injected transport drops/delays/duplicates/corruptions/
// disconnects — produces byte-for-byte the sketch of an in-process run.
func TestServiceSketchesByteIdentical(t *testing.T) {
	suite := []string{"pbzip2", "curl", "apache-1"}
	if testing.Short() {
		suite = suite[:1]
	}
	for _, bug := range suite {
		bug := bug
		t.Run(bug, func(t *testing.T) {
			t.Parallel()
			for _, rate := range []float64{0, 0.10} {
				// Each cell builds its own server, agents and client.
				t.Run(fmt.Sprintf("rate=%.2f", rate), func(t *testing.T) {
					t.Parallel()
					want := inProcessSketch(t, bug)
					got, counters := serviceSketch(t, bug, rate, 3)
					if !bytes.Equal(got, want) {
						t.Errorf("service sketch differs from in-process run\nservice:\n%s\nin-process:\n%s", got, want)
					}
					if counters.LostTasks != 0 {
						t.Errorf("%d tasks lost; transport faults must never lose work", counters.LostTasks)
					}
				})
			}
		})
	}
}

// TestAgentDeathReassignsRuns kills an agent mid-campaign (it takes a
// task and vanishes without a heartbeat) and checks the lease reaper
// hands its run to a healthy agent — same sketch bytes, nothing lost.
func TestAgentDeathReassignsRuns(t *testing.T) {
	const bug = "pbzip2"
	want := inProcessSketch(t, bug)

	srv := service.NewServer(service.Options{
		LeaseTTL:        300 * time.Millisecond,
		PollTimeout:     100 * time.Millisecond,
		MaxTaskAttempts: 10,
	})
	defer srv.Close()
	transport := service.LoopbackTransport{Handler: srv.Handler()}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	cli := service.NewClient(service.ClientOptions{
		BaseURL: "http://gist", Tenant: "acme", Actor: "cli",
		Transport: transport, Sleep: func(time.Duration) {},
	})
	var sub service.SubmitResponse
	if err := cli.Call(ctx, service.PathSubmit, &service.SubmitRequest{Tenant: "acme", Bug: bug}, &sub); err != nil {
		t.Fatalf("submit: %v", err)
	}

	// The doomed agent registers, grabs one task, and dies without
	// uploading or heartbeating.
	doomed := service.NewClient(service.ClientOptions{
		BaseURL: "http://gist", Tenant: "acme", Actor: "doomed",
		Transport: transport, Sleep: func(time.Duration) {},
	})
	if err := doomed.Call(ctx, service.PathRegister, &service.RegisterRequest{Tenant: "acme", Agent: "doomed"}, nil); err != nil {
		t.Fatalf("doomed register: %v", err)
	}
	grabbed := false
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); {
		var poll service.PollResponse
		if err := doomed.Call(ctx, service.PathPoll, &service.PollRequest{Tenant: "acme", Agent: "doomed", WaitMs: 100}, &poll); err != nil {
			t.Fatalf("doomed poll: %v", err)
		}
		if poll.Task != nil {
			grabbed = true
			break
		}
	}
	if !grabbed {
		t.Fatal("doomed agent never received a task")
	}

	// Now the healthy agent joins and finishes the campaign, including
	// the run the dead agent took with it.
	a, err := agent.New(agent.Config{
		Server: "http://gist", Tenant: "acme", ID: "healthy",
		Poll: 100 * time.Millisecond, Transport: transport, Sleep: func(time.Duration) {},
	})
	if err != nil {
		t.Fatalf("agent: %v", err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := a.Run(ctx); err != nil {
			t.Errorf("healthy agent: %v", err)
		}
	}()
	defer wg.Wait()
	defer cancel()

	if !srv.WaitCampaign("acme", bug) {
		t.Fatal("campaign vanished")
	}
	var sk service.SketchResponse
	if err := cli.Call(ctx, service.PathSketch, &service.SketchRequest{Tenant: "acme", Bug: bug}, &sk); err != nil {
		t.Fatalf("sketch: %v", err)
	}
	if !sk.Ready {
		var st service.StatusResponse
		_ = cli.Call(ctx, service.PathStatus, &service.StatusRequest{Tenant: "acme", Bug: bug}, &st)
		t.Fatalf("campaign finished without a sketch: state=%q err=%q", st.State, st.Err)
	}
	if !bytes.Equal(sk.Sketch, want) {
		t.Errorf("sketch after agent death differs from in-process run")
	}
	counters, _ := srv.Snapshot()
	if counters.Reassigned == 0 {
		t.Error("no task was ever reassigned; the doomed agent's lease never expired?")
	}
	if counters.LostTasks != 0 {
		t.Errorf("%d tasks lost; reassignment should have saved them all", counters.LostTasks)
	}
}
