package service_test

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/bugs"
	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/service/agent"
)

// TestReportSubmitByteIdenticalAndCacheReload drives the streaming
// ingestion path end to end: a production failure report submitted over
// the wire (with duplicate submissions racing the campaign), diagnosed
// by a loopback agent fleet, must yield byte-for-byte the sketch of the
// batch in-process run — and must keep yielding those bytes when the
// sketch cache is too small to hold anything, forcing every fetch
// through the checkpoint-store reload path.
func TestReportSubmitByteIdenticalAndCacheReload(t *testing.T) {
	const bug = "pbzip2"
	b := bugs.ByName(bug)
	if b == nil {
		t.Fatalf("unknown bug %q", bug)
	}
	cfg := b.GistConfig()
	report, disc, err := core.FirstFailure(cfg)
	if err != nil {
		t.Fatalf("discover failure: %v", err)
	}
	res, err := core.RunFromReport(cfg, report, disc)
	if err != nil {
		t.Fatalf("batch run: %v", err)
	}
	want, err := res.Sketch.MarshalIndentJSON()
	if err != nil {
		t.Fatal(err)
	}

	srv := service.NewServer(service.Options{
		LeaseTTL:         2 * time.Second,
		PollTimeout:      200 * time.Millisecond,
		SketchCacheBytes: 1, // force the reload path on every fetch
	})
	defer srv.Close()
	transport := service.LoopbackTransport{Handler: srv.Handler()}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		a, err := agent.New(agent.Config{
			Server: "http://gist", Tenant: "acme", ID: fmt.Sprintf("ep-%d", i),
			Poll: 100 * time.Millisecond, Transport: transport, Sleep: func(time.Duration) {},
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
		BaseURL: "http://gist", Tenant: "acme", Actor: "cli",
		Transport: transport, Sleep: func(time.Duration) {},
	})

	// The novel report launches the campaign; concurrent duplicates
	// race it and must all fold without perturbing a byte.
	var sub service.SubmitResponse
	req := &service.SubmitRequest{Tenant: "acme", Bug: bug, Report: report, Seed: 7, DiscoveryRuns: disc}
	if err := cli.Call(ctx, service.PathSubmit, req, &sub); err != nil {
		t.Fatalf("submit: %v", err)
	}
	if sub.Duplicate || sub.Signature != report.ID() {
		t.Fatalf("novel submit: %+v", sub)
	}
	var dupWG sync.WaitGroup
	for i := 0; i < 4; i++ {
		dupWG.Add(1)
		go func(i int) {
			defer dupWG.Done()
			d := service.NewClient(service.ClientOptions{
				BaseURL: "http://gist", Tenant: "acme", Actor: fmt.Sprintf("dup-%d", i),
				Transport: transport, Sleep: func(time.Duration) {},
			})
			for j := 0; j < 5; j++ {
				var r service.SubmitResponse
				dup := &service.SubmitRequest{Tenant: "acme", Bug: bug, Report: report, Seed: int64(100 + i*10 + j), DiscoveryRuns: disc}
				if err := d.Call(ctx, service.PathSubmit, dup, &r); err != nil {
					t.Errorf("dup submit: %v", err)
					return
				}
				if !r.Duplicate {
					t.Errorf("recurrence launched a campaign: %+v", r)
				}
			}
		}(i)
	}
	dupWG.Wait()

	if !srv.WaitCampaignSig("acme", bug, report.ID()) {
		t.Fatal("campaign vanished")
	}

	// Fetch twice: with a 1-byte cache both fetches re-render from the
	// checkpoint store, and both must match the batch bytes exactly.
	for fetch := 0; fetch < 2; fetch++ {
		var sk service.SketchResponse
		skReq := &service.SketchRequest{Tenant: "acme", Bug: bug, Signature: report.ID()}
		if err := cli.Call(ctx, service.PathSketch, skReq, &sk); err != nil {
			t.Fatalf("sketch fetch %d: %v", fetch, err)
		}
		if !sk.Ready {
			t.Fatalf("fetch %d: sketch not ready", fetch)
		}
		if !bytes.Equal(sk.Sketch, want) {
			t.Errorf("fetch %d: streamed sketch differs from batch run\nstream:\n%s\nbatch:\n%s", fetch, sk.Sketch, want)
		}
	}

	c, _ := srv.Snapshot()
	if c.SketchReloads < 2 {
		t.Errorf("SketchReloads = %d, want >= 2 (1-byte cache must force the store-reload path)", c.SketchReloads)
	}
	if c.NovelSignatures != 1 || c.FoldedReports != 20 {
		t.Errorf("ingest counters: novel=%d folded=%d, want 1/20", c.NovelSignatures, c.FoldedReports)
	}
	ist := srv.IngestStats()
	if ist.Reports != 21 || ist.Novel != 1 || ist.Folded != 20 {
		t.Errorf("frontend stats: %+v", ist)
	}
}
