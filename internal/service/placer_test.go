package service_test

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/shard"
	"repro/internal/store"
)

// TestCoordinatorModeSketchesByteIdentical is the split-role proof: a
// coordinator-only server places submitted campaigns on the shard
// fleet, a worker process (in-process here, over the same shared
// backend a fleet would use) drives the diagnosis, and the sketch the
// server hands back over the wire is byte-identical to an in-process
// run — the submit/status/sketch surface cannot tell which process
// diagnosed the bug.
func TestCoordinatorModeSketchesByteIdentical(t *testing.T) {
	const bug = "pbzip2"
	want := inProcessSketch(t, bug)

	b := store.NewMemBackend()
	coord, err := shard.NewCoordinator(b, "fleet", 2, true)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	srv := service.NewServer(service.Options{
		Placer: coord,
	})
	defer srv.Close()
	transport := service.LoopbackTransport{Handler: srv.Handler()}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		w, err := shard.NewWorker(shard.WorkerOptions{
			Backend: b, Root: "fleet",
			Index: i, Shards: 2, Width: 1, NoFsync: true,
		})
		if err != nil {
			t.Fatalf("NewWorker %d: %v", i, err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(ctx, 5*time.Millisecond)
		}()
	}
	defer wg.Wait()
	defer cancel()

	cli := service.NewClient(service.ClientOptions{
		BaseURL:   "http://gist",
		Tenant:    "acme",
		Actor:     "cli",
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
	if !bytes.Equal(sk.Sketch, want) {
		t.Errorf("coordinator-mode sketch differs from in-process run\nfleet:\n%s\nin-process:\n%s", sk.Sketch, want)
	}

	// The fleet's done record carries the same bytes durably.
	rec, err := coord.Done("acme", bug)
	if err != nil || rec == nil {
		t.Fatalf("done record: %+v, %v", rec, err)
	}
	if !bytes.Equal(rec.Sketch, want) {
		t.Errorf("done record sketch differs from in-process run")
	}
}

// TestCoordinatorModeSurfacesWorkerFailure pins the failure path: when
// the owning worker cannot build the placed campaign, it publishes a
// done record carrying the error, and the coordinator must surface the
// campaign as failed with that error — not hang the submitter.
func TestCoordinatorModeSurfacesWorkerFailure(t *testing.T) {
	const bug = "pbzip2"
	b := store.NewMemBackend()
	coord, err := shard.NewCoordinator(b, "fleet", 1, true)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	srv := service.NewServer(service.Options{
		Placer: coord,
	})
	defer srv.Close()
	transport := service.LoopbackTransport{Handler: srv.Handler()}

	w, err := shard.NewWorker(shard.WorkerOptions{
		Backend: b, Root: "fleet", Shards: 1, Width: 1, NoFsync: true,
		ConfigFor: func(string) (core.Config, error) {
			return core.Config{}, errors.New("bug corpus not installed on this host")
		},
	})
	if err != nil {
		t.Fatalf("NewWorker: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w.Run(ctx, 5*time.Millisecond)
	}()
	defer wg.Wait()
	defer cancel()

	cli := service.NewClient(service.ClientOptions{
		BaseURL:   "http://gist",
		Tenant:    "acme",
		Actor:     "cli",
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
	if st.State != service.StateFailed {
		t.Fatalf("campaign state = %q, want failed", st.State)
	}
	if !strings.Contains(st.Err, "bug corpus not installed") {
		t.Errorf("campaign error %q does not carry the worker's error", st.Err)
	}
}
