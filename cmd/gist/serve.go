package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/service"
	"repro/internal/shard"
	"repro/internal/store"
)

// serveConfig is what `gist serve` runs on: the server's options, and
// what the process around the server needs.
type serveConfig struct {
	opts      service.Options
	listen    string
	shards    int // > 0: coordinator-only over that many shard workers
	drainWait time.Duration
}

func parseServe(fs *flag.FlagSet, args []string) (*serveConfig, error) {
	c := &serveConfig{opts: service.Options{Backend: store.DirBackend{}}}
	o := &c.opts
	fs.StringVar(&c.listen, "listen", "127.0.0.1:8443", "address to listen on (host:port)")
	fs.StringVar(&o.StateRoot, "state-dir", "state", "checkpoint root directory (one subdirectory per tenant); with -shards, the root shared with the worker fleet")
	fs.DurationVar(&o.LeaseTTL, "lease", 10*time.Second, "task lease TTL before a silent agent's work is reassigned")
	fs.DurationVar(&o.PollTimeout, "poll-timeout", 5*time.Second, "cap on how long an agent long-poll is held open")
	fs.IntVar(&c.shards, "shards", 0, "run coordinator-only: place campaigns on a fleet of this many gist worker processes sharing -state-dir instead of diagnosing in-process (0 = in-process)")
	fs.Int64Var(&o.SketchCacheBytes, "ingest-cache-bytes", 0, "sketch LRU cache budget in bytes (0 = default 8 MiB); evicted sketches re-render from the checkpoint store on demand")
	fs.Float64Var(&o.TenantRPS, "tenant-rps", 0, "per-tenant submit rate limit in reports/sec, shed with 429 + Retry-After beyond it (0 = unlimited)")
	fs.IntVar(&o.TenantBurst, "tenant-burst", 0, "per-tenant token-bucket burst size (0 = default 2x -tenant-rps)")
	fs.IntVar(&o.MaxInflight, "max-inflight", 0, "cap on concurrently running campaigns; novel launches beyond it queue up to -launch-budget (0 = uncapped)")
	fs.IntVar(&o.LaunchBudget, "launch-budget", 0, "max novel launches queued behind -max-inflight before shedding with 429 (0 = default 4x max-inflight)")
	fs.DurationVar(&o.HedgeAfter, "hedge-after", 0, "speculatively re-dispatch a leased task running longer than max(this, observed p95); first valid upload wins (0 = hedging off)")
	fs.DurationVar(&c.drainWait, "drain-wait", 30*time.Second, "how long SIGINT/SIGTERM waits for in-flight campaigns to finish or checkpoint before exiting")
	fsync := fsyncFlag(fs)
	if err := parseArgs(fs, args); err != nil {
		return nil, err
	}
	o.NoFsync = !*fsync
	switch {
	case c.shards < 0:
		return nil, fmt.Errorf("-shards %d must be >= 0 (0 = diagnose in-process)", c.shards)
	case c.drainWait < 0:
		return nil, fmt.Errorf("-drain-wait %v is negative", c.drainWait)
	}
	if err := service.ValidateListen(c.listen); err != nil {
		return nil, err
	}
	return c, o.Validate()
}

// runServe runs the diagnosis service until SIGINT/SIGTERM. Checkpoints
// land on the real filesystem under -state-dir (one subdirectory per
// tenant), so a restarted server resumes a resubmitted report's
// campaign from its last durable generation.
//
// Shutdown mirrors the `diagnose -checkpoint-dir` drain contract: the
// first signal stops admissions (new submits shed with 429) and asks
// every live campaign to checkpoint at its next iteration boundary,
// while the listener stays open so in-flight agent uploads land; only
// once the campaigns have unwound — or -drain-wait expires — does the
// listener close. Exit 3 means resumable work was checkpointed; a
// restart with the same -state-dir continues it byte-identically.
func runServe(c *serveConfig, _, stderr io.Writer) int {
	c.opts.Logf = logf(stderr, "serve")
	if c.shards > 0 {
		coord, err := shard.NewCoordinator(c.opts.Backend, c.opts.StateRoot, c.shards, c.opts.NoFsync)
		if err != nil {
			return failf(stderr, 2, "-shards: %v", err)
		}
		c.opts.Placer = coord
		say(stderr, "coordinating %d shards over %s", c.shards, c.opts.StateRoot)
	}
	srv := service.NewServer(c.opts)
	ln, err := net.Listen("tcp", c.listen)
	if err != nil {
		return failf(stderr, 2, "-listen: %v", err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	drained := make(chan bool, 1) // receives whether the drain went idle in time
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigCh
		say(stderr, "serve: draining (shedding new submits, checkpointing campaigns)")
		srv.BeginDrain()
		_, idle := srv.DrainWait(c.drainWait)
		if !idle {
			say(stderr, "serve: drain timed out after %v with campaigns still running", c.drainWait)
		}
		drained <- idle
		hs.Close()
	}()
	say(stderr, "serving on %s (state in %s, lease %v)", ln.Addr(), c.opts.StateRoot, c.opts.LeaseTTL)
	err = hs.Serve(ln)
	srv.Close()
	if err != nil && err != http.ErrServerClosed {
		return failf(stderr, 1, "serve: %v", err)
	}
	select {
	case idle := <-drained:
		// Close has unwound to checkpoints whatever a timed-out drain left
		// running, so the campaign waitgroup is settled: count now.
		if n, _ := srv.DrainWait(time.Second); n > 0 || !idle {
			return failf(stderr, 3, "serve: %d campaign(s) drained to checkpoints; restart with the same -state-dir to continue", n)
		}
	default:
	}
	return 0
}

func parseWorker(fs *flag.FlagSet, args []string) (shard.WorkerOptions, error) {
	var o shard.WorkerOptions
	id := fs.Int("worker-id", 0, "this worker's 1-based id in 1..-shards")
	fs.IntVar(&o.Shards, "shards", 1, "shard fleet size (the coordinator's serve -shards)")
	fs.StringVar(&o.Root, "state-dir", "state", "the fleet's shared root (the coordinator's -state-dir)")
	fs.DurationVar(&o.LeaseTTL, "lease", 10*time.Second, "campaign ownership lease TTL; an unrenewed lease lets a sibling take the campaign over")
	fs.IntVar(&o.Width, "workers", 0, "fleet worker-pool width (0 = GOMAXPROCS); the diagnosis is byte-identical for any value")
	fsync := fsyncFlag(fs)
	fs.DurationVar(&o.RoundDelay, "iter-delay", 0, "sleep this long after every round that stepped a campaign (widens the kill window for crash-recovery testing)")
	if err := parseArgs(fs, args); err != nil {
		return o, err
	}
	o.Index, o.NoFsync = *id-1, !*fsync // NewWorker names the worker "w<id>"
	return o, o.Validate()
}

// runWorker drives one shard fleet worker until SIGINT/SIGTERM. The
// worker shares -state-dir with the coordinator and its sibling
// workers; a SIGKILLed worker's campaigns are taken over by survivors
// from the last durable checkpoint generation, byte-identically.
func runWorker(o shard.WorkerOptions, _, stderr io.Writer) int {
	o.Logf = logf(stderr, "worker")
	w, err := shard.NewWorker(o)
	if err != nil {
		return failf(stderr, 2, "worker: %v", err)
	}
	ctx, stop := interrupted()
	defer stop()
	say(stderr, "worker %s of %d shard(s) over %s (lease %v)", w.ID(), o.Shards, o.Root, o.LeaseTTL)
	if err := w.Run(ctx, 0); err != nil && ctx.Err() == nil {
		return failf(stderr, 1, "worker: %v", err)
	}
	st := w.Stats()
	say(stderr, "worker %s: %d campaign(s) (%d finished, %d resumed, %d takeovers, %d lost leases), %d runs",
		w.ID(), st.Campaigns, st.Finished, st.Resumed, st.Takeovers, st.LostLeases, st.Runs)
	return 0
}
