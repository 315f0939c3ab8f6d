// Command gist runs the failure-sketching pipeline on one of the bugs in
// the evaluation suite and prints the resulting failure sketch, exactly
// the artifact the paper's Figs. 1, 7 and 8 show.
//
// Usage:
//
//	gist -list
//	gist -bug pbzip2
//	gist -bug apache-3 -sigma0 4 -features cf,df -v
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/bugs"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/service"
	"repro/internal/service/agent"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/supervise"
	"repro/internal/telemetry"
)

func main() {
	var (
		list     = flag.Bool("list", false, "list the bugs in the suite")
		bugName  = flag.String("bug", "", "bug to diagnose (see -list)")
		sigma0   = flag.Int("sigma0", 2, "initial tracked-slice size in statements")
		features = flag.String("features", "static,cf,df", "comma-separated tracking features: static,cf,df,extpt")
		verbose  = flag.Bool("v", false, "print per-iteration details")
		noOracle = flag.Bool("full", false, "run AsT to completion instead of stopping at the developer oracle")
		asJSON   = flag.Bool("json", false, "emit the sketch as JSON instead of text")

		workers    = flag.Int("workers", 0, "fleet worker-pool width (0 = GOMAXPROCS); the diagnosis is byte-identical for any value")
		engineName = flag.String("engine", "bytecode", "execution engine for production runs: bytecode or interp; the diagnosis is byte-identical on either")
		maxIters   = flag.Int("max-iters", 0, "cap on AsT iterations this process runs (0 = library default); with -checkpoint-dir the boundary state is checkpointed so a later -resume continues")
		ckptDir    = flag.String("checkpoint-dir", "", "durably checkpoint the campaign to this directory after every AsT iteration (checksummed, generation-numbered), running it under the self-healing supervisor: panic recovery, per-step watchdog, restart from the last good checkpoint, circuit breaker; the diagnosis is byte-identical with or without checkpointing")
		resume     = flag.Bool("resume", false, "restore the campaign from the newest valid checkpoint generation in -checkpoint-dir instead of starting from discovery, continuing the diagnosis byte-for-byte")
		ckptFsync  = flag.Bool("ckpt-fsync", true, "fsync checkpoint files and their directory before publishing (false trades durability of the newest generation for speed)")
		iterDelay  = flag.Duration("iter-delay", 0, "sleep this long between AsT iteration boundaries (widens the kill window for crash-recovery testing)")
		faultRate  = flag.Float64("fault-rate", 0, "composite fleet fault rate in [0,1] spread across all fault classes (0 = reliable fleet)")
		faultSeed  = flag.Int64("fault-seed", 1, "fault-injector seed (diagnoses are deterministic per seed)")
		deadline   = flag.Int64("run-deadline", 0, "per-run step deadline applied by the server (0 = off)")

		traceOut    = flag.String("trace-out", "", "write a JSONL phase-span event log to this file")
		metricsJSON = flag.String("metrics-json", "", "write a metrics snapshot (phases, counters, runtime stats) to this file on exit")
		pprofAddr   = flag.String("pprof-addr", "", "serve net/http/pprof on this address (e.g. localhost:6060) and sample runtime stats periodically")

		serveMode   = flag.Bool("serve", false, "run the diagnosis service: accept failure reports, schedule campaigns, stream tracking plans to agents, collect traces, serve sketches")
		listen      = flag.String("listen", "127.0.0.1:8443", "with -serve: address to listen on (host:port)")
		stateDir    = flag.String("state-dir", "state", "with -serve: checkpoint root directory (one subdirectory per tenant)")
		lease       = flag.Duration("lease", 10*time.Second, "with -serve: task lease TTL before a silent agent's work is reassigned")
		pollTimeout = flag.Duration("poll-timeout", 5*time.Second, "with -serve: cap on how long an agent long-poll is held open")

		coordMode = flag.Bool("coordinator", false, "with -serve: run coordinator-only — place campaigns on the shard worker fleet sharing -state-dir instead of diagnosing in-process")
		shards    = flag.Int("shards", 1, "shard fleet size (with -serve -coordinator, or -worker)")
		workerID  = flag.Int("worker-id", 0, "with -worker: this worker's 1-based id in 1..-shards")

		ingestCacheBytes = flag.Int64("ingest-cache-bytes", 0, "with -serve: sketch LRU cache budget in bytes (0 = default 8 MiB); evicted sketches re-render from the checkpoint store on demand")

		tenantRPS    = flag.Float64("tenant-rps", 0, "with -serve: per-tenant submit rate limit in reports/sec, shed with 429 + Retry-After beyond it (0 = unlimited)")
		tenantBurst  = flag.Int("tenant-burst", 0, "with -serve: per-tenant token-bucket burst size (0 = default 2x -tenant-rps)")
		maxInflight  = flag.Int("max-inflight", 0, "with -serve: cap on concurrently running campaigns; novel launches beyond it queue up to -launch-budget (0 = uncapped)")
		launchBudget = flag.Int("launch-budget", 0, "with -serve: max novel launches queued behind -max-inflight before shedding with 429 (0 = default 4x max-inflight)")
		hedgeAfter   = flag.Duration("hedge-after", 0, "with -serve: speculatively re-dispatch a leased task running longer than max(this, observed p95); first valid upload wins (0 = hedging off)")
		drainWait    = flag.Duration("drain-wait", 30*time.Second, "with -serve: how long SIGINT/SIGTERM waits for in-flight campaigns to finish or checkpoint before exiting")
		subDeadline  = flag.Duration("deadline", 0, "with -submit: end-to-end diagnosis deadline propagated to the server and its agents (0 = none)")

		workerMode  = flag.Bool("worker", false, "run as a shard fleet worker: claim campaigns assigned under the shared -state-dir, drive them to completion, publish sketches")
		agentMode   = flag.Bool("agent", false, "run as an endpoint agent: long-poll -server for tracking tasks, execute runs, upload traces")
		serverURL   = flag.String("server", "", "with -agent or -submit: diagnosis server base URL, e.g. http://127.0.0.1:8443")
		tenant      = flag.String("tenant", "default", "tenant label (serve/agent/submit modes)")
		agentID     = flag.String("agent-id", "", "with -agent: agent identifier (default agent-<pid>)")
		agentPoll   = flag.Duration("agent-poll", 2*time.Second, "with -agent: long-poll wait per request")
		rpcDeadline = flag.Duration("rpc-deadline", 30*time.Second, "with -agent or -submit: per-RPC attempt deadline (must exceed -agent-poll)")

		submitMode = flag.Bool("submit", false, "submit -bug to -server, wait for the diagnosis, and print the sketch JSON (byte-identical to a local -full -json run)")
		tfRate     = flag.Float64("transport-fault-rate", 0, "injected transport fault rate in [0,1]: drop/delay/duplicate/corrupt/disconnect at the codec boundary")
		tfSeed     = flag.Int64("transport-fault-seed", 1, "transport fault-injector seed (fault streams are deterministic per seed)")
	)
	flag.Parse()

	// Out-of-range flags used to flow unvalidated into the fault
	// injector and the worker pool; reject them before any work starts.
	fatalf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "gist: "+format+"\n", args...)
		os.Exit(2)
	}
	if *faultRate < 0 || *faultRate > 1 {
		fatalf("-fault-rate %g outside [0,1]", *faultRate)
	}
	engine, err := core.ParseEngine(*engineName)
	if err != nil {
		fatalf("-engine: %v", err)
	}
	if *workers < 0 {
		fatalf("-workers %d is negative (0 means GOMAXPROCS)", *workers)
	}
	if *sigma0 < 1 {
		fatalf("-sigma0 %d must be at least 1", *sigma0)
	}
	if *deadline < 0 {
		fatalf("-run-deadline %d is negative (0 means off)", *deadline)
	}
	if *maxIters < 0 {
		fatalf("-max-iters %d is negative (0 means library default)", *maxIters)
	}
	if *resume && *ckptDir == "" {
		fatalf("-resume needs -checkpoint-dir to load the checkpoint from")
	}
	if *iterDelay < 0 {
		fatalf("-iter-delay %v is negative", *iterDelay)
	}
	if *tfRate < 0 || *tfRate > 1 {
		fatalf("-transport-fault-rate %g outside [0,1]", *tfRate)
	}

	// Service modes. Each validates its flag set up front (exit 2 naming
	// the flag) and runs to completion without touching the in-process
	// diagnosis path below.
	modes := 0
	for _, on := range []bool{*serveMode, *agentMode, *submitMode, *workerMode} {
		if on {
			modes++
		}
	}
	if modes > 1 {
		fatalf("-serve, -agent, -submit, and -worker are mutually exclusive")
	}
	if *coordMode && !*serveMode {
		fatalf("-coordinator requires -serve")
	}
	if *serveMode {
		sf := service.ServeFlags{
			Listen:             *listen,
			StateDir:           *stateDir,
			Lease:              *lease,
			PollTimeout:        *pollTimeout,
			TransportFaultRate: *tfRate,
			IngestCacheBytes:   *ingestCacheBytes,
			TenantRPS:          *tenantRPS,
			TenantBurst:        *tenantBurst,
			MaxInflight:        *maxInflight,
			LaunchBudget:       *launchBudget,
			HedgeAfter:         *hedgeAfter,
		}
		if err := sf.Validate(); err != nil {
			fatalf("%v", err)
		}
		if *drainWait < 0 {
			fatalf("-drain-wait %v is negative", *drainWait)
		}
		var fleet *shard.Flags
		if *coordMode {
			wf := shard.Flags{Shards: *shards, StateDir: *stateDir, Lease: *lease}
			if err := wf.Validate(); err != nil {
				fatalf("%v", err)
			}
			fleet = &wf
		}
		runServe(sf, fleet, *ckptFsync, *drainWait, fatalf)
		return
	}
	if *workerMode {
		wf := shard.Flags{
			Shards:   *shards,
			WorkerID: *workerID,
			Worker:   true,
			StateDir: *stateDir,
			Lease:    *lease,
		}
		if err := wf.Validate(); err != nil {
			fatalf("%v", err)
		}
		runWorker(wf, *workers, *ckptFsync, *iterDelay, fatalf)
		return
	}
	if *agentMode {
		id := *agentID
		if id == "" {
			id = fmt.Sprintf("agent-%d", os.Getpid())
		}
		af := service.AgentFlags{
			Server:             *serverURL,
			Tenant:             *tenant,
			AgentID:            id,
			AgentPoll:          *agentPoll,
			RPCDeadline:        *rpcDeadline,
			TransportFaultRate: *tfRate,
		}
		if err := af.Validate(); err != nil {
			fatalf("%v", err)
		}
		runAgent(af, *tfSeed, fatalf)
		return
	}
	if *submitMode {
		af := service.AgentFlags{
			Server:             *serverURL,
			Tenant:             *tenant,
			AgentID:            "submitter",
			AgentPoll:          *agentPoll,
			RPCDeadline:        *rpcDeadline,
			TransportFaultRate: *tfRate,
		}
		if err := af.Validate(); err != nil {
			fatalf("%v", err)
		}
		if bugs.ByName(*bugName) == nil {
			fatalf("unknown bug %q (use -list)", *bugName)
		}
		if *subDeadline < 0 {
			fatalf("-deadline %v is negative (0 means none)", *subDeadline)
		}
		runSubmit(af, *bugName, *tfSeed, *subDeadline)
		return
	}

	if *list {
		fmt.Println("bug            software      class")
		for _, b := range bugs.All() {
			fmt.Printf("%-14s %-13s %s\n", b.Name, b.Software, b.Class)
		}
		return
	}
	b := bugs.ByName(*bugName)
	if b == nil {
		fmt.Fprintf(os.Stderr, "gist: unknown bug %q (use -list)\n", *bugName)
		os.Exit(2)
	}

	feats := parseFeatures(*features)
	cfg := b.GistConfig()
	cfg.Features = feats
	cfg.Sigma0 = *sigma0
	cfg.Workers = *workers
	if !*noOracle {
		cfg.StopWhen = experiments.DeveloperOracle(b)
	}
	if *faultRate > 0 {
		cfg.Faults = faults.Composite(*faultSeed, *faultRate)
	}
	cfg.RunDeadlineSteps = *deadline
	cfg.MaxIters = *maxIters
	cfg.Engine = engine

	// Telemetry observes the pipeline; the diagnosis is byte-identical
	// with or without it.
	var tel *telemetry.Tracer
	if *traceOut != "" {
		t, closeTrace, err := telemetry.OpenTrace(*traceOut)
		if err != nil {
			fatalf("%v", err)
		}
		tel = t
		defer func() {
			if err := closeTrace(); err != nil {
				fmt.Fprintf(os.Stderr, "gist: trace-out: %v\n", err)
			}
		}()
	} else if *metricsJSON != "" || *pprofAddr != "" {
		tel = telemetry.New()
	}
	cfg.Telemetry = tel

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "gist: pprof: %v\n", err)
			}
		}()
		stop := tel.StartRuntimeSampler(time.Second)
		defer stop()
	}
	// Flag-gated exit hook, not a defer: the -json path exits through
	// os.Exit on marshal errors, and the snapshot should land either way.
	writeMetrics := func() {
		if *metricsJSON == "" {
			return
		}
		if err := tel.WriteMetricsJSON(*metricsJSON); err != nil {
			fmt.Fprintf(os.Stderr, "gist: metrics-json: %v\n", err)
		}
	}

	res, err, drained := diagnose(cfg, b.Name, runOpts{
		ckptDir:   *ckptDir,
		resume:    *resume,
		fsync:     *ckptFsync,
		iterDelay: *iterDelay,
		tel:       tel,
	}, fatalf)
	writeMetrics()
	if drained {
		fmt.Fprintln(os.Stderr, "gist: drained: campaign checkpointed; continue with -resume")
		os.Exit(3)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "gist: %v\n", err)
		if res == nil || res.Sketch == nil {
			os.Exit(1)
		}
	}

	if *asJSON {
		data, err := res.Sketch.MarshalIndentJSON()
		if err != nil {
			fmt.Fprintf(os.Stderr, "gist: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(string(data))
		return
	}

	fmt.Printf("Failure report: %s\n", res.Report.Kind)
	fmt.Printf("Static slice: %d statements (%d IR instructions)\n",
		res.Slice.LineCount(), res.Slice.InstrCount())
	fmt.Printf("Failure recurrences used: %d across %d production runs (first failure after %d runs)\n",
		res.FailureRecurrences, res.TotalRuns, res.DiscoveryRuns)
	fmt.Printf("Average client overhead: %.2f%%\n", res.AvgOverheadPct)
	if res.Health.Degraded() {
		fmt.Printf("Fleet health: %s\n", res.Health)
	}
	fmt.Println()

	if *verbose {
		for i, it := range res.Iters {
			fmt.Printf("iteration %d: sigma=%d tracked=%d instrs, %d failing / %d successful runs, overhead %.2f%%, +%d refined\n",
				i+1, it.Sigma, it.TrackedInstrs, it.Failing, it.Successful, it.OverheadPct, len(it.AddedInstrs))
			if it.Health.Degraded() {
				fmt.Printf("             health: %s\n", it.Health)
			}
		}
		fmt.Println()
	}

	fmt.Println(res.Sketch.Render())

	rel, ord, overall := res.Sketch.Accuracy(b.Ideal())
	fmt.Printf("Accuracy vs. hand-written ideal sketch: relevance %.1f%%, ordering %.1f%%, overall %.1f%%\n",
		rel, ord, overall)
	fmt.Printf("\nHow developers fixed it: %s\n", b.Fix)
}

// runServe runs the diagnosis service until SIGINT/SIGTERM. Checkpoints
// land on the real filesystem under -state-dir (one subdirectory per
// tenant), so a restarted server resumes a resubmitted report's
// campaign from its last durable generation.
//
// Shutdown mirrors the -checkpoint-dir drain contract: the first signal
// stops admissions (new submits shed with 429) and asks every live
// campaign to checkpoint at its next iteration boundary, while the
// listener stays open so in-flight agent uploads land; only once the
// campaigns have unwound — or -drain-wait expires — does the listener
// close. Exit 3 means resumable work was checkpointed; a restart with
// the same -state-dir continues it byte-identically.
func runServe(f service.ServeFlags, fleet *shard.Flags, fsync bool, drainWait time.Duration, fatalf func(string, ...any)) {
	opts := service.Options{
		Backend:          store.DirBackend{},
		StateRoot:        f.StateDir,
		LeaseTTL:         f.Lease,
		PollTimeout:      f.PollTimeout,
		NoFsync:          !fsync,
		SketchCacheBytes: f.IngestCacheBytes,
		TenantRPS:        f.TenantRPS,
		TenantBurst:      f.TenantBurst,
		MaxInflight:      f.MaxInflight,
		LaunchBudget:     f.LaunchBudget,
		HedgeAfter:       f.HedgeAfter,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "gist: serve: "+format+"\n", args...)
		},
	}
	if fleet != nil {
		coord, err := shard.NewCoordinator(store.DirBackend{}, fleet.StateDir, fleet.Shards, !fsync)
		if err != nil {
			fatalf("-coordinator: %v", err)
		}
		opts.Placer = coord
	}
	srv := service.NewServer(opts)
	ln, err := net.Listen("tcp", f.Listen)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gist: -listen: %v\n", err)
		os.Exit(2)
	}
	hs := &http.Server{Handler: srv.Handler()}
	type drainResult struct {
		n    int
		idle bool
	}
	drained := make(chan drainResult, 1)
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigCh
		fmt.Fprintln(os.Stderr, "gist: serve: draining (shedding new submits, checkpointing campaigns)")
		srv.BeginDrain()
		n, idle := srv.DrainWait(drainWait)
		if !idle {
			fmt.Fprintf(os.Stderr, "gist: serve: drain timed out after %v with campaigns still running\n", drainWait)
		}
		drained <- drainResult{n, idle}
		hs.Close()
	}()
	if fleet != nil {
		fmt.Fprintf(os.Stderr, "gist: coordinating %d shards over %s\n", fleet.Shards, fleet.StateDir)
	}
	fmt.Fprintf(os.Stderr, "gist: serving on %s (state in %s, lease %v)\n", ln.Addr(), f.StateDir, f.Lease)
	err = hs.Serve(ln)
	srv.Close()
	if err != nil && err != http.ErrServerClosed {
		fmt.Fprintf(os.Stderr, "gist: serve: %v\n", err)
		os.Exit(1)
	}
	select {
	case r := <-drained:
		if !r.idle {
			// The drain timed out with campaigns still running; Close has
			// since unwound them to checkpoints, so recount now that the
			// campaign waitgroup is settled.
			r.n, _ = srv.DrainWait(time.Second)
		}
		if r.n > 0 || !r.idle {
			fmt.Fprintf(os.Stderr, "gist: serve: %d campaign(s) drained to checkpoints; restart with the same -state-dir to continue\n", r.n)
			os.Exit(3)
		}
	default:
	}
}

// runWorker drives one shard fleet worker until SIGINT/SIGTERM. The
// worker shares -state-dir with the coordinator and its sibling
// workers; a SIGKILLed worker's campaigns are taken over by survivors
// from the last durable checkpoint generation, byte-identically.
func runWorker(f shard.Flags, width int, fsync bool, iterDelay time.Duration, fatalf func(string, ...any)) {
	w, err := shard.NewWorker(shard.WorkerOptions{
		Backend:    store.DirBackend{},
		Root:       f.StateDir,
		ID:         fmt.Sprintf("w%d", f.WorkerID),
		Index:      f.WorkerID - 1,
		Shards:     f.Shards,
		LeaseTTL:   f.Lease,
		Width:      width,
		NoFsync:    !fsync,
		RoundDelay: iterDelay,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "gist: worker: "+format+"\n", args...)
		},
	})
	if err != nil {
		fatalf("-worker: %v", err)
	}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	fmt.Fprintf(os.Stderr, "gist: worker w%d of %d shard(s) over %s (lease %v)\n",
		f.WorkerID, f.Shards, f.StateDir, f.Lease)
	if err := w.Run(ctx, 0); err != nil && ctx.Err() == nil {
		fmt.Fprintf(os.Stderr, "gist: worker: %v\n", err)
		os.Exit(1)
	}
	st := w.Stats()
	fmt.Fprintf(os.Stderr, "gist: worker w%d: %d campaign(s) (%d finished, %d resumed, %d takeovers, %d lost leases), %d runs\n",
		f.WorkerID, st.Campaigns, st.Finished, st.Resumed, st.Takeovers, st.LostLeases, st.Runs)
}

// runAgent serves tasks until SIGINT/SIGTERM.
func runAgent(f service.AgentFlags, tfSeed int64, fatalf func(string, ...any)) {
	cfg := agent.Config{
		Server:      f.Server,
		Tenant:      f.Tenant,
		ID:          f.AgentID,
		Poll:        f.AgentPoll,
		RPCDeadline: f.RPCDeadline,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "gist: agent: "+format+"\n", args...)
		},
	}
	if f.TransportFaultRate > 0 {
		cfg.Faults = faults.Transport(tfSeed, f.TransportFaultRate)
	}
	ag, err := agent.New(cfg)
	if err != nil {
		fatalf("%v", err)
	}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	fmt.Fprintf(os.Stderr, "gist: agent %s polling %s as tenant %s\n", f.AgentID, f.Server, f.Tenant)
	if err := ag.Run(ctx); err != nil && ctx.Err() == nil {
		fmt.Fprintf(os.Stderr, "gist: agent: %v\n", err)
		os.Exit(1)
	}
}

// runSubmit submits one failure report, waits for the diagnosis, and
// prints the sketch JSON exactly as the server shipped it. The server
// runs campaigns to completion (no developer oracle), so the output is
// byte-identical to a local `gist -bug X -full -json` run.
func runSubmit(f service.AgentFlags, bug string, tfSeed int64, deadline time.Duration) {
	opts := service.ClientOptions{
		BaseURL:  f.Server,
		Tenant:   f.Tenant,
		Actor:    f.AgentID,
		Deadline: f.RPCDeadline,
	}
	if f.TransportFaultRate > 0 {
		opts.Faults = faults.Transport(tfSeed, f.TransportFaultRate)
	}
	cli := service.NewClient(opts)
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	die := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "gist: submit: "+format+"\n", args...)
		os.Exit(1)
	}
	if err := cli.Call(ctx, service.PathSubmit, &service.SubmitRequest{
		Tenant:     f.Tenant,
		Bug:        bug,
		DeadlineMs: deadline.Milliseconds(),
	}, nil); err != nil {
		die("%v", err)
	}
	var st service.StatusResponse
	for {
		if err := cli.Call(ctx, service.PathStatus, &service.StatusRequest{Tenant: f.Tenant, Bug: bug}, &st); err != nil {
			die("%v", err)
		}
		if st.State == service.StateDone || st.State == service.StateFailed {
			break
		}
		select {
		case <-ctx.Done():
			die("interrupted while %s", st.State)
		case <-time.After(500 * time.Millisecond):
		}
	}
	if st.State == service.StateFailed {
		die("diagnosis failed: %s", st.Err)
	}
	if st.LowConfidence {
		fmt.Fprintf(os.Stderr, "gist: submit: low-confidence sketch (degraded fleet, %d restarts)\n", st.Restarts)
	}
	var sk service.SketchResponse
	if err := cli.Call(ctx, service.PathSketch, &service.SketchRequest{Tenant: f.Tenant, Bug: bug}, &sk); err != nil {
		die("%v", err)
	}
	if !sk.Ready {
		die("campaign finished but no sketch is available")
	}
	fmt.Println(string(sk.Sketch))
}

// runOpts carries the durability knobs into diagnose.
type runOpts struct {
	ckptDir   string
	resume    bool
	fsync     bool
	iterDelay time.Duration
	tel       *telemetry.Tracer
}

// diagnose runs the pipeline. With -checkpoint-dir (or -iter-delay) the
// campaign runs under the self-healing supervisor, which checkpoints
// through the durable store: after every AsT iteration boundary the
// snapshot is framed (checksummed), written to a temp file, fsynced,
// renamed into place, and the directory fsynced — so a kill at any
// instant leaves either the previous generation or the new one, never a
// silently torn checkpoint. SIGINT/SIGTERM drain the campaign to a
// checkpoint instead of killing it (exit 3).
func diagnose(cfg core.Config, bugName string, opts runOpts, fatalf func(string, ...any)) (*core.Result, error, bool) {
	if opts.ckptDir == "" && opts.iterDelay == 0 {
		res, err := core.Run(cfg)
		return res, err, false
	}

	var st *store.Store
	if opts.ckptDir != "" {
		var err error
		st, err = store.Open(opts.ckptDir, bugName, store.Options{
			NoFsync:   !opts.fsync,
			Telemetry: opts.tel,
			Label:     bugName,
		})
		if err != nil {
			fatalf("-checkpoint-dir: %v", err)
		}
	}

	// -resume is resume-or-fail; without it the campaign starts from
	// discovery even when the directory holds older generations.
	sup := supervise.New(cfg.Workers, supervise.Config{Telemetry: opts.tel})
	var slot int
	var err error
	if opts.resume {
		slot, _, err = sup.Adopt(cfg, st, nil)
	} else {
		var camp *core.Campaign
		if camp, err = core.NewCampaign(cfg, nil, 0); err != nil {
			return nil, err, false
		}
		slot, err = sup.Add(cfg, camp, st)
	}
	if st != nil {
		qs := st.Quarantined()
		for _, q := range qs {
			fmt.Fprintf(os.Stderr, "gist: checkpoint quarantined: %s: %v\n", q.From, q.Reason)
		}
		if errors.Is(err, supervise.ErrNoCheckpoint) {
			msg := fmt.Sprintf("-resume: no valid checkpoint generation for %q in %s", bugName, st.Dir())
			if len(qs) > 0 {
				last := qs[len(qs)-1]
				msg += fmt.Sprintf(" (newest candidate %s quarantined: %v)", last.From, last.Reason)
			}
			fatalf("%s", msg)
		}
	}
	if err != nil {
		fatalf("%v", err)
	}
	if opts.iterDelay > 0 {
		sup.SetStepFault(slot, func(int) supervise.StepFault {
			time.Sleep(opts.iterDelay)
			return supervise.StepNone
		})
	}

	// Drain on SIGINT/SIGTERM: the campaign is checkpointed at the next
	// iteration boundary and the process exits 3 instead of losing the
	// in-flight diagnosis.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	go func() {
		<-sigCh
		sup.RequestDrain()
	}()
	out := sup.Run()[slot]
	if out.Drained {
		return nil, nil, true
	}
	if out.BreakerTripped {
		fmt.Fprintf(os.Stderr, "gist: supervisor circuit breaker tripped after %d restarts; serving the last checkpoint as a low-confidence diagnosis\n", out.Restarts)
	}
	return out.Result, out.Err, false
}

func parseFeatures(s string) core.Features {
	var f core.Features
	for _, part := range strings.Split(s, ",") {
		switch strings.TrimSpace(part) {
		case "static":
			f.Static = true
		case "cf", "controlflow", "control-flow":
			f.ControlFlow = true
		case "df", "dataflow", "data-flow":
			f.DataFlow = true
		case "extpt", "ptwrite", "extended-pt":
			f.ControlFlow = true
			f.DataFlow = true
			f.ExtendedPT = true
		case "":
		default:
			fmt.Fprintf(os.Stderr, "gist: unknown feature %q\n", part)
			os.Exit(2)
		}
	}
	return f
}
