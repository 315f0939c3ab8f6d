package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"strings"
	"time"

	"repro/internal/bugs"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/store"
	"repro/internal/supervise"
	"repro/internal/telemetry"
)

// diagnoseConfig is what `gist diagnose` runs on: the campaign
// configuration the flags are bound into, and the knobs that belong to
// this command rather than to the campaign.
type diagnoseConfig struct {
	bug *bugs.Bug
	cfg core.Config

	full, verbose, asJSON bool
	faultRate             float64
	faultSeed             int64

	ckptDir   string
	resume    bool
	noFsync   bool
	iterDelay time.Duration

	traceOut, metricsJSON, pprofAddr string
}

func parseDiagnose(fs *flag.FlagSet, args []string) (*diagnoseConfig, error) {
	c := &diagnoseConfig{}
	fs.Func("bug", "bug to diagnose (see gist list)", func(name string) error {
		if c.bug = bugs.ByName(name); c.bug == nil {
			return fmt.Errorf("unknown bug %q (see gist list)", name)
		}
		return nil
	})
	fs.IntVar(&c.cfg.Sigma0, "sigma0", 2, "initial tracked-slice size in statements")
	fs.Func("features", "comma-separated tracking features: static,cf,df,extpt (default static,cf,df)", func(s string) (err error) {
		c.cfg.Features, err = parseFeatures(s)
		return err
	})
	fs.BoolVar(&c.verbose, "v", false, "print per-iteration details")
	fs.BoolVar(&c.full, "full", false, "run AsT to completion instead of stopping at the developer oracle")
	fs.BoolVar(&c.asJSON, "json", false, "emit the sketch as JSON instead of text")

	fs.IntVar(&c.cfg.Workers, "workers", 0, "fleet worker-pool width (0 = GOMAXPROCS); the diagnosis is byte-identical for any value")
	fs.IntVar(&c.cfg.MaxIters, "max-iters", 0, "cap on AsT iterations this process runs (0 = library default); with -checkpoint-dir the boundary state is checkpointed so a later -resume continues")
	fs.Int64Var(&c.cfg.RunDeadlineSteps, "run-deadline", 0, "per-run step deadline applied by the server (0 = off)")
	fs.Float64Var(&c.faultRate, "fault-rate", 0, "composite fleet fault rate in [0,1] spread across all fault classes (0 = reliable fleet)")
	fs.Int64Var(&c.faultSeed, "fault-seed", 1, "fault-injector seed (diagnoses are deterministic per seed)")

	fs.StringVar(&c.ckptDir, "checkpoint-dir", "", "durably checkpoint the campaign to this directory after every AsT iteration (checksummed, generation-numbered), running it under the self-healing supervisor: panic recovery, per-step watchdog, restart from the last good checkpoint, circuit breaker; the diagnosis is byte-identical with or without checkpointing")
	fs.BoolVar(&c.resume, "resume", false, "restore the campaign from the newest valid checkpoint generation in -checkpoint-dir instead of starting from discovery, continuing the diagnosis byte-for-byte")
	fsync := fsyncFlag(fs)
	fs.DurationVar(&c.iterDelay, "iter-delay", 0, "sleep this long between AsT iteration boundaries (widens the kill window for crash-recovery testing)")

	fs.StringVar(&c.traceOut, "trace-out", "", "write a JSONL phase-span event log to this file")
	fs.StringVar(&c.metricsJSON, "metrics-json", "", "write a metrics snapshot (phases, counters, runtime stats) to this file on exit")
	fs.StringVar(&c.pprofAddr, "pprof-addr", "", "serve net/http/pprof (live heap, goroutine and CPU profiles) on this address, e.g. localhost:6060")
	if err := parseArgs(fs, args); err != nil {
		return nil, err
	}
	// Flag-named checks; core's own Config validation, which every
	// library entry point runs, names fields and takes zero for "default".
	switch {
	case c.bug == nil:
		return nil, fmt.Errorf("-bug must name the bug to diagnose (see gist list)")
	case c.cfg.Sigma0 < 1:
		return nil, fmt.Errorf("-sigma0 %d must be at least 1", c.cfg.Sigma0)
	case c.cfg.Workers < 0:
		return nil, fmt.Errorf("-workers %d is negative (0 means GOMAXPROCS)", c.cfg.Workers)
	case c.cfg.MaxIters < 0:
		return nil, fmt.Errorf("-max-iters %d is negative (0 means library default)", c.cfg.MaxIters)
	case c.cfg.RunDeadlineSteps < 0:
		return nil, fmt.Errorf("-run-deadline %d is negative (0 means off)", c.cfg.RunDeadlineSteps)
	case c.faultRate < 0 || c.faultRate > 1:
		return nil, fmt.Errorf("-fault-rate %g outside [0,1]", c.faultRate)
	case c.resume && c.ckptDir == "":
		return nil, fmt.Errorf("-resume needs -checkpoint-dir to load the checkpoint from")
	case c.iterDelay < 0:
		return nil, fmt.Errorf("-iter-delay %v is negative", c.iterDelay)
	}
	c.noFsync = !*fsync

	// The flags set the campaign's knobs; the bug says what is diagnosed.
	id := c.bug.GistConfig()
	c.cfg.Prog, c.cfg.Title, c.cfg.WorkloadPool = id.Prog, id.Title, id.WorkloadPool
	c.cfg.SeedBase, c.cfg.PreemptMean, c.cfg.Endpoints = id.SeedBase, id.PreemptMean, id.Endpoints
	if !c.full {
		c.cfg.StopWhen = bugs.DeveloperOracle(c.bug)
	}
	if c.faultRate > 0 {
		c.cfg.Faults = faults.Composite(c.faultSeed, c.faultRate)
	}
	return c, nil
}

func parseFeatures(s string) (core.Features, error) {
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
			return f, fmt.Errorf("unknown feature %q", part)
		}
	}
	return f, nil
}

func runDiagnose(c *diagnoseConfig, stdout, stderr io.Writer) int {
	// Telemetry observes the pipeline; the diagnosis is byte-identical
	// with or without it.
	var tel *telemetry.Tracer
	if c.traceOut != "" {
		t, closeTrace, err := telemetry.OpenTrace(c.traceOut)
		if err != nil {
			return failf(stderr, 2, "%v", err)
		}
		tel = t
		defer func() {
			if err := closeTrace(); err != nil {
				say(stderr, "trace-out: %v", err)
			}
		}()
	} else if c.metricsJSON != "" {
		tel = telemetry.New()
	}
	c.cfg.Telemetry = tel
	if c.pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(c.pprofAddr, nil); err != nil {
				say(stderr, "pprof: %v", err)
			}
		}()
	}

	res, err, code := c.campaign(tel, stderr)
	if c.metricsJSON != "" {
		if err := tel.WriteMetricsJSON(c.metricsJSON); err != nil {
			say(stderr, "metrics-json: %v", err)
		}
	}
	if err != nil {
		// A degraded campaign may still have a sketch worth printing.
		say(stderr, "%v", err)
		if res == nil || res.Sketch == nil {
			return 1
		}
	}
	if code != 0 {
		return code
	}
	if c.asJSON {
		data, err := res.Sketch.MarshalIndentJSON()
		if err != nil {
			return failf(stderr, 1, "%v", err)
		}
		fmt.Fprintln(stdout, string(data))
		return 0
	}
	c.printResult(stdout, res)
	return 0
}

// campaign runs the pipeline and returns the diagnosis, or a non-zero
// exit code when it has already said why there is none: 2 for a store or
// checkpoint it cannot use, 3 once drained. With -checkpoint-dir (or
// -iter-delay) the campaign runs under the self-healing supervisor,
// which checkpoints through the durable store: after every AsT iteration
// boundary the snapshot is framed (checksummed), written to a temp file,
// fsynced, renamed into place, and the directory fsynced — so a kill at
// any instant leaves either the previous generation or the new one,
// never a silently torn checkpoint. SIGINT/SIGTERM drain the campaign to
// a checkpoint instead of killing it (exit 3).
func (c *diagnoseConfig) campaign(tel *telemetry.Tracer, stderr io.Writer) (*core.Result, error, int) {
	if c.ckptDir == "" && c.iterDelay == 0 {
		res, err := core.Run(c.cfg)
		return res, err, 0
	}

	var st *store.Store
	var err error
	if c.ckptDir != "" {
		st, err = store.Open(c.ckptDir, c.bug.Name, store.Options{NoFsync: c.noFsync, Telemetry: tel})
		if err != nil {
			return nil, nil, failf(stderr, 2, "-checkpoint-dir: %v", err)
		}
	}

	// -resume is resume-or-fail; without it the campaign starts from
	// discovery even when the directory holds older generations.
	sup := supervise.New(core.NewPool(c.cfg.Workers), supervise.Config{Telemetry: tel})
	var slot int
	if c.resume {
		slot, _, err = sup.Adopt(c.cfg, st, nil)
	} else {
		var camp *core.Campaign
		if camp, err = core.NewCampaign(c.cfg, nil, 0); err != nil {
			return nil, err, 0
		}
		slot, err = sup.Add(c.cfg, camp, st)
	}
	if st != nil {
		qs := st.Quarantined()
		for _, q := range qs {
			say(stderr, "checkpoint quarantined: %s: %v", q.From, q.Reason)
		}
		if errors.Is(err, supervise.ErrNoCheckpoint) {
			msg := fmt.Sprintf("-resume: no valid checkpoint generation for %q in %s", c.bug.Name, st.Dir())
			if len(qs) > 0 {
				last := qs[len(qs)-1]
				msg += fmt.Sprintf(" (newest candidate %s quarantined: %v)", last.From, last.Reason)
			}
			return nil, nil, failf(stderr, 2, "%s", msg)
		}
	}
	if err != nil {
		return nil, nil, failf(stderr, 2, "%v", err)
	}
	if c.iterDelay > 0 {
		sup.SetStepFault(slot, func(int) supervise.StepFault {
			time.Sleep(c.iterDelay)
			return supervise.StepNone
		})
	}

	// Drain on SIGINT/SIGTERM: the campaign is checkpointed at the next
	// iteration boundary and the process exits 3 instead of losing the
	// in-flight diagnosis.
	ctx, stop := interrupted()
	defer stop()
	defer context.AfterFunc(ctx, sup.RequestDrain)()
	out := sup.Run()[slot]
	if out.Drained {
		return nil, nil, failf(stderr, 3, "drained: campaign checkpointed; continue with -resume")
	}
	if out.BreakerTripped {
		say(stderr, "supervisor circuit breaker tripped after %d restarts; serving the last checkpoint as a low-confidence diagnosis", out.Restarts)
	}
	return out.Result, out.Err, 0
}

func (c *diagnoseConfig) printResult(w io.Writer, res *core.Result) {
	fmt.Fprintf(w, "Failure report: %s\n", res.Report.Kind)
	fmt.Fprintf(w, "Static slice: %d statements (%d IR instructions)\n",
		res.Slice.LineCount(), res.Slice.InstrCount())
	fmt.Fprintf(w, "Failure recurrences used: %d across %d production runs (first failure after %d runs)\n",
		res.FailureRecurrences, res.TotalRuns, res.DiscoveryRuns)
	fmt.Fprintf(w, "Average client overhead: %.2f%%\n", res.AvgOverheadPct)
	if res.Health.Degraded() {
		fmt.Fprintf(w, "Fleet health: %s\n", res.Health)
	}
	fmt.Fprintln(w)

	if c.verbose {
		for i, it := range res.Iters {
			fmt.Fprintf(w, "iteration %d: sigma=%d tracked=%d instrs, %d failing / %d successful runs, overhead %.2f%%, +%d refined\n",
				i+1, it.Sigma, it.TrackedInstrs, it.Failing, it.Successful, it.OverheadPct, len(it.AddedInstrs))
			if it.Health.Degraded() {
				fmt.Fprintf(w, "             health: %s\n", it.Health)
			}
		}
		fmt.Fprintln(w)
	}

	fmt.Fprintln(w, res.Sketch.Render())

	rel, ord, overall := res.Sketch.Accuracy(c.bug.Ideal())
	fmt.Fprintf(w, "Accuracy vs. hand-written ideal sketch: relevance %.1f%%, ordering %.1f%%, overall %.1f%%\n",
		rel, ord, overall)
	fmt.Fprintf(w, "\nHow developers fixed it: %s\n", c.bug.Fix)
}
