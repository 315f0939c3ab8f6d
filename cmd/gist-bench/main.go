// Command gist-bench regenerates the paper's evaluation: every table and
// figure of §5 (plus the §4 and §5.3 in-text measurements) against the
// 11-bug suite.
//
// Usage:
//
//	gist-bench -exp all
//	gist-bench -exp table1
//	gist-bench -exp fig11 -bugs pbzip2,apache-1 -runs 6
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bugs"
	"repro/internal/experiments"
	"repro/internal/telemetry"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment: table1, sketches, fig9, fig10, fig11, fig12, fig13, breakdown, swpt, extpt, chaos, perf, sched, shard, crashloop, service, vm, ingest, overload, all")
		bugList  = flag.String("bugs", "", "comma-separated bug subset (default: all 12)")
		runs     = flag.Int("runs", 0, "runs per measurement point (0 = experiment default)")
		workers  = flag.Int("workers", 0, "fan-out width for suite sweeps and the fleet inside each diagnosis (0 = GOMAXPROCS); results are byte-identical for any value")
		jsonPath = flag.String("json", "", "with -exp perf, sched, shard, crashloop, service, vm, ingest, or overload: write the results to this JSON file (e.g. BENCH_fleet.json)")
		agents   = flag.Int("agents", 1000, "with -exp service: total simulated agent count across all tenants")
		dedup    = flag.Int("dedup", 20, "with -exp ingest: reports submitted per distinct failure signature (the dedup ratio; min 10)")

		traceOut    = flag.String("trace-out", "", "write a JSONL phase-span event log to this file")
		metricsJSON = flag.String("metrics-json", "", "write a metrics snapshot to this file on exit")
		validate    = flag.String("validate", "", "validate an existing BENCH JSON file (perf, sched, shard, crashloop, service, vm, ingest, or overload) against the observability schema, then exit")
	)
	flag.Parse()

	fatalf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "gist-bench: "+format+"\n", args...)
		os.Exit(2)
	}
	if *workers < 0 {
		fatalf("-workers %d is negative (0 means GOMAXPROCS)", *workers)
	}
	if *runs < 0 {
		fatalf("-runs %d is negative (0 means experiment default)", *runs)
	}
	if *agents < 1 {
		fatalf("-agents %d must be at least 1", *agents)
	}
	if *dedup < 10 {
		fatalf("-dedup %d must be at least 10 (the experiment proves a >= 10:1 dedup ratio)", *dedup)
	}

	if *validate != "" {
		data, err := os.ReadFile(*validate)
		if err != nil {
			fatalf("%v", err)
		}
		if err := experiments.ValidateBenchJSON(data); err != nil {
			fmt.Fprintf(os.Stderr, "gist-bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("%s: ok\n", *validate)
		return
	}

	experiments.Workers = *workers

	// Telemetry observes the experiments; results are byte-identical
	// with or without it. The perf experiment manages its own per-pass
	// tracers and ignores this hook.
	var tel *telemetry.Tracer
	if *traceOut != "" {
		t, closeTrace, err := telemetry.OpenTrace(*traceOut)
		if err != nil {
			fatalf("%v", err)
		}
		tel = t
		defer func() {
			if err := closeTrace(); err != nil {
				fmt.Fprintf(os.Stderr, "gist-bench: trace-out: %v\n", err)
			}
		}()
	} else if *metricsJSON != "" {
		tel = telemetry.New()
	}
	experiments.Telemetry = tel
	if *metricsJSON != "" {
		defer func() {
			if err := tel.WriteMetricsJSON(*metricsJSON); err != nil {
				fmt.Fprintf(os.Stderr, "gist-bench: metrics-json: %v\n", err)
			}
		}()
	}

	suite := bugs.All()
	if *bugList != "" {
		suite = experiments.Suite(strings.Split(*bugList, ",")...)
		if len(suite) == 0 {
			fmt.Fprintf(os.Stderr, "gist-bench: no known bugs in %q\n", *bugList)
			os.Exit(2)
		}
	}

	run := func(name string, f func() error) {
		if *exp != "all" && *exp != name {
			return
		}
		fmt.Printf("==== %s ====\n\n", name)
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "gist-bench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}

	run("table1", func() error {
		rows, err := experiments.Table1(suite)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderTable1(rows))
		return nil
	})
	run("sketches", func() error {
		figs, err := experiments.SketchFigures()
		if err != nil {
			return err
		}
		for _, name := range []string{"pbzip2", "curl", "apache-3"} {
			fmt.Printf("---- %s ----\n%s\n", name, figs[name])
		}
		return nil
	})
	run("fig9", func() error {
		rows, err := experiments.Fig9(suite)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderFig9(rows))
		return nil
	})
	run("fig10", func() error {
		rows, err := experiments.Fig10(suite)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderFig10(rows))
		return nil
	})
	run("fig11", func() error {
		points, err := experiments.Fig11(suite, nil, *runs)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderFig11(points))
		return nil
	})
	run("fig12", func() error {
		rows, err := experiments.Fig12(suite, nil)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderFig12(rows))
		return nil
	})
	run("fig13", func() error {
		rows, err := experiments.Fig13(suite, *runs)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderFig13(rows))
		return nil
	})
	run("breakdown", func() error {
		rows, err := experiments.Breakdown(suite, *runs)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderBreakdown(rows))
		return nil
	})
	run("extpt", func() error {
		rows, err := experiments.ExtendedPT(suite)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderExtPT(rows))
		return nil
	})
	run("swpt", func() error {
		fmt.Print(experiments.RenderSWPT(experiments.SoftwarePT(suite, *runs)))
		return nil
	})
	run("chaos", func() error {
		// Default to the three printed-sketch bugs; -bugs widens the sweep.
		cs := suite
		if *bugList == "" {
			cs = experiments.ChaosSuite()
		}
		fmt.Print(experiments.RenderChaos(experiments.Chaos(cs, nil)))
		return nil
	})
	// perf and sched re-diagnose the suite once per worker/width count,
	// so they run only when asked for by name, not as part of "all".
	// Both derive their measurement points from -workers the same way.
	widthList := func() []int {
		wl := []int{1, 2, 4, 8}
		if *workers == 1 {
			wl = []int{1}
		} else if *workers > 0 {
			wl = []int{1, *workers}
		}
		return wl
	}
	writeBench := func(name string, res any) {
		if *jsonPath == "" {
			return
		}
		if err := experiments.WriteJSON(*jsonPath, res); err != nil {
			fmt.Fprintf(os.Stderr, "gist-bench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote %s\n", *jsonPath)
	}
	if *exp == "perf" {
		fmt.Printf("==== perf ====\n\n")
		res, err := experiments.Perf(suite, widthList())
		if err != nil {
			fmt.Fprintf(os.Stderr, "gist-bench: perf: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(experiments.RenderPerf(res))
		writeBench("perf", res)
	}
	if *exp == "sched" {
		fmt.Printf("==== sched ====\n\n")
		res, err := experiments.Sched(suite, widthList())
		if err != nil {
			fmt.Fprintf(os.Stderr, "gist-bench: sched: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(experiments.RenderSched(res))
		writeBench("sched", res)
	}
	if *exp == "shard" {
		fmt.Printf("==== shard ====\n\n")
		procs := []int{1, 2, 4}
		if *workers == 1 {
			procs = []int{1}
		} else if *workers > 0 {
			procs = []int{1, *workers}
		}
		res, err := experiments.Shard(suite, procs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gist-bench: shard: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(experiments.RenderShard(res))
		writeBench("shard", res)
	}
	if *exp == "crashloop" {
		fmt.Printf("==== crashloop ====\n\n")
		// Default to the chaos trio; -bugs widens (or narrows) the sweep.
		cs := suite
		if *bugList == "" {
			cs = experiments.ChaosSuite()
		}
		res, err := experiments.Crashloop(cs, nil, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gist-bench: crashloop: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(experiments.RenderCrashloop(res))
		writeBench("crashloop", res)
	}
	if *exp == "vm" {
		fmt.Printf("==== vm ====\n\n")
		// Default to the three printed-sketch bugs; -bugs overrides.
		cs := suite
		if *bugList == "" {
			cs = experiments.VMSuite()
		}
		res, err := experiments.VMPerf(cs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gist-bench: vm: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(experiments.RenderVM(res))
		writeBench("vm", res)
	}
	if *exp == "ingest" {
		fmt.Printf("==== ingest ====\n\n")
		names := make([]string, len(suite))
		for i, b := range suite {
			names[i] = b.Name
		}
		res, err := experiments.IngestLoad(names, *dedup, 2)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gist-bench: ingest: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(experiments.RenderIngest(res))
		writeBench("ingest", res)
	}
	if *exp == "service" {
		fmt.Printf("==== service ====\n\n")
		// One cheap-to-diagnose bug keeps the experiment about the wire,
		// not the diagnosis; -bugs overrides.
		bug := "deadlock"
		if *bugList != "" {
			bug = strings.Split(*bugList, ",")[0]
		}
		perTenant := 20
		if *agents < perTenant {
			perTenant = *agents
		}
		tenants := *agents / perTenant
		res, err := experiments.ServiceLoad(bug, tenants, perTenant, 0.05)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gist-bench: service: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(experiments.RenderService(res))
		writeBench("service", res)
	}
	if *exp == "overload" {
		fmt.Printf("==== overload ====\n\n")
		// One cheap-to-diagnose bug keeps the experiment about admission
		// control, not the diagnosis; -bugs overrides.
		opts := experiments.OverloadOptions{}
		if *bugList != "" {
			opts.Bug = strings.Split(*bugList, ",")[0]
		}
		res, err := experiments.Overload(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gist-bench: overload: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(experiments.RenderOverload(res))
		writeBench("overload", res)
	}
}
