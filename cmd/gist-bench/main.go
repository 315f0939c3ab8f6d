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

// params is what the experiments read from the command line.
type params struct {
	suite []*bugs.Bug
	// subset reports whether -bugs narrowed the suite; experiments with
	// their own default subset use it only then.
	subset bool
	runs   int
}

type experiment struct {
	name string
	run  func(p params) error // prints the experiment's table
}

// show prints a driver's rendered rows unless the driver failed.
func show[T any](rows T, err error, render func(T) string) error {
	if err == nil {
		fmt.Print(render(rows))
	}
	return err
}

// table is the one list of experiments: the -exp help string, the name
// check and the "all" set are derived from it, and "all" runs it in
// this order.
var table = []experiment{
	{"table1", func(p params) error {
		rows, err := experiments.Table1(p.suite)
		return show(rows, err, experiments.RenderTable1)
	}},
	{"sketches", func(params) error {
		figs, err := experiments.SketchFigures()
		if err != nil {
			return err
		}
		for _, name := range []string{"pbzip2", "curl", "apache-3"} {
			fmt.Printf("---- %s ----\n%s\n", name, figs[name])
		}
		return nil
	}},
	{"fig9", func(p params) error {
		rows, err := experiments.Fig9(p.suite)
		return show(rows, err, experiments.RenderFig9)
	}},
	{"fig10", func(p params) error {
		rows, err := experiments.Fig10(p.suite)
		return show(rows, err, experiments.RenderFig10)
	}},
	{"fig11", func(p params) error {
		points, err := experiments.Fig11(p.suite, nil, p.runs)
		return show(points, err, experiments.RenderFig11)
	}},
	{"fig12", func(p params) error {
		rows, err := experiments.Fig12(p.suite, nil)
		return show(rows, err, experiments.RenderFig12)
	}},
	{"fig13", func(p params) error {
		rows, err := experiments.Fig13(p.suite, p.runs)
		return show(rows, err, experiments.RenderFig13)
	}},
	{"breakdown", func(p params) error {
		rows, err := experiments.Breakdown(p.suite, p.runs)
		return show(rows, err, experiments.RenderBreakdown)
	}},
	{"extpt", func(p params) error {
		rows, err := experiments.ExtendedPT(p.suite)
		return show(rows, err, experiments.RenderExtPT)
	}},
	{"swpt", func(p params) error {
		fmt.Print(experiments.RenderSWPT(experiments.SoftwarePT(p.suite, p.runs)))
		return nil
	}},
	{"chaos", func(p params) error {
		// Default to the three printed-sketch bugs; -bugs widens the sweep.
		cs := experiments.ChaosSuite()
		if p.subset {
			cs = p.suite
		}
		fmt.Print(experiments.RenderChaos(experiments.Chaos(cs, nil)))
		return nil
	}},
}

func expNames() string {
	names := make([]string, 0, len(table)+1)
	for _, e := range table {
		names = append(names, e.name)
	}
	return strings.Join(append(names, "all"), ", ")
}

// selected returns the experiments -exp name asks for.
func selected(name string) ([]experiment, error) {
	if name == "all" {
		return table, nil
	}
	for _, e := range table {
		if name == e.name {
			return []experiment{e}, nil
		}
	}
	return nil, fmt.Errorf("unknown experiment %q (valid: %s)", name, expNames())
}

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment: "+expNames())
		bugList = flag.String("bugs", "", "comma-separated bug subset (default: all 12)")
		runs    = flag.Int("runs", 0, "runs per measurement point (0 = experiment default)")
		workers = flag.Int("workers", 0, "fan-out width for suite sweeps and the fleet inside each diagnosis (0 = GOMAXPROCS); results are byte-identical for any value")

		traceOut    = flag.String("trace-out", "", "write a JSONL phase-span event log to this file")
		metricsJSON = flag.String("metrics-json", "", "write a metrics snapshot to this file on exit")
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
	todo, err := selected(*exp)
	if err != nil {
		fatalf("%v", err)
	}
	p := params{suite: bugs.All(), subset: *bugList != "", runs: *runs}
	if p.subset {
		p.suite = experiments.Suite(strings.Split(*bugList, ",")...)
		if len(p.suite) == 0 {
			fatalf("no known bugs in %q", *bugList)
		}
	}

	experiments.Workers = *workers

	// Telemetry observes the experiments; results are byte-identical
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

	for _, e := range todo {
		fmt.Printf("==== %s ====\n\n", e.name)
		if err := e.run(p); err != nil {
			fmt.Fprintf(os.Stderr, "gist-bench: %s: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Println()
	}
}
