// Command gist-bench regenerates the paper's evaluation: every table and
// figure of §5 (plus the §4 and §5.3 in-text measurements) against the
// 12-bug suite. Suite sweeps fan out across GOMAXPROCS goroutines; the
// tables are byte-identical at any width (GOMAXPROCS=1 runs serially).
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
	"strconv"
	"strings"

	"repro/internal/bugs"
	"repro/internal/experiments"
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

// parseBugs resolves -bugs' comma-separated names. Every name must be a
// bug of the suite: a typo would otherwise shrink the evaluation silently.
func parseBugs(list string) ([]*bugs.Bug, error) {
	var suite []*bugs.Bug
	var unknown []string
	for _, name := range strings.Split(list, ",") {
		if b := bugs.ByName(name); b != nil {
			suite = append(suite, b)
		} else {
			unknown = append(unknown, strconv.Quote(name))
		}
	}
	if len(unknown) > 0 {
		return nil, fmt.Errorf("-bugs: unknown bug %s (`gist list` prints the suite)", strings.Join(unknown, ", "))
	}
	return suite, nil
}

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment: "+expNames())
		bugList = flag.String("bugs", "", "comma-separated bug subset (default: all 12)")
		runs    = flag.Int("runs", 0, "runs per measurement point (0 = experiment default)")
	)
	flag.Parse()

	fatalf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "gist-bench: "+format+"\n", args...)
		os.Exit(2)
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
		if p.suite, err = parseBugs(*bugList); err != nil {
			fatalf("%v", err)
		}
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
