// Command minic compiles and runs a MiniC source file on the VM — the
// standalone front door to the compilation-and-execution substrate.
//
// Usage:
//
//	minic prog.mc
//	minic -seed 7 -preempt 3 -ints 1,2,3 -strs "{}{" prog.mc
//	minic -dump-ir prog.mc
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/ir"
	"repro/internal/vm"
	"repro/internal/vm/bytecode"
)

func main() {
	var (
		seed    = flag.Int64("seed", 1, "scheduler seed")
		preempt = flag.Int("preempt", 5, "mean instructions between preemptions")
		maxStep = flag.Int64("max-steps", 2_000_000, "step limit before a hang is declared")
		ints    = flag.String("ints", "", "comma-separated integer workload (input(i))")
		strs    = flag.String("strs", "", "comma-separated string workload (input_str(i))")
		dumpIR  = flag.Bool("dump-ir", false, "print the IR instead of running")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: minic [flags] file.mc")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "minic: %v\n", err)
		os.Exit(1)
	}
	prog, err := ir.Compile(flag.Arg(0), string(src))
	if err != nil {
		fmt.Fprintf(os.Stderr, "minic: %v\n", err)
		os.Exit(1)
	}
	if *dumpIR {
		fmt.Print(prog.String())
		return
	}
	wl := vm.Workload{}
	if *ints != "" {
		for _, part := range strings.Split(*ints, ",") {
			v, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
			if err != nil {
				fmt.Fprintf(os.Stderr, "minic: bad -ints value %q\n", part)
				os.Exit(2)
			}
			wl.Ints = append(wl.Ints, v)
		}
	}
	if *strs != "" {
		wl.Strs = strings.Split(*strs, ",")
	}
	out := bytecode.RunProgram(prog, vm.Config{
		Seed:        *seed,
		PreemptMean: *preempt,
		MaxSteps:    *maxStep,
		Workload:    wl,
	})
	for _, line := range out.Prints {
		fmt.Println(line)
	}
	if out.Failed {
		fmt.Fprintf(os.Stderr, "minic: run failed after %d steps:\n%s", out.Steps, out.Report)
		os.Exit(1)
	}
	fmt.Printf("exit %d (%d steps)\n", out.Exit, out.Steps)
}
