// Command gist is the failure-sketching pipeline's command line. One
// binary plays every role of the paper's Fig. 2 — the Gist server, the
// endpoints that run tracking plans, the developer who receives the
// sketch — plus the local diagnosis, each as a subcommand (run gist with
// no arguments for the list). A subcommand declares only the flags it
// reads, each bound to the field of the options struct that consumes it,
// and validates that struct with the struct's own Validate.
//
// Exit codes: 0 done, 1 the run failed, 2 bad usage or configuration,
// 3 drained to a checkpoint.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/bugs"
)

// command is one row of the dispatch table.
type command struct {
	name    string
	summary string
	// run declares the subcommand's flags on fs, parses args, validates
	// and runs to completion, returning the exit code; a parse or
	// validation error (or flag.ErrHelp) comes back instead.
	run func(fs *flag.FlagSet, args []string, stdout, stderr io.Writer) (int, error)
}

var commands = []command{
	{"list", "list the bugs in the suite", list},
	{"diagnose", "diagnose one bug in-process and print its failure sketch", mode(parseDiagnose, runDiagnose)},
	{"serve", "run the diagnosis service: take failure reports, hand tracking plans to agents, serve sketches", mode(parseServe, runServe)},
	{"worker", "run one shard fleet worker, driving campaigns that serve -shards N placed under the shared -state-dir", mode(parseWorker, runWorker)},
	{"agent", "run an endpoint agent: poll the server for tracking tasks, execute the runs, upload the traces", mode(parseAgent, runAgent)},
	{"submit", "submit a bug's failure report and print the sketch JSON (byte-identical to diagnose -full -json)", mode(parseSubmit, runSubmit)},
}

func list(fs *flag.FlagSet, args []string, stdout, _ io.Writer) (int, error) {
	if err := parseArgs(fs, args); err != nil {
		return 2, err
	}
	fmt.Fprintln(stdout, "bug            software      class")
	for _, b := range bugs.All() {
		fmt.Fprintf(stdout, "%-14s %-13s %s\n", b.Name, b.Software, b.Class)
	}
	return 0, nil
}

// mode makes a subcommand of its two halves: parse binds the flags into
// the configuration it returns and validates it; run blocks on that
// configuration until the mode is done.
func mode[C any](parse func(*flag.FlagSet, []string) (C, error), run func(C, io.Writer, io.Writer) int) func(*flag.FlagSet, []string, io.Writer, io.Writer) (int, error) {
	return func(fs *flag.FlagSet, args []string, stdout, stderr io.Writer) (int, error) {
		cfg, err := parse(fs, args)
		if err != nil {
			return 2, err
		}
		return run(cfg, stdout, stderr), nil
	}
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run dispatches args to a subcommand and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	for _, c := range commands {
		if len(args) == 0 || c.name != args[0] {
			continue
		}
		fs := newFlagSet(c.name)
		code, err := c.run(fs, args[1:], stdout, stderr)
		switch {
		case errors.Is(err, flag.ErrHelp):
			fmt.Fprintf(stdout, "usage: gist %s [flags]\n\n%s\n", c.name, c.summary)
			fs.SetOutput(stdout)
			fs.PrintDefaults()
			return 0
		case err != nil:
			fmt.Fprintf(stderr, "gist %s: %v\n", c.name, err)
			return 2
		}
		return code
	}
	fmt.Fprintln(stderr, "usage: gist <command> [flags]   (gist <command> -h lists a command's flags)")
	for _, c := range commands {
		fmt.Fprintf(stderr, "  %-9s %s\n", c.name, c.summary)
	}
	return 2
}

// newFlagSet returns an empty flag set that reports parse errors to its
// caller instead of printing them.
func newFlagSet(name string) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return fs
}

// parseArgs parses args with fs; a subcommand takes flags only.
func parseArgs(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q (gist %s -h lists the flags)", fs.Arg(0), fs.Name())
	}
	return nil
}

// fsyncFlag declares -ckpt-fsync; each mode that checkpoints stores its
// negation in the NoFsync it hands on.
func fsyncFlag(fs *flag.FlagSet) *bool {
	return fs.Bool("ckpt-fsync", true, "fsync checkpoint files and their directory before publishing (false trades durability of the newest generation for speed)")
}

// interrupted returns a context that SIGINT or SIGTERM cancels.
func interrupted() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

// say prints one "gist: ..." line to stderr.
func say(stderr io.Writer, format string, args ...any) {
	fmt.Fprintf(stderr, "gist: "+format+"\n", args...)
}

// logf is the Logf a long-running mode hands its server, worker or agent.
func logf(stderr io.Writer, who string) func(string, ...any) {
	return func(format string, args ...any) { say(stderr, who+": "+format, args...) }
}

// failf says why a mode is giving up and returns its exit code.
func failf(stderr io.Writer, code int, format string, args ...any) int {
	say(stderr, format, args...)
	return code
}
