package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/bugs"
	"repro/internal/faults"
	"repro/internal/service"
	"repro/internal/service/agent"
)

// wireFlags declares the flags every wire client has — `agent` binds them
// into its agent.Config, `submit` into its service.ClientOptions.
func wireFlags(fs *flag.FlagSet, server, tenant *string, rpcDeadline *time.Duration, f *faults.Config) {
	fs.StringVar(server, "server", "", "diagnosis server base URL, e.g. http://127.0.0.1:8443")
	fs.StringVar(tenant, "tenant", "default", "tenant label")
	fs.DurationVar(rpcDeadline, "rpc-deadline", 30*time.Second, "per-RPC attempt deadline")
	fs.Float64Var(&f.TransportRate, "transport-fault-rate", 0, "injected transport fault rate in [0,1]: drop/delay/duplicate/corrupt/disconnect at the codec boundary")
	fs.Int64Var(&f.Seed, "transport-fault-seed", 1, "transport fault-injector seed (fault streams are deterministic per seed)")
}

func parseAgent(fs *flag.FlagSet, args []string) (agent.Config, error) {
	var c agent.Config
	wireFlags(fs, &c.Server, &c.Tenant, &c.RPCDeadline, &c.Faults)
	fs.StringVar(&c.ID, "agent-id", fmt.Sprintf("agent-%d", os.Getpid()), "agent identifier")
	fs.DurationVar(&c.Poll, "agent-poll", 2*time.Second, "long-poll wait per request (must stay under -rpc-deadline)")
	if err := parseArgs(fs, args); err != nil {
		return c, err
	}
	return c, c.Validate()
}

// runAgent serves tasks until SIGINT/SIGTERM.
func runAgent(c agent.Config, _, stderr io.Writer) int {
	c.Logf = logf(stderr, "agent")
	ag, err := agent.New(c)
	if err != nil {
		return failf(stderr, 2, "%v", err)
	}
	ctx, stop := interrupted()
	defer stop()
	say(stderr, "agent %s polling %s as tenant %s", c.ID, c.Server, c.Tenant)
	if err := ag.Run(ctx); err != nil && ctx.Err() == nil {
		return failf(stderr, 1, "agent: %v", err)
	}
	return 0
}

// submitConfig is what `gist submit` runs on: its wire client, and the
// report it submits.
type submitConfig struct {
	client   service.ClientOptions
	bug      string
	deadline time.Duration
}

func parseSubmit(fs *flag.FlagSet, args []string) (*submitConfig, error) {
	c := &submitConfig{client: service.ClientOptions{Actor: "submitter"}}
	wireFlags(fs, &c.client.BaseURL, &c.client.Tenant, &c.client.Deadline, &c.client.Faults)
	fs.StringVar(&c.bug, "bug", "", "bug whose failure to report (see gist list)")
	fs.DurationVar(&c.deadline, "deadline", 0, "end-to-end diagnosis deadline propagated to the server and its agents (0 = none)")
	if err := parseArgs(fs, args); err != nil {
		return nil, err
	}
	switch {
	case bugs.ByName(c.bug) == nil:
		return nil, fmt.Errorf("-bug: unknown bug %q (see gist list)", c.bug)
	case c.deadline < 0:
		return nil, fmt.Errorf("-deadline %v is negative (0 means none)", c.deadline)
	}
	return c, c.client.Validate()
}

// runSubmit submits one failure report, waits for the diagnosis, and
// prints the sketch JSON exactly as the server shipped it. The server
// runs campaigns to completion (no developer oracle), so the output is
// byte-identical to a local `gist diagnose -bug X -full -json` run.
func runSubmit(c *submitConfig, stdout, stderr io.Writer) int {
	cli, tenant := service.NewClient(c.client), c.client.Tenant
	ctx, stop := interrupted()
	defer stop()
	report := &service.SubmitRequest{Tenant: tenant, Bug: c.bug, DeadlineMs: c.deadline.Milliseconds()}
	if err := cli.Call(ctx, service.PathSubmit, report, nil); err != nil {
		return failf(stderr, 1, "submit: %v", err)
	}
	var st service.StatusResponse
	for {
		if err := cli.Call(ctx, service.PathStatus, &service.StatusRequest{Tenant: tenant, Bug: c.bug}, &st); err != nil {
			return failf(stderr, 1, "submit: %v", err)
		}
		if st.State == service.StateDone || st.State == service.StateFailed {
			break
		}
		if st.State == service.StateUnknown || st.State == service.StateDrained {
			// A restarted server no longer knows the campaign; a drained one
			// will not finish it before its listener closes.
			return failf(stderr, 1, "submit: server reports the campaign %s; resubmit after the server restarts", st.State)
		}
		select {
		case <-ctx.Done():
			return failf(stderr, 1, "submit: interrupted while %s", st.State)
		case <-time.After(500 * time.Millisecond):
		}
	}
	if st.State == service.StateFailed {
		return failf(stderr, 1, "submit: diagnosis failed: %s", st.Err)
	}
	if st.LowConfidence {
		say(stderr, "submit: low-confidence sketch (degraded fleet, %d restarts)", st.Restarts)
	}
	var sk service.SketchResponse
	if err := cli.Call(ctx, service.PathSketch, &service.SketchRequest{Tenant: tenant, Bug: c.bug}, &sk); err != nil {
		return failf(stderr, 1, "submit: %v", err)
	}
	if !sk.Ready {
		return failf(stderr, 1, "submit: campaign finished but no sketch is available")
	}
	fmt.Fprintln(stdout, string(sk.Sketch))
	return 0
}
