package service_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/service/agent"
)

// The validators below are the ones `gist serve` and `gist agent` call
// on the structs their flags are bound into; every rejection must name
// the offending flag (the CLI turns it into exit 2).

// serveArgs is what `gist serve` validates: the listen address and the
// server options.
type serveArgs struct {
	listen string
	opts   service.Options
}

func (a serveArgs) validate() error {
	if err := service.ValidateListen(a.listen); err != nil {
		return err
	}
	return a.opts.Validate()
}

func validServeArgs() serveArgs {
	return serveArgs{
		listen: "127.0.0.1:8443",
		opts: service.Options{
			StateRoot:   "state",
			LeaseTTL:    10 * time.Second,
			PollTimeout: 5 * time.Second,
		},
	}
}

func TestServeFlagValidation(t *testing.T) {
	cases := []struct {
		name     string
		mutate   func(*serveArgs)
		wantFlag string // "" means valid
	}{
		{"valid", func(a *serveArgs) {}, ""},
		{"valid all-interfaces", func(a *serveArgs) { a.listen = ":8443" }, ""},
		{"empty listen", func(a *serveArgs) { a.listen = "" }, "-listen"},
		{"listen without port", func(a *serveArgs) { a.listen = "127.0.0.1" }, "-listen"},
		{"listen bare port", func(a *serveArgs) { a.listen = "8443" }, "-listen"},
		{"empty state dir", func(a *serveArgs) { a.opts.StateRoot = "" }, "-state-dir"},
		{"zero lease", func(a *serveArgs) { a.opts.LeaseTTL = 0 }, "-lease"},
		{"negative lease", func(a *serveArgs) { a.opts.LeaseTTL = -time.Second }, "-lease"},
		{"zero poll timeout", func(a *serveArgs) { a.opts.PollTimeout = 0 }, "-poll-timeout"},
		{"negative cache bytes", func(a *serveArgs) { a.opts.SketchCacheBytes = -1 }, "-ingest-cache-bytes"},
		{"valid tenant rps", func(a *serveArgs) { a.opts.TenantRPS = 2.5 }, ""},
		{"negative tenant rps", func(a *serveArgs) { a.opts.TenantRPS = -1 }, "-tenant-rps"},
		{"valid tenant burst", func(a *serveArgs) { a.opts.TenantRPS = 2.5; a.opts.TenantBurst = 10 }, ""},
		{"negative tenant burst", func(a *serveArgs) { a.opts.TenantRPS = 2.5; a.opts.TenantBurst = -1 }, "-tenant-burst"},
		{"burst without rate", func(a *serveArgs) { a.opts.TenantBurst = 10 }, "-tenant-burst"},
		{"valid inflight cap", func(a *serveArgs) { a.opts.MaxInflight = 8 }, ""},
		{"negative inflight cap", func(a *serveArgs) { a.opts.MaxInflight = -1 }, "-max-inflight"},
		{"valid launch budget", func(a *serveArgs) { a.opts.MaxInflight = 8; a.opts.LaunchBudget = 32 }, ""},
		{"negative launch budget", func(a *serveArgs) { a.opts.LaunchBudget = -1 }, "-launch-budget"},
		{"budget without inflight cap", func(a *serveArgs) { a.opts.LaunchBudget = 32 }, "-launch-budget"},
		{"valid hedge", func(a *serveArgs) { a.opts.HedgeAfter = 2 * time.Second }, ""},
		{"negative hedge", func(a *serveArgs) { a.opts.HedgeAfter = -time.Second }, "-hedge-after"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := validServeArgs()
			tc.mutate(&a)
			checkNamesFlag(t, a.validate(), tc.wantFlag)
		})
	}
}

func validAgentConfig() agent.Config {
	return agent.Config{
		Server:      "http://127.0.0.1:8443",
		Tenant:      "acme",
		ID:          "ep-1",
		Poll:        2 * time.Second,
		RPCDeadline: 30 * time.Second,
	}
}

func TestAgentFlagValidation(t *testing.T) {
	cases := []struct {
		name     string
		mutate   func(*agent.Config)
		wantFlag string
	}{
		{"valid", func(c *agent.Config) {}, ""},
		{"empty server", func(c *agent.Config) { c.Server = "" }, "-server"},
		{"server without scheme", func(c *agent.Config) { c.Server = "127.0.0.1:8443" }, "-server"},
		{"empty tenant", func(c *agent.Config) { c.Tenant = "" }, "-tenant"},
		{"empty agent id", func(c *agent.Config) { c.ID = "" }, "-agent-id"},
		{"zero poll", func(c *agent.Config) { c.Poll = 0 }, "-agent-poll"},
		{"negative poll", func(c *agent.Config) { c.Poll = -time.Second }, "-agent-poll"},
		{"zero deadline", func(c *agent.Config) { c.RPCDeadline = 0 }, "-rpc-deadline"},
		{"deadline under poll", func(c *agent.Config) { c.RPCDeadline = time.Second }, "-rpc-deadline"},
		{"fault rate below range", func(c *agent.Config) { c.Faults.TransportRate = -0.01 }, "-transport-fault-rate"},
		{"fault rate above range", func(c *agent.Config) { c.Faults.TransportRate = 2 }, "-transport-fault-rate"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := validAgentConfig()
			tc.mutate(&c)
			checkNamesFlag(t, c.Validate(), tc.wantFlag)
		})
	}
}

// checkNamesFlag passes when err is nil for wantFlag "" and otherwise
// when err mentions wantFlag.
func checkNamesFlag(t *testing.T, err error, wantFlag string) {
	t.Helper()
	switch {
	case wantFlag == "" && err != nil:
		t.Fatalf("valid flags rejected: %v", err)
	case wantFlag != "" && err == nil:
		t.Fatalf("invalid flags accepted")
	case wantFlag != "" && !strings.Contains(err.Error(), wantFlag):
		t.Fatalf("error %q does not name %s", err, wantFlag)
	}
}
