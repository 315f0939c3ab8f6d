package service

import (
	"fmt"
	"net"
	"strings"
	"time"
)

// ServeFlags is the CLI-facing server configuration, validated before
// any work starts. Field names mirror the gist flags that populate
// them; every validation error names the offending flag so the CLI
// convention (exit 2, flag named) holds.
type ServeFlags struct {
	Listen             string        // -listen
	StateDir           string        // -state-dir
	Lease              time.Duration // -lease
	PollTimeout        time.Duration // -poll-timeout
	TransportFaultRate float64       // -transport-fault-rate
	IngestCacheBytes   int64         // -ingest-cache-bytes
	TenantRPS          float64       // -tenant-rps (0 = unlimited)
	TenantBurst        int           // -tenant-burst (0 = default 2×rps)
	MaxInflight        int           // -max-inflight (0 = uncapped)
	LaunchBudget       int           // -launch-budget (0 = default 4×max-inflight)
	HedgeAfter         time.Duration // -hedge-after (0 = hedging off)
}

// Validate rejects nonsensical serve flags, naming the flag at fault.
func (f ServeFlags) Validate() error {
	if err := validateListen(f.Listen); err != nil {
		return err
	}
	if f.StateDir == "" {
		return fmt.Errorf("-state-dir must not be empty")
	}
	if f.Lease <= 0 {
		return fmt.Errorf("-lease %v must be positive", f.Lease)
	}
	if f.PollTimeout <= 0 {
		return fmt.Errorf("-poll-timeout %v must be positive", f.PollTimeout)
	}
	if f.TransportFaultRate < 0 || f.TransportFaultRate > 1 {
		return fmt.Errorf("-transport-fault-rate %g outside [0,1]", f.TransportFaultRate)
	}
	if f.IngestCacheBytes < 0 {
		return fmt.Errorf("-ingest-cache-bytes %d must be >= 0 (0 = default)", f.IngestCacheBytes)
	}
	if f.TenantRPS < 0 {
		return fmt.Errorf("-tenant-rps %g must be >= 0 (0 = unlimited)", f.TenantRPS)
	}
	if f.TenantBurst < 0 {
		return fmt.Errorf("-tenant-burst %d must be >= 0 (0 = default)", f.TenantBurst)
	}
	if f.TenantBurst > 0 && f.TenantRPS == 0 {
		return fmt.Errorf("-tenant-burst %d requires -tenant-rps > 0 (no bucket to size without a rate)", f.TenantBurst)
	}
	if f.MaxInflight < 0 {
		return fmt.Errorf("-max-inflight %d must be >= 0 (0 = uncapped)", f.MaxInflight)
	}
	if f.LaunchBudget < 0 {
		return fmt.Errorf("-launch-budget %d must be >= 0 (0 = default)", f.LaunchBudget)
	}
	if f.LaunchBudget > 0 && f.MaxInflight == 0 {
		return fmt.Errorf("-launch-budget %d requires -max-inflight > 0 (nothing queues without an inflight cap)", f.LaunchBudget)
	}
	if f.HedgeAfter < 0 {
		return fmt.Errorf("-hedge-after %v must be >= 0 (0 = hedging off)", f.HedgeAfter)
	}
	return nil
}

// AgentFlags is the CLI-facing agent configuration.
type AgentFlags struct {
	Server             string        // -server
	Tenant             string        // -tenant
	AgentID            string        // -agent-id
	AgentPoll          time.Duration // -agent-poll
	RPCDeadline        time.Duration // -rpc-deadline
	TransportFaultRate float64       // -transport-fault-rate
}

// Validate rejects nonsensical agent flags, naming the flag at fault.
func (f AgentFlags) Validate() error {
	if f.Server == "" {
		return fmt.Errorf("-server must be set to the diagnosis server URL")
	}
	if !strings.HasPrefix(f.Server, "http://") && !strings.HasPrefix(f.Server, "https://") {
		return fmt.Errorf("-server %q must be an http(s) URL", f.Server)
	}
	if f.Tenant == "" {
		return fmt.Errorf("-tenant must not be empty")
	}
	if f.AgentID == "" {
		return fmt.Errorf("-agent-id must not be empty")
	}
	if f.AgentPoll <= 0 {
		return fmt.Errorf("-agent-poll %v must be positive", f.AgentPoll)
	}
	if f.RPCDeadline <= 0 {
		return fmt.Errorf("-rpc-deadline %v must be positive", f.RPCDeadline)
	}
	if f.RPCDeadline <= f.AgentPoll {
		return fmt.Errorf("-rpc-deadline %v must exceed -agent-poll %v or every long-poll times out client-side", f.RPCDeadline, f.AgentPoll)
	}
	if f.TransportFaultRate < 0 || f.TransportFaultRate > 1 {
		return fmt.Errorf("-transport-fault-rate %g outside [0,1]", f.TransportFaultRate)
	}
	return nil
}

// validateListen checks a -listen address: host:port where the port
// parses. An empty host (":8443") binds all interfaces and is fine.
func validateListen(addr string) error {
	if addr == "" {
		return fmt.Errorf("-listen must not be empty")
	}
	_, port, err := net.SplitHostPort(addr)
	if err != nil {
		return fmt.Errorf("-listen %q is not host:port: %v", addr, err)
	}
	if port == "" {
		return fmt.Errorf("-listen %q has no port", addr)
	}
	return nil
}
