// Package agent is the endpoint side of the Gist service: it
// registers with the diagnosis server, long-polls for tracking tasks,
// records production runs with core.RecordRun — the endpoint half of
// the core.RunInstrumented path the in-process fleet uses — and uploads
// the raw PT ring buffers and trap log over the fault-tolerant wire
// client. The server decodes them (core.FinishRun).
//
// An agent ships no state the server cannot regenerate: the tracking
// plan is rebuilt locally from the shipped instruction window and
// feature gates (core.BuildPlan is deterministic), and the endpoint
// fault decision is re-derived from the shipped fault config — so a
// run executes identically no matter which agent picks it up.
package agent

import (
	"context"
	"fmt"
	"net/http"
	"slices"
	"sync"
	"time"

	"repro/internal/bugs"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/service"
)

// Config tunes one endpoint agent.
type Config struct {
	// Server is the diagnosis server's base URL.
	Server string
	// Tenant and ID identify this agent to the server.
	Tenant string
	ID     string
	// Poll is the long-poll wait the agent requests (default 2s).
	Poll time.Duration
	// RPCDeadline bounds each wire attempt (default 30s). It must
	// exceed Poll or every long-poll times out client-side.
	RPCDeadline time.Duration
	// Faults configures transport chaos on this agent's wire client.
	Faults faults.Config
	// Transport overrides the HTTP transport (tests pass a
	// LoopbackTransport); nil means the default.
	Transport http.RoundTripper
	// Sleep overrides the wire client's backoff sleep; nil means
	// time.Sleep. Tests use it to retry instantly.
	Sleep func(time.Duration)
	// Delay overrides the injected-slowdown sleep (the fault class that
	// models a degraded endpoint); nil means time.Sleep. Tests stub it
	// to observe slowdown decisions without waiting them out.
	Delay func(time.Duration)
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Poll <= 0 {
		c.Poll = 2 * time.Second
	}
	if c.RPCDeadline <= 0 {
		c.RPCDeadline = 30 * time.Second
	}
	if c.Delay == nil {
		c.Delay = time.Sleep
	}
	return c
}

// client is the wire client configuration this agent dials with.
func (c Config) client() service.ClientOptions {
	return service.ClientOptions{
		BaseURL:   c.Server,
		Tenant:    c.Tenant,
		Actor:     c.ID,
		Deadline:  c.RPCDeadline,
		Faults:    c.Faults,
		Transport: c.Transport,
		Sleep:     c.Sleep,
	}
}

// Validate rejects nonsensical agent configs: whatever its wire client
// would reject, plus the agent's own knobs. `gist agent` reports the
// error as is, so each message names the flag at fault.
func (c Config) Validate() error {
	if err := c.client().Validate(); err != nil {
		return err
	}
	switch {
	case c.ID == "":
		return fmt.Errorf("-agent-id must not be empty")
	case c.Poll <= 0:
		return fmt.Errorf("-agent-poll %v must be positive", c.Poll)
	case c.RPCDeadline <= c.Poll:
		return fmt.Errorf("-rpc-deadline %v must exceed -agent-poll %v or every long-poll times out client-side", c.RPCDeadline, c.Poll)
	}
	return c.Faults.Validate()
}

// Agent is one endpoint worker.
type Agent struct {
	cfg    Config
	client *service.Client
	lease  time.Duration

	// plans holds, per bug, the plan of the last task run for it. The
	// ~40 tasks of a diagnosis share two or three windows, mostly back
	// to back, and a plan is read-only once built, so one entry saves
	// nearly every rebuild.
	mu    sync.Mutex
	plans map[string]*core.Plan
}

// New returns an agent; call Run to start it.
func New(cfg Config) (*Agent, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Agent{
		cfg:    cfg,
		client: service.NewClient(cfg.client()),
		plans:  make(map[string]*core.Plan),
	}, nil
}

// Run registers and then serves tasks until ctx is cancelled. It
// returns nil on cancellation and an error only when registration
// itself fails after all retries.
func (a *Agent) Run(ctx context.Context) error {
	var reg service.RegisterResponse
	err := a.client.Call(ctx, service.PathRegister, &service.RegisterRequest{
		Tenant: a.cfg.Tenant,
		Agent:  a.cfg.ID,
	}, &reg)
	if err != nil {
		return fmt.Errorf("agent %s: register: %w", a.cfg.ID, err)
	}
	a.lease = time.Duration(reg.LeaseMs) * time.Millisecond
	a.logf("agent %s registered (lease %v)", a.cfg.ID, a.lease)

	for {
		if ctx.Err() != nil {
			return nil
		}
		task, err := a.poll(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			a.logf("agent %s: poll: %v", a.cfg.ID, err)
			continue
		}
		if task == nil {
			continue
		}
		a.execute(ctx, task)
	}
}

func (a *Agent) poll(ctx context.Context) (*service.WireTask, error) {
	var resp service.PollResponse
	err := a.client.Call(ctx, service.PathPoll, &service.PollRequest{
		Tenant: a.cfg.Tenant,
		Agent:  a.cfg.ID,
		WaitMs: a.cfg.Poll.Milliseconds(),
	}, &resp)
	if err != nil {
		return nil, err
	}
	return resp.Task, nil
}

// execute runs one task and uploads its trace. While the run is in
// flight a heartbeat goroutine renews the lease at a third of its TTL,
// so a long production run is not mistaken for a dead agent.
func (a *Agent) execute(ctx context.Context, task *service.WireTask) {
	if task.DeadlineMs < 0 {
		// The campaign's deadline already passed when this task was
		// leased. Running it would produce a result nobody may use (an
		// expired campaign always fails, never serves a late sketch), so
		// decline and let the reaper write the task off.
		a.logf("agent %s: task %d: declined, campaign deadline expired", a.cfg.ID, task.TaskID)
		return
	}
	stop := a.startHeartbeats(ctx)
	defer stop()

	// Injected endpoint slowdown: the decision stream is keyed by
	// (tenant, agent, task), NOT by the run spec — a hedged re-dispatch
	// of the same task to another agent draws a fresh decision, which is
	// exactly how a real degraded endpoint behaves. Only timing changes;
	// the trace bytes are untouched, so diagnoses stay byte-identical.
	if d := faults.NewInjector(task.Faults).ForSlowdown(a.cfg.Tenant, a.cfg.ID, task.TaskID); d.Slow {
		a.logf("agent %s: task %d: injected slowdown %v", a.cfg.ID, task.TaskID, d.Delay)
		a.cfg.Delay(d.Delay)
	}

	rt, err := a.runTask(task)
	if err != nil {
		// An unrunnable task (unknown bug, bad window) is not this
		// agent's to retry: leave it to the lease reaper, which will
		// reassign and eventually write it off as lost.
		a.logf("agent %s: task %d: %v", a.cfg.ID, task.TaskID, err)
		return
	}

	up := &service.UploadRequest{
		Tenant: a.cfg.Tenant,
		Agent:  a.cfg.ID,
		TaskID: task.TaskID,
	}
	if rt == nil {
		up.Crashed = true
	} else {
		up.Trace = service.EncodeTrace(rt)
	}
	var resp service.UploadResponse
	if err := a.client.Call(ctx, service.PathUpload, up, &resp); err != nil {
		a.logf("agent %s: upload task %d: %v", a.cfg.ID, task.TaskID, err)
	}
}

// runTask records one production run exactly as the in-process fleet
// would: build the plan from the shipped window, re-derive the
// endpoint fault decision, and run instrumented. The decision's
// in-flight faults are the server's to apply, from its own fresh copy
// of the decision's stream.
func (a *Agent) runTask(task *service.WireTask) (rt *core.RunTrace, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("run panicked: %v", r)
		}
	}()
	b := bugs.ByName(task.Bug)
	if b == nil {
		return nil, fmt.Errorf("unknown bug %q", task.Bug)
	}
	plan := a.planFor(task.Bug, b.GistConfig(), task.Window, task.Feats)
	dec := faults.NewInjector(task.Faults).ForRun(task.Spec.EndpointID, task.Spec.Seed)
	return core.RecordRun(plan, task.Spec, dec), nil
}

// planFor returns bug's plan for (window, feats), rebuilding only when
// the task's window or features differ from the previous task's for
// the same bug.
func (a *Agent) planFor(bug string, cfg core.Config, window []int, feats core.Features) *core.Plan {
	a.mu.Lock()
	defer a.mu.Unlock()
	p := a.plans[bug]
	if p == nil || p.Feats != feats || !slices.Equal(p.Tracked, window) {
		p = core.BuildPlan(cfg.BuildGraph(), window, feats)
		a.plans[bug] = p
	}
	return p
}

// startHeartbeats renews this agent's leases every lease/3 until the
// returned stop function is called.
func (a *Agent) startHeartbeats(ctx context.Context) (stop func()) {
	interval := a.lease / 3
	if interval <= 0 {
		interval = time.Second
	}
	done := make(chan struct{})
	var once sync.Once
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-ctx.Done():
				return
			case <-t.C:
				var resp service.HeartbeatResponse
				_ = a.client.Call(ctx, service.PathHeartbeat, &service.HeartbeatRequest{
					Tenant: a.cfg.Tenant,
					Agent:  a.cfg.ID,
				}, &resp)
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}

func (a *Agent) logf(format string, args ...any) {
	if a.cfg.Logf != nil {
		a.cfg.Logf(format, args...)
	}
}
