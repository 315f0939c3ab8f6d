// Package service is the Gist diagnosis service: an HTTP/JSON wire
// protocol between the central server and remote endpoint agents,
// promoting the paper's deployment topology (§3.3: one server driving
// 1,136 cooperating endpoints) from in-process function calls to a real
// transport.
//
// The server accepts failure reports, schedules one diagnosis campaign
// per (tenant, bug) under a supervise.Supervisor, streams
// tracking plans to agents, collects run traces, and serves finished
// sketches. Agents register, long-poll for work, record production runs
// with core.RecordRun — the first half of the core.RunInstrumented path
// the in-process fleet uses — and upload each core's raw PT ring buffer
// with the trap log; the server finishes every run with core.FinishRun,
// the second half, so it decodes exactly what an in-process run would.
//
// Correctness across an unreliable wire rests on four properties:
//
//   - Determinism. A production run is a pure function of (plan, spec,
//     fault decision), and the campaign admits results strictly in
//     dispatch order — so where a run executes (in-process worker,
//     remote agent, a different remote agent after a reassignment)
//     cannot change a byte of the diagnosis.
//   - Idempotency. Every task has a server-assigned ID that doubles as
//     the upload's idempotency key: retried or duplicated uploads admit
//     exactly once.
//   - Leases. An agent holds a task under a lease; a lease that expires
//     (agent death, network partition) sends the task back to the queue
//     for reassignment. Tasks that exhaust their attempt budget — or
//     that sit unassigned while no live agent exists — are reported
//     lost, which feeds the campaign's existing retry/quorum machinery
//     and degrades the sketch to low-confidence instead of hanging.
//   - Checksums. Every request body carries a CRC-32C; a corrupted body
//     is rejected before decoding and the client retries.
//
// The wire never ships a fault decision or a tracking plan: both are
// pure functions of data the agent already has (the bug's compiled
// program, the shipped window and feature gates, the shipped endpoint
// fault Config), so the agent re-derives them locally. That keeps every
// unexported-field type off the wire and makes a corrupted plan
// impossible by construction.
package service

import (
	"hash/crc32"
	"strconv"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/faults"
	"repro/internal/hw/watch"
	"repro/internal/vm"
)

// Wire paths. All task-flow endpoints are POST + JSON; the sketch and
// status reads are POSTs too so every call shares one checksummed
// codec.
const (
	PathSubmit    = "/v1/reports"
	PathStatus    = "/v1/status"
	PathSketch    = "/v1/sketch"
	PathRegister  = "/v1/agents/register"
	PathPoll      = "/v1/agents/poll"
	PathHeartbeat = "/v1/agents/heartbeat"
	PathUpload    = "/v1/traces"
	PathHealthz   = "/v1/healthz"
	PathHealth    = "/v1/health"
)

// ChecksumHeader carries the CRC-32C (Castagnoli) of the request body,
// in decimal. The server rejects a body whose checksum disagrees with
// HTTP 400 before decoding a byte of JSON.
const ChecksumHeader = "X-Gist-Crc32c"

// RetryAfterMsHeader carries the server's shed back-pressure hint in
// milliseconds alongside the standard integer-seconds Retry-After
// header. Sub-second token-bucket refills need the precision; clients
// prefer this header and fall back to Retry-After.
const RetryAfterMsHeader = "X-Gist-Retry-After-Ms"

var wireCastagnoli = crc32.MakeTable(crc32.Castagnoli)

// bodyChecksum returns the wire checksum of a request body.
func bodyChecksum(body []byte) string {
	return strconv.FormatUint(uint64(crc32.Checksum(body, wireCastagnoli)), 10)
}

// SubmitRequest asks the server to diagnose one failure for one tenant.
// When Report is set the submit is a production failure report: the
// server dedups on the report's failure signature (vm.FailureReport.ID),
// so two distinct root causes filed under one bug name stay two
// campaigns, and every recurrence of a known signature folds into the
// live campaign as evidence instead of launching a duplicate. A nil
// Report asks the server to discover the failure itself and dedups on
// the bug name alone (the pre-ingest behavior).
type SubmitRequest struct {
	Tenant string `json:"tenant"`
	Bug    string `json:"bug"`
	// Report is the observed failure; nil means server-side discovery.
	Report *vm.FailureReport `json:"report,omitempty"`
	// Seed is the production run seed that produced Report (recorded as
	// cluster evidence).
	Seed int64 `json:"seed,omitempty"`
	// DiscoveryRuns is how many runs the reporter needed to hit the
	// failure — the campaign's run-budget accounting needs it to match a
	// server-side discovery byte for byte.
	DiscoveryRuns int `json:"discovery_runs,omitempty"`
	// DeadlineMs bounds the diagnosis end to end, relative to admission
	// (0 = none). The server stamps an absolute deadline on the campaign
	// and its tasks, ships the remaining budget to agents with each
	// lease, and fails the campaign — rather than serving a partial
	// sketch — when the deadline expires.
	DeadlineMs int64 `json:"deadline_ms,omitempty"`
}

// SubmitResponse acknowledges a submission.
type SubmitResponse struct {
	Tenant string `json:"tenant"`
	Bug    string `json:"bug"`
	// Signature is the failure signature the report was deduped on; ""
	// for a discovery submit.
	Signature string `json:"signature,omitempty"`
	// Duplicate marks a report folded into an existing campaign.
	Duplicate bool `json:"duplicate,omitempty"`
	// Reports is the signature's recurrence count including this report.
	Reports int `json:"reports,omitempty"`
}

// StatusRequest asks for one campaign's state. Signature selects among
// campaigns filed under one bug name; "" addresses the discovery-submit
// campaign.
type StatusRequest struct {
	Tenant    string `json:"tenant"`
	Bug       string `json:"bug"`
	Signature string `json:"signature,omitempty"`
}

// Campaign states reported by StatusResponse.
const (
	StateUnknown = "unknown" // no such campaign
	// StateQueued marks an admitted novel signature parked in the
	// bounded launch queue behind the global in-flight cap.
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
	// StateDrained marks a campaign checkpointed and suspended by a
	// server drain; its diagnosis resumes from the durable generation.
	StateDrained = "drained"
)

// StatusResponse reports a campaign's state.
type StatusResponse struct {
	State         string `json:"state"`
	Err           string `json:"err,omitempty"`
	LowConfidence bool   `json:"low_confidence,omitempty"`
	Restarts      int    `json:"restarts,omitempty"`
}

// SketchRequest asks for a finished sketch. Signature selects among
// campaigns filed under one bug name, as in StatusRequest.
type SketchRequest struct {
	Tenant    string `json:"tenant"`
	Bug       string `json:"bug"`
	Signature string `json:"signature,omitempty"`
}

// SketchResponse carries the finished sketch. Sketch holds the exact
// bytes of the sketch's indented-JSON rendering — the server marshals
// once and ships verbatim, so a loopback client and an in-process run
// can be diffed byte for byte.
type SketchResponse struct {
	Ready  bool   `json:"ready"`
	Sketch []byte `json:"sketch,omitempty"`
}

// RegisterRequest announces an agent to the server.
type RegisterRequest struct {
	Tenant string `json:"tenant"`
	Agent  string `json:"agent"`
}

// RegisterResponse acknowledges registration and tells the agent its
// lease terms.
type RegisterResponse struct {
	LeaseMs int64 `json:"lease_ms"`
}

// PollRequest long-polls for one task. The server holds the request
// open up to WaitMs (capped by the server's poll timeout) when no work
// is queued. Polling also renews the agent's liveness.
type PollRequest struct {
	Tenant string `json:"tenant"`
	Agent  string `json:"agent"`
	WaitMs int64  `json:"wait_ms"`
}

// PollResponse carries at most one task; Task is nil when the poll
// timed out empty.
type PollResponse struct {
	Task *WireTask `json:"task,omitempty"`
}

// HeartbeatRequest renews the leases of an agent mid-run, so a long
// production run is not mistaken for a dead agent.
type HeartbeatRequest struct {
	Tenant string `json:"tenant"`
	Agent  string `json:"agent"`
}

// HeartbeatResponse acknowledges a heartbeat.
type HeartbeatResponse struct {
	OK bool `json:"ok"`
}

// WireTask is one production run assigned to an agent. The agent
// rebuilds the tracking plan locally with core.BuildPlan over its own
// compiled copy of Bug's program — BuildPlan is deterministic, so the
// shipped instruction window and feature gates pin the plan exactly —
// and re-derives the endpoint fault decision from Faults, which is a
// pure function of (Faults.Seed, Spec.EndpointID, Spec.Seed).
type WireTask struct {
	TaskID  uint64        `json:"task_id"`
	Tenant  string        `json:"tenant"`
	Bug     string        `json:"bug"`
	Window  []int         `json:"window"`
	Feats   core.Features `json:"feats"`
	Spec    core.RunSpec  `json:"spec"`
	Faults  faults.Config `json:"faults"`
	Attempt int           `json:"attempt"`
	// DeadlineMs is the run budget remaining at lease time: 0 means no
	// deadline, negative means the deadline already passed and the agent
	// must decline the run (the reaper writes it off server-side).
	DeadlineMs int64 `json:"deadline_ms,omitempty"`
}

// UploadRequest delivers one finished run. TaskID is the idempotency
// key: the server admits each task's trace exactly once, no matter how
// many times a retry or a duplicating network delivers it. Crashed
// marks a run whose endpoint fault decision killed it — the agent is
// alive, the simulated endpoint died, and the server must admit a nil
// trace (distinct from an agent that vanished, which the lease reaper
// handles).
type UploadRequest struct {
	Tenant  string `json:"tenant"`
	Agent   string `json:"agent"`
	TaskID  uint64 `json:"task_id"`
	Crashed bool   `json:"crashed,omitempty"`
	// Trace travels under "run", not the "trace" key that once carried
	// decoded flow: across a mixed-version fleet each side finds neither
	// a run nor a crash marker in the other's upload and answers 400,
	// instead of admitting a run with nothing to decode.
	Trace *WireTrace `json:"run,omitempty"`
}

// UploadResponse acknowledges an upload. Duplicate marks a delivery
// that admitted nothing: with Accepted, the task ID was issued here and
// is already settled (admitted once, or written off); without it, the
// ID names no task of this tenant that this server can take (never
// issued here, or another run's). The agent treats every reply as
// success.
type UploadResponse struct {
	Accepted  bool `json:"accepted"`
	Duplicate bool `json:"duplicate,omitempty"`
}

// ErrorResponse is the JSON body of every non-200 reply.
type ErrorResponse struct {
	Err string `json:"err"`
}

// HealthResponse is the /v1/health readiness report: queue depths, shed
// counters, and the fleet-health aggregate across finished campaigns.
// Unlike the liveness probe (/v1/healthz, always 200 while the process
// runs), /v1/health answers 503 when the server is draining or its
// launch queue is full — the signal a load balancer needs to steer
// submits elsewhere.
type HealthResponse struct {
	Ready    bool `json:"ready"`
	Draining bool `json:"draining,omitempty"`
	// InflightCampaigns is how many campaigns hold a launch slot;
	// QueuedLaunches how many admitted novel signatures are parked
	// behind the in-flight cap (including ones racing to a free slot),
	// and MaxQueuedLaunches the high-water mark of occupancy beyond the
	// cap over the server's life — the admission gate bounds it by the
	// launch budget.
	InflightCampaigns int `json:"inflight_campaigns"`
	QueuedLaunches    int `json:"queued_launches"`
	MaxQueuedLaunches int `json:"max_queued_launches"`
	// QueuedTasks is the sum of all tenants' dispatch queues, bounded
	// by the in-flight cap (a settled task leaves the task table).
	QueuedTasks int `json:"queued_tasks"`
	// Counters are the server's scalar health counters, shed and hedge
	// counters included.
	Counters Counters `json:"counters"`
	// Fleet aggregates FleetHealth across every finished campaign.
	Fleet core.FleetHealth `json:"fleet"`
}

// WireTrace is the endpoint's half of a core.RunTrace (core.RecordRun)
// flattened for JSON: the spec, the outcome, each core's raw PT ring
// buffer, the watchpoint trap log, and the cost meter's two raw
// counters. Everything else — the decoded flow and branches, the decode
// error, the salvaged-core count, the in-flight trap loss and
// truncation, the late mark — the server derives with core.FinishRun,
// so the upload ships only what the server cannot regenerate.
type WireTrace struct {
	Spec    core.RunSpec  `json:"spec"`
	Outcome *vm.Outcome   `json:"outcome,omitempty"`
	PT      []core.PTCore `json:"pt,omitempty"`
	Traps   []watch.Trap  `json:"traps,omitempty"`
	BaseMC  int64         `json:"base_mc"`
	ExtraMC int64         `json:"extra_mc"`
}

// EncodeTrace flattens a recorded run for the wire. Nil stays nil (a
// crashed endpoint).
func EncodeTrace(rt *core.RunTrace) *WireTrace {
	if rt == nil {
		return nil
	}
	base, extra := rt.Meter.MC()
	return &WireTrace{
		Spec:    rt.Spec,
		Outcome: rt.Outcome,
		PT:      rt.PT,
		Traps:   rt.Traps,
		BaseMC:  base,
		ExtraMC: extra,
	}
}

// DecodeTrace rebuilds a recorded run from the wire, ready for
// core.FinishRun; the meter is rebuilt exactly.
func DecodeTrace(w *WireTrace) *core.RunTrace {
	if w == nil {
		return nil
	}
	return &core.RunTrace{
		Spec:    w.Spec,
		Outcome: w.Outcome,
		PT:      w.PT,
		Traps:   w.Traps,
		Meter:   cost.MeterFromMC(w.BaseMC, w.ExtraMC),
	}
}
