// Package faults is the deterministic fault injector for the simulated
// endpoint fleet. Gist's premise is diagnosis from *in-production* runs
// (§3.2), and production fleets are not the clean room the rest of the
// simulator provides: endpoints crash or hang mid-run, PT ring buffers
// overflow, trace bytes get corrupted in transit, watchpoint traps are
// dropped or reordered by the delivery path, and reports arrive
// truncated. This package injects exactly those failure classes, per
// run, from a seeded stream, so that every degraded-mode code path of
// the server can be exercised deterministically.
//
// Determinism contract: the injected faults for a run are a pure
// function of (Config.Seed, endpoint ID, run seed). A disabled Config
// (the zero value) produces a nil *Injector whose decisions are all
// zero — callers on the clean path never draw randomness, so behavior
// with injection disabled is byte-identical to a build without this
// package.
package faults

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"repro/internal/hw/watch"
)

// Config sets per-run fault probabilities for the simulated fleet. All
// rates are in [0, 1] and independent; one run can suffer several fault
// classes at once (a crashing endpoint trivially also loses its traps).
// The zero value disables injection entirely.
type Config struct {
	// Seed salts the per-run fault stream. Two fleets with the same
	// rates but different seeds fail in different places.
	Seed int64

	// CrashRate is the probability an endpoint dies mid-run: its report
	// never reaches the server.
	CrashRate float64
	// HangRate is the probability an endpoint wedges: its report exists
	// but arrives past the server's per-run deadline.
	HangRate float64
	// OverflowRate is the probability the endpoint's PT ring buffer is
	// squeezed hard enough to overflow, forcing the decoder to resync at
	// a PSB and lose the trace prefix.
	OverflowRate float64
	// CorruptRate is the probability the raw PT trace bytes are
	// corrupted in flight (bit rot, truncated DMA, torn writes).
	CorruptRate float64
	// TrapDropRate is the probability the run's watchpoint trap log
	// loses a fraction of its entries.
	TrapDropRate float64
	// TrapReorderRate is the probability adjacent trap records are
	// swapped by the delivery path, breaking clock order.
	TrapReorderRate float64
	// TruncateRate is the probability a RunTrace field is truncated in
	// flight (outcome header lost, trap log chopped, a core's branch
	// observations dropped).
	TruncateRate float64

	// DiskRate is the probability one checkpoint write to the durable
	// store suffers a disk fault (torn write, post-write bit flip,
	// dropped rename, or fsync error, picked uniformly). Unlike the
	// per-run classes above, disk faults are drawn per (store name,
	// generation) by ForCheckpoint and never touch the pipeline's
	// per-run streams, so enabling them leaves every diagnosis
	// byte-identical.
	DiskRate float64

	// TransportRate is the probability one service RPC attempt is hit by
	// a transport fault (dropped request, delayed response, duplicated
	// delivery, corrupted body, or mid-response disconnect, picked
	// uniformly). Like DiskRate this is not a per-run class: decisions
	// are drawn per (tenant, agent, request, attempt) by ForRequest, so
	// retried attempts draw fresh decisions and an unlucky request can
	// never wedge an agent forever.
	TransportRate float64

	// SlowRate is the probability an agent's execution of one task is
	// artificially delayed — the straggler fault the hedged-dispatch
	// path exists for. Like DiskRate and TransportRate this is not a
	// per-run pipeline class: decisions are drawn per (tenant, agent,
	// task) by ForSlowdown from a separately keyed stream, so enabling
	// it cannot shift any per-run fault decision and every diagnosis
	// stays byte-identical — only its timing changes.
	SlowRate float64
	// SlowMeanMs is the mean injected delay in milliseconds for a slow
	// task; 0 means 200. Actual delays are jittered in [0.5, 3.0]× the
	// mean from the decision's seeded stream.
	SlowMeanMs int

	// DropFraction is the fraction of traps dropped within an affected
	// run; 0 means 0.3.
	DropFraction float64
	// OverflowBufBytes is the forced ring-buffer size for overflow
	// faults; 0 means 512 bytes (small enough that any realistic traced
	// region wraps).
	OverflowBufBytes int
}

// Enabled reports whether any fault class has a nonzero rate.
func (c Config) Enabled() bool {
	return c.CrashRate > 0 || c.HangRate > 0 || c.OverflowRate > 0 ||
		c.CorruptRate > 0 || c.TrapDropRate > 0 || c.TrapReorderRate > 0 ||
		c.TruncateRate > 0 || c.DiskRate > 0 || c.TransportRate > 0 ||
		c.SlowRate > 0
}

// Rates returns the per-run pipeline class probabilities by name, in a
// fixed order. DiskRate is deliberately not listed: it is a per-write
// store-layer class, not a per-run class, and Composite never sets it.
func (c Config) Rates() map[string]float64 {
	return map[string]float64{
		"crash":    c.CrashRate,
		"hang":     c.HangRate,
		"overflow": c.OverflowRate,
		"corrupt":  c.CorruptRate,
		"drop":     c.TrapDropRate,
		"reorder":  c.TrapReorderRate,
		"truncate": c.TruncateRate,
	}
}

// Validate rejects configurations whose probabilities are not actual
// probabilities. It is the library-level guard behind the CLI flag
// checks: a rate outside [0, 1] would make rng.Float64() < rate either
// always or never true, silently degenerating the fault model instead
// of failing loudly.
func (c Config) Validate() error {
	for name, rate := range c.Rates() {
		if rate < 0 || rate > 1 {
			return fmt.Errorf("faults: %s rate %g outside [0,1]", name, rate)
		}
	}
	if c.DiskRate < 0 || c.DiskRate > 1 {
		return fmt.Errorf("faults: disk rate %g outside [0,1]", c.DiskRate)
	}
	if c.TransportRate < 0 || c.TransportRate > 1 {
		return fmt.Errorf("faults: transport rate %g outside [0,1]", c.TransportRate)
	}
	if c.SlowRate < 0 || c.SlowRate > 1 {
		return fmt.Errorf("faults: slow rate %g outside [0,1]", c.SlowRate)
	}
	if c.SlowMeanMs < 0 {
		return fmt.Errorf("faults: slow mean %d ms is negative", c.SlowMeanMs)
	}
	if c.DropFraction < 0 || c.DropFraction > 1 {
		return fmt.Errorf("faults: drop fraction %g outside [0,1]", c.DropFraction)
	}
	if c.OverflowBufBytes < 0 {
		return fmt.Errorf("faults: overflow buffer %d bytes is negative", c.OverflowBufBytes)
	}
	return nil
}

// Composite returns a Config that spreads one composite fault rate
// across every fault class: rate is the probability that a run is hit
// by at least roughly one fault, split evenly so no single class
// dominates. This is the knob the chaos experiment sweeps.
//
// rate is clamped to [0, 1] first, so no class probability can leave
// [0, 1/7] no matter what a CLI flag or library caller passes in
// (rate 1.5 used to flow straight through and silently skew the split).
func Composite(seed int64, rate float64) Config {
	if rate < 0 {
		rate = 0
	} else if rate > 1 {
		rate = 1
	}
	per := rate / 7
	return Config{
		Seed:            seed,
		CrashRate:       per,
		HangRate:        per,
		OverflowRate:    per,
		CorruptRate:     per,
		TrapDropRate:    per,
		TrapReorderRate: per,
		TruncateRate:    per,
	}
}

// Disk returns a Config injecting only store-layer disk faults: rate is
// the probability one checkpoint write is hit by exactly one of the four
// durability fault kinds (picked uniformly). rate is clamped to [0, 1]
// like Composite's. This is the knob the crash-loop test in
// internal/supervise sweeps.
func Disk(seed int64, rate float64) Config {
	if rate < 0 {
		rate = 0
	} else if rate > 1 {
		rate = 1
	}
	return Config{Seed: seed, DiskRate: rate}
}

// Transport returns a Config injecting only service-transport faults:
// rate is the probability one RPC attempt is hit by exactly one of the
// five transport fault kinds (picked uniformly). rate is clamped to
// [0, 1] like Composite's. This is the knob the service chaos tests and
// the -transport-fault-rate flag sweep.
func Transport(seed int64, rate float64) Config {
	if rate < 0 {
		rate = 0
	} else if rate > 1 {
		rate = 1
	}
	return Config{Seed: seed, TransportRate: rate}
}

// Slowdown returns a Config injecting only agent-slowdown faults: rate
// is the probability one task execution is delayed, meanMs the mean
// delay (0 = 200ms). rate is clamped to [0, 1] like Composite's. This
// is the knob the service overload test's slow agents turn.
func Slowdown(seed int64, rate float64, meanMs int) Config {
	if rate < 0 {
		rate = 0
	} else if rate > 1 {
		rate = 1
	}
	return Config{Seed: seed, SlowRate: rate, SlowMeanMs: meanMs}
}

// String summarizes the configuration for experiment tables.
func (c Config) String() string {
	if !c.Enabled() {
		return "faults: disabled"
	}
	return fmt.Sprintf("faults: crash=%.3f hang=%.3f overflow=%.3f corrupt=%.3f drop=%.3f reorder=%.3f truncate=%.3f",
		c.CrashRate, c.HangRate, c.OverflowRate, c.CorruptRate,
		c.TrapDropRate, c.TrapReorderRate, c.TruncateRate)
}

// Injector derives per-run fault decisions. A nil injector is valid and
// never injects anything.
type Injector struct {
	cfg Config
}

// NewInjector returns an injector for cfg, or nil when cfg is disabled
// so clean-path callers pay nothing.
func NewInjector(cfg Config) *Injector {
	if !cfg.Enabled() {
		return nil
	}
	if cfg.DropFraction == 0 {
		cfg.DropFraction = 0.3
	}
	if cfg.OverflowBufBytes == 0 {
		cfg.OverflowBufBytes = 512
	}
	return &Injector{cfg: cfg}
}

// TruncateKind selects which RunTrace field a truncation fault eats.
type TruncateKind int

// Truncation targets.
const (
	// TruncateNone: no truncation.
	TruncateNone TruncateKind = iota
	// TruncateOutcome drops the run outcome header; the report is
	// useless and the server must quarantine it.
	TruncateOutcome
	// TruncateTraps chops a suffix of the watchpoint trap log.
	TruncateTraps
	// TruncateBranches drops one core's branch observations.
	TruncateBranches
)

// Decision is the set of faults injected into one production run. The
// zero value injects nothing.
type Decision struct {
	// Crash: the endpoint dies; the report never arrives.
	Crash bool
	// Hang: the report arrives past the server's per-run deadline.
	Hang bool
	// Overflow: the PT ring buffer is forced down to OverflowBufBytes.
	Overflow bool
	// Corrupt: trace bytes are flipped in flight.
	Corrupt bool
	// DropTraps / ReorderTraps: the watchpoint trap log is degraded.
	DropTraps    bool
	ReorderTraps bool
	// Truncate selects a RunTrace field to truncate.
	Truncate TruncateKind

	dropFraction float64
	bufBytes     int
	rng          *rand.Rand
}

// Any reports whether the decision injects at least one fault.
func (d Decision) Any() bool {
	return d.Crash || d.Hang || d.Overflow || d.Corrupt ||
		d.DropTraps || d.ReorderTraps || d.Truncate != TruncateNone
}

// ForRun derives the fault decision for one run, a pure function of the
// injector seed and the run's identity.
func (i *Injector) ForRun(endpoint int, seed int64) Decision {
	if i == nil {
		return Decision{}
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%d|%d", i.cfg.Seed, endpoint, seed)
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	d := Decision{
		Crash:        rng.Float64() < i.cfg.CrashRate,
		Hang:         rng.Float64() < i.cfg.HangRate,
		Overflow:     rng.Float64() < i.cfg.OverflowRate,
		Corrupt:      rng.Float64() < i.cfg.CorruptRate,
		DropTraps:    rng.Float64() < i.cfg.TrapDropRate,
		ReorderTraps: rng.Float64() < i.cfg.TrapReorderRate,
		dropFraction: i.cfg.DropFraction,
		bufBytes:     i.cfg.OverflowBufBytes,
		rng:          rng,
	}
	if rng.Float64() < i.cfg.TruncateRate {
		d.Truncate = TruncateKind(1 + rng.Intn(3))
	}
	return d
}

// BufBytes returns the PT ring-buffer size the client must use: the
// forced tiny buffer under an overflow fault, dflt otherwise (0 keeps
// the tracer's own default).
func (d Decision) BufBytes(dflt int) int {
	if d.Overflow {
		return d.bufBytes
	}
	return dflt
}

// CorruptTrace flips a few bytes of a copy of buf, modeling in-flight
// trace corruption. The number and positions of flipped bytes come from
// the decision's seeded stream. Empty buffers pass through untouched.
func (d Decision) CorruptTrace(buf []byte) []byte {
	if !d.Corrupt || len(buf) == 0 {
		return buf
	}
	out := append([]byte(nil), buf...)
	n := 1 + d.rng.Intn(8)
	for k := 0; k < n; k++ {
		pos := d.rng.Intn(len(out))
		out[pos] ^= byte(1 + d.rng.Intn(255))
	}
	return out
}

// ApplyTraps degrades a trap log per the decision: dropped entries,
// then adjacent swaps that break clock order. It returns the degraded
// log and how many entries were dropped and reordered.
func (d Decision) ApplyTraps(traps []watch.Trap) (out []watch.Trap, dropped, reordered int) {
	out = traps
	if d.DropTraps && len(out) > 0 {
		kept := make([]watch.Trap, 0, len(out))
		for _, tr := range out {
			if d.rng.Float64() < d.dropFraction {
				dropped++
				continue
			}
			kept = append(kept, tr)
		}
		out = kept
	}
	if d.ReorderTraps && len(out) > 1 {
		if &out[0] == &traps[0] {
			out = append([]watch.Trap(nil), out...)
		}
		n := 1 + d.rng.Intn(3)
		for k := 0; k < n; k++ {
			i := d.rng.Intn(len(out) - 1)
			out[i], out[i+1] = out[i+1], out[i]
			reordered++
		}
	}
	return out, dropped, reordered
}

// TruncateAt returns a truncation point in [0, n) for a field of length
// n, from the decision's seeded stream.
func (d Decision) TruncateAt(n int) int {
	if n <= 0 {
		return 0
	}
	return d.rng.Intn(n)
}

// PickCore picks one of the given core IDs for a per-core fault.
func (d Decision) PickCore(cores []int) int {
	if len(cores) == 0 {
		return 0
	}
	return cores[d.rng.Intn(len(cores))]
}

// DiskKind selects which durability fault a checkpoint write suffers.
// These model the classic crash-consistency hazards of an atomic-rename
// checkpoint protocol: data that never fully reached the platter, bit
// rot after the write, a rename the crash window swallowed, and an
// fsync the kernel failed.
type DiskKind int

// Disk fault kinds.
const (
	// DiskNone: the write is durable and intact.
	DiskNone DiskKind = iota
	// DiskTorn: only a prefix of the frame reaches the disk.
	DiskTorn
	// DiskFlip: one byte of the durable frame is flipped after the
	// write (latent media corruption the CRC must catch).
	DiskFlip
	// DiskRenameDrop: the rename publishing the generation never
	// happens; the temp file is left behind.
	DiskRenameDrop
	// DiskFsyncErr: fsync reports an error; the write must be treated
	// as lost.
	DiskFsyncErr
)

// String names the kind for store quarantine records and logs.
func (k DiskKind) String() string {
	switch k {
	case DiskNone:
		return "none"
	case DiskTorn:
		return "torn-write"
	case DiskFlip:
		return "bit-flip"
	case DiskRenameDrop:
		return "dropped-rename"
	case DiskFsyncErr:
		return "fsync-error"
	}
	return fmt.Sprintf("disk-kind-%d", int(k))
}

// DiskDecision is the durability fault injected into one checkpoint
// write. The zero value injects nothing.
type DiskDecision struct {
	Kind DiskKind
	rng  *rand.Rand
}

// Any reports whether the decision injects a fault.
func (d DiskDecision) Any() bool { return d.Kind != DiskNone }

// TornLen returns how many of the frame's n bytes survive a torn write,
// in [0, n), from the decision's seeded stream.
func (d DiskDecision) TornLen(n int) int {
	if n <= 0 {
		return 0
	}
	return d.rng.Intn(n)
}

// FlipByte picks the position and XOR mask of a post-write bit flip in
// an n-byte frame. The mask is never zero, so the flip always damages
// the frame.
func (d DiskDecision) FlipByte(n int) (pos int, mask byte) {
	if n <= 0 {
		return 0, 1
	}
	return d.rng.Intn(n), byte(1 + d.rng.Intn(255))
}

// TransportKind selects which wire-level fault an RPC attempt suffers.
// These model the classic failure modes of a datacenter transport: a
// request that never arrives, a response that arrives after the caller
// gave up, a retry storm delivering the same request twice, bytes
// damaged in flight, and a connection reset after the server already
// processed the call. The last three are precisely the cases that make
// idempotency keys and body checksums load-bearing.
type TransportKind int

// Transport fault kinds.
const (
	// TransportNone: the attempt goes through clean.
	TransportNone TransportKind = iota
	// TransportDrop: the request is lost before reaching the server.
	TransportDrop
	// TransportDelay: the server processes the call but the response
	// arrives after the caller's deadline; the caller must retry an
	// already-applied request.
	TransportDelay
	// TransportDuplicate: the request is delivered twice; the server
	// must deduplicate.
	TransportDuplicate
	// TransportCorrupt: request body bytes are flipped in flight; the
	// server's checksum must reject the call.
	TransportCorrupt
	// TransportDisconnect: the connection is reset mid-response, after
	// the server processed the call.
	TransportDisconnect
)

// String names the kind for logs and telemetry.
func (k TransportKind) String() string {
	switch k {
	case TransportNone:
		return "none"
	case TransportDrop:
		return "drop"
	case TransportDelay:
		return "delay"
	case TransportDuplicate:
		return "duplicate"
	case TransportCorrupt:
		return "corrupt"
	case TransportDisconnect:
		return "disconnect"
	}
	return fmt.Sprintf("transport-kind-%d", int(k))
}

// TransportDecision is the wire fault injected into one RPC attempt.
// The zero value injects nothing.
type TransportDecision struct {
	Kind TransportKind
	rng  *rand.Rand
}

// Any reports whether the decision injects a fault.
func (d TransportDecision) Any() bool { return d.Kind != TransportNone }

// CorruptBody flips a few bytes of a copy of body, modeling in-flight
// damage the server-side checksum must catch. Empty bodies pass through
// untouched.
func (d TransportDecision) CorruptBody(body []byte) []byte {
	if len(body) == 0 {
		return body
	}
	out := append([]byte(nil), body...)
	n := 1 + d.rng.Intn(4)
	for k := 0; k < n; k++ {
		pos := d.rng.Intn(len(out))
		out[pos] ^= byte(1 + d.rng.Intn(255))
	}
	return out
}

// ForRequest derives the transport-fault decision for one RPC attempt,
// a pure function of the injector seed and the attempt's identity
// (tenant, agent, request key, attempt number). Attempts are counted
// per request, so every retry draws a fresh decision and a faulted
// request can never starve forever. Nil-safe.
func (i *Injector) ForRequest(tenant, agent, request string, attempt int) TransportDecision {
	if i == nil || i.cfg.TransportRate <= 0 {
		return TransportDecision{}
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "net|%d|%s|%s|%s|%d", i.cfg.Seed, tenant, agent, request, attempt)
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	d := TransportDecision{rng: rng}
	if rng.Float64() < i.cfg.TransportRate {
		d.Kind = TransportKind(1 + rng.Intn(5))
	}
	return d
}

// SlowDecision is the straggler fault injected into one task execution.
// The zero value injects nothing.
type SlowDecision struct {
	Slow bool
	// Delay is how long the agent must stall before uploading; zero
	// unless Slow.
	Delay time.Duration
}

// Any reports whether the decision injects a fault.
func (d SlowDecision) Any() bool { return d.Slow }

// ForSlowdown derives the straggler decision for one task execution, a
// pure function of the injector seed and the execution's identity
// (tenant, agent, task ID). The agent is in the key, so a hedged
// re-dispatch of the same task to a different agent draws a fresh
// decision — exactly the property that lets a hedge beat a straggler.
// Nil-safe.
func (i *Injector) ForSlowdown(tenant, agent string, taskID uint64) SlowDecision {
	if i == nil || i.cfg.SlowRate <= 0 {
		return SlowDecision{}
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "slow|%d|%s|%s|%d", i.cfg.Seed, tenant, agent, taskID)
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	d := SlowDecision{}
	if rng.Float64() < i.cfg.SlowRate {
		mean := i.cfg.SlowMeanMs
		if mean <= 0 {
			mean = 200
		}
		d.Slow = true
		d.Delay = time.Duration(float64(mean)*(0.5+2.5*rng.Float64())) * time.Millisecond
	}
	return d
}

// Flood is a seeded burst generator modeling a tenant flood: it yields
// the deterministic inter-submit gaps of a bursty report stream whose
// long-run offered rate averages rps. Submissions inside a burst are
// back to back; the gap between bursts is jittered ±50% around
// burst/rps seconds. The service overload test drives its bully
// tenant from it so the flood replays exactly.
type Flood struct {
	rng   *rand.Rand
	rps   float64
	burst int
	pos   int
}

// NewFlood returns a flood schedule for the given seed, offered rate
// (submits/sec, min 1e-3) and burst size (min 1).
func NewFlood(seed int64, rps float64, burst int) *Flood {
	if rps < 1e-3 {
		rps = 1e-3
	}
	if burst < 1 {
		burst = 1
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "flood|%d|%g|%d", seed, rps, burst)
	return &Flood{rng: rand.New(rand.NewSource(int64(h.Sum64()))), rps: rps, burst: burst}
}

// Next returns the gap to wait before the next submission: zero within
// a burst, a jittered burst-sized gap at each burst boundary. The first
// burst fires immediately.
func (f *Flood) Next() time.Duration {
	var d time.Duration
	if f.pos > 0 && f.pos%f.burst == 0 {
		gap := float64(f.burst) / f.rps
		d = time.Duration(gap * (0.5 + f.rng.Float64()) * float64(time.Second))
	}
	f.pos++
	return d
}

// ForCheckpoint derives the disk-fault decision for one checkpoint
// write, a pure function of the injector seed and the write's identity
// (store name, generation number). Generations are monotonic, so every
// write draws a fresh decision and an unlucky generation can never
// wedge a store forever. Nil-safe.
func (i *Injector) ForCheckpoint(name string, gen uint64) DiskDecision {
	if i == nil || i.cfg.DiskRate <= 0 {
		return DiskDecision{}
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "disk|%d|%s|%d", i.cfg.Seed, name, gen)
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	d := DiskDecision{rng: rng}
	if rng.Float64() < i.cfg.DiskRate {
		d.Kind = DiskKind(1 + rng.Intn(4))
	}
	return d
}
