package pt

import (
	"sync"

	"repro/internal/cost"
)

// Mode selects the cost model of the tracer.
type Mode int

// Tracer modes.
const (
	// Hardware models Intel PT: near-zero per-instruction cost, small
	// per-packet costs.
	Hardware Mode = iota
	// Software models a dynamic-binary-instrumentation tracer (the
	// paper's PIN-based Intel PT simulator): every retired instruction
	// pays an instrumentation tax and branches are far more expensive.
	Software
)

// Config configures a Tracer.
type Config struct {
	// BufBytes is the per-core ring buffer size; 0 means 2 MB (the size
	// used by the paper's kernel driver).
	BufBytes int
	// Mode selects hardware or software cost accounting.
	Mode Mode
}

// DefaultBufBytes is the default per-core trace buffer size.
const DefaultBufBytes = 2 << 20

// syncEvery is how many packets apart the tracer emits a PSB sync point
// (plus a PGE re-anchor at the next event).
const syncEvery = 256

func (c Config) withDefaults() Config {
	if c.BufBytes == 0 {
		c.BufBytes = DefaultBufBytes
	}
	return c
}

// coreTrace is the per-core encoder state.
type coreTrace struct {
	buf      []byte
	wrapped  bool
	enabled  bool
	pending  [5]bool // TNT bits not yet flushed into a packet
	npending int
	packets  int
	needSync bool
}

// Tracer is the per-core Intel PT encoder. Each VM thread maps to its own
// core, which gives exactly the paper's trace semantics: per-core order
// only.
type Tracer struct {
	cfg Config
	// cores is indexed by core ID (thread IDs are small and dense), so
	// the per-event "is tracing on for this core" question is an index
	// and a field load. A nil entry is a core that never appeared.
	cores []*coreTrace
	meter *cost.Meter
}

// NewTracer returns a tracer charging costs to meter (which may be nil).
func NewTracer(cfg Config, meter *cost.Meter) *Tracer {
	return &Tracer{cfg: cfg.withDefaults(), meter: meter}
}

// bufPool recycles per-core ring buffers across runs. A fleet executes
// thousands of runs, each of which would otherwise grow a fresh trace
// buffer (up to BufBytes) per thread; a released buffer keeps its
// capacity and the next run's encoder appends into it allocation-free.
var bufPool sync.Pool

func (t *Tracer) core(id int) *coreTrace {
	if id < len(t.cores) {
		if c := t.cores[id]; c != nil {
			return c
		}
	}
	return t.addCore(id)
}

func (t *Tracer) addCore(id int) *coreTrace {
	for id >= len(t.cores) {
		t.cores = append(t.cores, nil)
	}
	c := &coreTrace{}
	if b, ok := bufPool.Get().([]byte); ok {
		c.buf = b[:0]
	}
	t.cores[id] = c
	return c
}

// Release parks every core's trace buffer on the package pool and
// detaches it from the tracer. Callers must be completely done with the
// run's trace data — including slices returned by CoreBytes — before
// releasing; the endpoint client calls it after the decode phase (decoded
// flow, branches and data never alias the ring buffers).
func (t *Tracer) Release() {
	for _, c := range t.cores {
		if c != nil && cap(c.buf) > 0 {
			bufPool.Put(c.buf[:0])
		}
	}
	t.cores = nil
}

func (t *Tracer) charge(mc int64) {
	if t.meter != nil {
		t.meter.AddExtra(mc)
	}
}

// emit takes c.buf with one more packet encoded onto its end (the
// encoders append in place, so a packet costs no allocation of its own)
// and applies the ring-buffer bound: when the buffer exceeds its
// capacity, the oldest bytes are discarded and the core is marked wrapped
// (the decoder will resync at a PSB).
func (t *Tracer) emit(c *coreTrace, buf []byte) {
	c.buf = buf
	if over := len(c.buf) - t.cfg.BufBytes; over > 0 {
		c.buf = c.buf[over:]
		c.wrapped = true
	}
	c.packets++
	if c.packets%syncEvery == 0 {
		c.needSync = true
	}
}

// flushTNT emits any buffered TNT bits as a packet.
func (t *Tracer) flushTNT(c *coreTrace) {
	if c.npending == 0 {
		return
	}
	t.emit(c, encodeTNT(c.buf, c.pending[:c.npending]))
	c.npending = 0
}

// maybeSync emits PSB + PGE(ip) if a sync point is due. It must be called
// with the current instruction ip so the decoder can re-anchor.
func (t *Tracer) maybeSync(c *coreTrace, ip int) {
	if !c.needSync {
		return
	}
	c.needSync = false
	t.flushTNT(c)
	t.emit(c, encodePSB(c.buf))
	t.emit(c, encodePGE(c.buf, ip))
}

// Enabled reports whether tracing is on for the core. Like every per-core
// call it makes the core known to the tracer: Cores lists a core that was
// only ever asked about, with an empty trace.
func (t *Tracer) Enabled(core int) bool { return t.core(core).enabled }

// Enable turns tracing on for core, anchored at instruction ip.
func (t *Tracer) Enable(core, ip int) {
	c := t.core(core)
	if c.enabled {
		return
	}
	c.enabled = true
	t.emit(c, encodePGE(c.buf, ip))
	t.charge(cost.PTToggleMC)
}

// Disable turns tracing off for core. lastIP is the instruction at which
// tracing stops; it is emitted as a FUP packet so the decoder can
// truncate the reconstructed flow precisely, as real PT does on
// asynchronous trace stops. Pass a negative lastIP to omit the FUP.
func (t *Tracer) Disable(core, lastIP int) {
	c := t.core(core)
	if !c.enabled {
		return
	}
	c.enabled = false
	t.flushTNT(c)
	if lastIP >= 0 {
		t.emit(c, encodeFUP(c.buf, lastIP))
	}
	t.emit(c, encodePGD(c.buf))
	t.charge(cost.PTToggleMC)
}

// Branch records a conditional branch outcome executed at instruction ip.
func (t *Tracer) Branch(core, ip int, taken bool) {
	c := t.core(core)
	if !c.enabled {
		return
	}
	t.maybeSync(c, ip)
	c.pending[c.npending] = taken
	c.npending++
	if c.npending == len(c.pending) {
		t.flushTNT(c)
	}
	switch t.cfg.Mode {
	case Hardware:
		t.charge(cost.PTBranchMC)
	case Software:
		t.charge(cost.SWPTBranchMC)
	}
}

// TIP records an indirect control transfer (call or return) executed at
// instruction ip with the given target.
func (t *Tracer) TIP(core, ip, target int) {
	c := t.core(core)
	if !c.enabled {
		return
	}
	t.maybeSync(c, ip)
	t.flushTNT(c)
	t.emit(c, encodeTIP(c.buf, target))
	switch t.cfg.Mode {
	case Hardware:
		t.charge(cost.PTTIPMC)
	case Software:
		t.charge(cost.SWPTBranchMC)
	}
}

// Data records a shared-memory access in the extended-PT mode: address,
// value, access kind, and a TSC timestamp that gives cross-core order —
// the hardware extension §6 of the paper wishes for ("if Intel PT also
// captured a trace of the data addresses and values ... we could
// eliminate the need for hardware watchpoints and the complexity of a
// cooperative approach").
func (t *Tracer) Data(core, ip int, addr, val, size int64, isWrite bool, tsc int64) {
	c := t.core(core)
	if !c.enabled {
		return
	}
	t.maybeSync(c, ip)
	t.flushTNT(c)
	t.emit(c, encodePTW(c.buf, ip, addr, val, size, isWrite, tsc))
	t.charge(cost.PTWDataMC)
}

// InstrRetired accounts one retired instruction on core while tracing is
// enabled. In hardware mode this is free; in software mode every
// instruction pays the instrumentation tax.
func (t *Tracer) InstrRetired(core int) {
	c := t.core(core)
	if !c.enabled {
		return
	}
	if t.cfg.Mode == Software {
		t.charge(cost.SWPTInstrMC)
	}
}

// CoreBytes returns the raw trace buffer of a core and whether it wrapped.
// Pending TNT bits are flushed first so the returned buffer is complete.
func (t *Tracer) CoreBytes(core int) (data []byte, wrapped bool) {
	c := t.core(core)
	t.flushTNT(c)
	return c.buf, c.wrapped
}

// Cores returns the IDs of all cores the tracer has seen, sorted.
func (t *Tracer) Cores() []int {
	var ids []int
	for id, c := range t.cores {
		if c != nil {
			ids = append(ids, id)
		}
	}
	return ids
}

// BufferedBytes reports the total bytes currently buffered across cores
// (trace volume, §6's concern for highly concurrent software).
func (t *Tracer) BufferedBytes() int {
	n := 0
	for _, c := range t.cores {
		if c != nil {
			n += len(c.buf)
		}
	}
	return n
}
