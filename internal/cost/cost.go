// Package cost is the deterministic cycle model used to report runtime
// overheads. Wall-clock time inside a simulator says nothing about the
// overhead the corresponding hardware/software mechanisms would impose on
// a production system, so — like architectural simulators — we charge
// every mechanism an explicit cost and report overhead as extra model
// cycles over base model cycles.
//
// Costs are expressed in millicycles (mc, 1/1000 of a model cycle) so that
// sub-cycle per-event costs stay in integer arithmetic.
//
// The constants are calibrated so that the *relative* overheads match the
// measurements reported in the paper's §5.3 and Fig. 13:
//
//   - full-program Intel PT tracing ≈ 11% average overhead,
//   - full-program software control-flow tracing (PIN-style) is 3×–5000×,
//   - full-program record/replay (Mozilla rr-style) ≈ 984% average,
//   - Gist's slice tracking at σ=2 ≈ 2–4% (control flow) + ~1% (data flow).
//
// Absolute magnitudes are meaningless by construction; shapes are what we
// reproduce.
package cost

// Model cost constants, in millicycles.
const (
	// InstrMC is the cost of retiring one IR instruction.
	InstrMC = 1_000

	// PTBranchMC is the hardware cost of recording one conditional-branch
	// outcome (TNT bit) with Intel PT: a fraction of a cycle of memory
	// bandwidth. Per-byte packing is accounted at the encoder.
	PTBranchMC = 700
	// PTTIPMC is the cost of a TIP packet (indirect transfer target).
	PTTIPMC = 1_800
	// PTToggleMC is the cost of turning tracing on or off (MSR write via
	// the kernel driver's ioctl path).
	PTToggleMC = 18_000

	// SWPTInstrMC is the per-instruction cost of software control-flow
	// tracing (dynamic binary instrumentation, PIN-style): every
	// instruction runs through the instrumentation engine.
	SWPTInstrMC = 2_400
	// SWPTBranchMC is the additional software cost per branch recorded.
	SWPTBranchMC = 45_000

	// WatchTrapMC is the cost of one hardware watchpoint trap delivered
	// through the debug exception + handler path.
	WatchTrapMC = 90_000
	// WatchSetupMC is the cost of installing or clearing one watchpoint
	// via the ptrace interface.
	WatchSetupMC = 40_000

	// PTWDataMC is the cost of one PTW data packet in the extended-PT
	// mode (§6's "if Intel PT also captured data addresses and values"):
	// a packet write, far cheaper than a ptrace-delivered debug trap but
	// emitted for every shared access inside a traced region.
	PTWDataMC = 2_200

	// RREventMC is the per-logged-event cost of software record/replay
	// (every shared memory access and scheduling decision is logged with
	// synchronization, Mozilla rr-style).
	RREventMC = 26_000
	// RRSerializeMC is the per-instruction cost of record/replay's
	// single-core serialization, charged while more than one thread is
	// runnable: rr runs the whole program on one core, so parallel
	// applications lose their parallelism — the dominant term in the
	// paper's Fig. 13 for the threaded programs (and absent for the
	// single-threaded ones, where rr is comparable to PT).
	RRSerializeMC = 9_000
)

// Meter accumulates base work and instrumentation overhead for one run.
// The zero value is ready to use.
type Meter struct {
	baseMC  int64
	extraMC int64
}

// AddInstr charges the base cost of n retired instructions.
func (m *Meter) AddInstr(n int64) { m.baseMC += n * InstrMC }

// AddExtra charges mc millicycles of instrumentation overhead.
func (m *Meter) AddExtra(mc int64) { m.extraMC += mc }

// OverheadPct returns instrumentation overhead as a percentage of base
// work, the number every figure in §5.3 reports.
func (m *Meter) OverheadPct() float64 {
	if m.baseMC == 0 {
		return 0
	}
	return 100 * float64(m.extraMC) / float64(m.baseMC)
}

// MC returns the raw millicycle counters. Together with MeterFromMC it
// lets a wire codec round-trip a meter exactly.
func (m Meter) MC() (base, extra int64) { return m.baseMC, m.extraMC }

// MeterFromMC rebuilds a meter from raw millicycle counters.
func MeterFromMC(base, extra int64) Meter {
	return Meter{baseMC: base, extraMC: extra}
}
