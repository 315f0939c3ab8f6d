package cost

import (
	"testing"
	"testing/quick"
)

func TestMeterZeroValue(t *testing.T) {
	var m Meter
	if base, extra := m.MC(); base != 0 || extra != 0 || m.OverheadPct() != 0 {
		t.Errorf("zero meter not zero: %+v", m)
	}
}

func TestOverheadPct(t *testing.T) {
	var m Meter
	m.AddInstr(1000) // 1000 cycles base
	m.AddExtra(100 * 1000)
	if got := m.OverheadPct(); got != 10 {
		t.Errorf("overhead: got %g, want 10", got)
	}
	if base, extra := m.MC(); base != 1000*1000 || extra != 100*1000 {
		t.Errorf("millicycles: base=%d extra=%d", base, extra)
	}
}

// One meter accumulates the charges of many runs.
func TestMeterAdd(t *testing.T) {
	var m Meter
	m.AddInstr(100)
	m.AddExtra(5_000)
	m.AddInstr(300)
	m.AddExtra(15_000)
	if base, extra := m.MC(); base != 400*InstrMC || extra != 20_000 {
		t.Errorf("after two runs: base=%d extra=%d", base, extra)
	}
	if got := MeterFromMC(m.MC()); got != m {
		t.Errorf("MeterFromMC(MC()) = %+v, want %+v", got, m)
	}
}

// Property: overhead percentage is linear in extra and inverse in base.
func TestOverheadProperties(t *testing.T) {
	f := func(base, extra uint16) bool {
		if base == 0 {
			return true
		}
		var m Meter
		m.AddInstr(int64(base))
		m.AddExtra(int64(extra))
		want := 100 * float64(extra) / (float64(base) * 1000)
		got := m.OverheadPct()
		return got >= 0 && abs(got-want) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// The cost-model ordering invariants that the evaluation's shapes rest
// on: hardware tracing is per-event cheap, ptrace-era operations are
// expensive, software instrumentation sits in between per event but hits
// every instruction.
func TestCostModelOrdering(t *testing.T) {
	if PTBranchMC >= PTTIPMC {
		t.Error("a TNT bit must be cheaper than a TIP packet")
	}
	if PTTIPMC >= PTToggleMC {
		t.Error("a packet must be cheaper than an MSR toggle")
	}
	if WatchTrapMC <= PTToggleMC {
		t.Error("a debug trap (ptrace) must dominate a PT toggle")
	}
	if SWPTInstrMC <= InstrMC {
		t.Error("software instrumentation must tax every instruction")
	}
	if RRSerializeMC <= InstrMC {
		t.Error("serialization must be a multiple of the base instruction cost")
	}
}
