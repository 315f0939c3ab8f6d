package pt

import (
	"testing"
	"testing/quick"

	"repro/internal/cost"
	"repro/internal/ir"
	"repro/internal/vm"
	"repro/internal/vm/bytecode"
)

// fullTraceRun executes prog under full PT tracing (every thread traced
// from its first instruction) and returns the tracer plus the ground-truth
// per-thread instruction streams observed directly from the engine.
func fullTraceRun(t *testing.T, prog *ir.Program, seed int64, cfg Config) (*Tracer, map[int][]int, *vm.Outcome) {
	t.Helper()
	meter := &cost.Meter{}
	tr := NewTracer(cfg, meter)
	truth := make(map[int][]int)
	last := make(map[int]int)
	hooks := vm.Hooks{
		OnStep: func(th *vm.Thread, in *ir.Instr, clock int64) {
			if !tr.Enabled(th.ID) {
				tr.Enable(th.ID, in.ID)
			}
			tr.InstrRetired(th.ID)
			truth[th.ID] = append(truth[th.ID], in.ID)
			last[th.ID] = in.ID
		},
		OnBranch: func(th *vm.Thread, in *ir.Instr, taken bool, clock int64) {
			tr.Branch(th.ID, in.ID, taken)
		},
		OnIndirect: func(th *vm.Thread, in *ir.Instr, target *ir.Instr, clock int64) {
			if in.Op == ir.OpCall || in.Op == ir.OpRet {
				tr.TIP(th.ID, in.ID, target.ID)
			}
		},
	}
	out := bytecode.RunProgram(prog, vm.Config{Seed: seed, PreemptMean: 3, Hooks: hooks})
	for core := range truth {
		tr.Disable(core, last[core])
	}
	return tr, truth, out
}

func decodeAll(t *testing.T, prog *ir.Program, tr *Tracer, core int) []int {
	t.Helper()
	data, wrapped := tr.CoreBytes(core)
	all, _, _, err := decode(prog, data, wrapped, true)
	if err != nil {
		t.Fatalf("decode core %d: %v", core, err)
	}
	return all
}

const workload = `
global int acc = 0;
int helper(int x) {
	if (x % 2 == 0) { return x / 2; }
	return 3 * x + 1;
}
void worker(int n) {
	for (int i = 0; i < n; i++) { acc = acc + helper(i); }
}
int main() {
	int t1 = spawn(worker, 6);
	int s = 0;
	for (int i = 0; i < 5; i++) {
		if (i == 2) { s = s + helper(i); } else { s = s - 1; }
	}
	join(t1);
	return s + acc;
}`

func TestDecodeMatchesExecutionExactly(t *testing.T) {
	prog := ir.MustCompile("w.mc", workload)
	for seed := int64(0); seed < 25; seed++ {
		tr, truth, out := fullTraceRun(t, prog, seed, Config{})
		if out.Failed {
			t.Fatalf("seed %d: %v", seed, out.Report)
		}
		for core, want := range truth {
			got := decodeAll(t, prog, tr, core)
			if len(got) != len(want) {
				t.Fatalf("seed %d core %d: decoded %d instrs, executed %d", seed, core, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d core %d: instr %d decoded %%%d, executed %%%d", seed, core, i, got[i], want[i])
				}
			}
		}
	}
}

func TestDecodeWithStartStopRegions(t *testing.T) {
	// Trace only while inside helper(): enable on entry instruction,
	// disable at the ret. The decode must reproduce exactly the helper
	// subsequences.
	prog := ir.MustCompile("w.mc", workload)
	helper := prog.FuncByName["helper"]
	entryID := helper.Entry().Instrs[0].ID
	inHelper := func(in *ir.Instr) bool { return in.Blk.Fn == helper }

	tr := NewTracer(Config{}, nil)
	truth := make(map[int][]int)
	hooks := vm.Hooks{
		OnStep: func(th *vm.Thread, in *ir.Instr, clock int64) {
			if in.ID == entryID && !tr.Enabled(th.ID) {
				tr.Enable(th.ID, in.ID)
			}
			if tr.Enabled(th.ID) && inHelper(in) {
				truth[th.ID] = append(truth[th.ID], in.ID)
			}
		},
		OnBranch: func(th *vm.Thread, in *ir.Instr, taken bool, clock int64) {
			tr.Branch(th.ID, in.ID, taken)
		},
		OnIndirect: func(th *vm.Thread, in *ir.Instr, target *ir.Instr, clock int64) {
			if in.Op == ir.OpRet && inHelper(in) {
				// Stop tracing when helper returns: FUP at the ret.
				tr.Disable(th.ID, in.ID)
				return
			}
			if (in.Op == ir.OpCall || in.Op == ir.OpRet) && tr.Enabled(th.ID) {
				tr.TIP(th.ID, in.ID, target.ID)
			}
		},
	}
	out := bytecode.RunProgram(prog, vm.Config{Seed: 7, PreemptMean: 3, Hooks: hooks})
	if out.Failed {
		t.Fatalf("run failed: %v", out.Report)
	}
	for _, core := range tr.Cores() {
		got := decodeAll(t, prog, tr, core)
		want := truth[core]
		if len(got) != len(want) {
			t.Fatalf("core %d: decoded %d, want %d\n got=%v\nwant=%v", core, len(got), len(want), got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("core %d pos %d: got %%%d want %%%d", core, i, got[i], want[i])
			}
		}
	}
}

func TestRingBufferWrapResyncs(t *testing.T) {
	prog := ir.MustCompile("w.mc", salvageProg)
	tr, truth, out := fullTraceRun(t, prog, 1, Config{BufBytes: wrapBufBytes})
	if out.Failed {
		t.Fatalf("%v", out.Report)
	}
	data, wrapped := tr.CoreBytes(0)
	if !wrapped {
		t.Fatalf("buffer should have wrapped (len=%d)", len(data))
	}
	if len(data) > wrapBufBytes {
		t.Fatalf("ring exceeded capacity: %d", len(data))
	}
	got, _, _, err := decode(prog, data, wrapped, true)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got) == 0 {
		t.Fatal("nothing decoded after wrap")
	}
	// What was decoded must be a suffix of the truth.
	want := truth[0]
	if len(got) > len(want) {
		t.Fatalf("decoded more than executed: %d > %d", len(got), len(want))
	}
	suffix := want[len(want)-len(got):]
	for i := range got {
		if got[i] != suffix[i] {
			t.Fatalf("pos %d: got %%%d, want suffix %%%d", i, got[i], suffix[i])
		}
	}
}

func TestTraceIsCompact(t *testing.T) {
	// ~0.5 bits per retired instruction is the paper's figure for PT;
	// our encoding must stay within the same order of magnitude (< 2
	// bits/instr on branch-heavy code).
	prog := ir.MustCompile("w.mc", workload)
	tr, truth, _ := fullTraceRun(t, prog, 3, Config{})
	totalInstrs := 0
	for _, tt := range truth {
		totalInstrs += len(tt)
	}
	bytes := tr.BufferedBytes()
	bitsPerInstr := float64(bytes*8) / float64(totalInstrs)
	if bitsPerInstr > 2.0 {
		t.Errorf("trace too fat: %.2f bits/instr (%d bytes for %d instrs)", bitsPerInstr, bytes, totalInstrs)
	}
}

func TestSoftwareModeCostsMore(t *testing.T) {
	prog := ir.MustCompile("w.mc", workload)
	runMode := func(mode Mode) float64 {
		meter := &cost.Meter{}
		tr := NewTracer(Config{Mode: mode}, meter)
		hooks := vm.Hooks{
			OnStep: func(th *vm.Thread, in *ir.Instr, clock int64) {
				if !tr.Enabled(th.ID) {
					tr.Enable(th.ID, in.ID)
				}
				tr.InstrRetired(th.ID)
				meter.AddInstr(1)
			},
			OnBranch: func(th *vm.Thread, in *ir.Instr, taken bool, clock int64) {
				tr.Branch(th.ID, in.ID, taken)
			},
			OnIndirect: func(th *vm.Thread, in *ir.Instr, target *ir.Instr, clock int64) {
				if in.Op == ir.OpCall || in.Op == ir.OpRet {
					tr.TIP(th.ID, in.ID, target.ID)
				}
			},
		}
		bytecode.RunProgram(prog, vm.Config{Seed: 5, Hooks: hooks})
		return meter.OverheadPct()
	}
	hw := runMode(Hardware)
	sw := runMode(Software)
	if hw <= 0 || sw <= 0 {
		t.Fatalf("overheads must be positive: hw=%f sw=%f", hw, sw)
	}
	if sw < 20*hw {
		t.Errorf("software tracing should dwarf hardware tracing: hw=%.2f%% sw=%.2f%%", hw, sw)
	}
	if hw > 40 {
		t.Errorf("hardware full-trace overhead out of the paper's ballpark: %.2f%%", hw)
	}
}

// Property: TNT packets round-trip arbitrary branch-outcome sequences.
func TestTNTRoundTripProperty(t *testing.T) {
	f := func(raw []bool) bool {
		var buf []byte
		for i := 0; i < len(raw); i += 5 {
			end := i + 5
			if end > len(raw) {
				end = len(raw)
			}
			buf = encodeTNT(buf, raw[i:end])
		}
		if len(raw) == 0 {
			return true
		}
		evs, err := parsePackets(nil, buf, true)
		if err != nil {
			return false
		}
		var got []bool
		for _, e := range evs {
			// Each packet packs its 1..5 outcomes into the low NBits
			// bits of Bits, and nothing above them.
			if e.Kind != EvTNT || e.NBits == 0 || e.NBits > 5 || e.Bits>>e.NBits != 0 {
				return false
			}
			for k := 0; k < int(e.NBits); k++ {
				got = append(got, e.taken(k))
			}
		}
		if len(got) != len(raw) {
			return false
		}
		for i := range raw {
			if got[i] != raw[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: the packet parser never panics on arbitrary bytes and either
// errors or returns well-formed events; a TNT count of 0 or above 5 is
// a parse error.
func TestParseArbitraryBytes(t *testing.T) {
	f := func(data []byte, synced bool) bool {
		evs, _ := parsePackets(nil, data, synced)
		for _, e := range evs {
			if e.Kind == EvTNT && (e.NBits == 0 || e.NBits > 5 || e.Bits>>e.NBits != 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
	for _, n := range []byte{0, 6, 7} {
		if evs, err := parsePackets(nil, []byte{pktTNT, 0xF8 | n}, true); err == nil || len(evs) != 0 {
			t.Errorf("TNT count %d: %d events, error %v; want a parse error and no event", n, len(evs), err)
		}
	}
}

func TestVarintPacketsRoundTrip(t *testing.T) {
	f := func(ip uint32) bool {
		buf := encodePGE(nil, int(ip))
		buf = encodeTIP(buf, int(ip)+1)
		buf = encodeFUP(buf, int(ip)+2)
		evs, err := parsePackets(nil, buf, true)
		if err != nil || len(evs) != 3 {
			return false
		}
		return evs[0].Kind == EvPGE && evs[0].IP == int(ip) &&
			evs[1].Kind == EvTIP && evs[1].IP == int(ip)+1 &&
			evs[2].Kind == EvFUP && evs[2].IP == int(ip)+2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEnableDisableIdempotent(t *testing.T) {
	tr := NewTracer(Config{}, nil)
	tr.Enable(0, 5)
	tr.Enable(0, 9) // no-op
	tr.Branch(0, 6, true)
	tr.Disable(0, 6)
	tr.Disable(0, 7) // no-op
	data, wrapped := tr.CoreBytes(0)
	if wrapped {
		t.Fatal("tiny trace should not wrap")
	}
	evs, err := parsePackets(nil, data, true)
	if err != nil {
		t.Fatal(err)
	}
	kinds := make([]EventKind, len(evs))
	for i, e := range evs {
		kinds[i] = e.Kind
	}
	want := []EventKind{EvPGE, EvTNT, EvFUP, EvPGD}
	if len(kinds) != len(want) {
		t.Fatalf("events: %v", kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("event %d: got %v want %v", i, kinds[i], want[i])
		}
	}
}
