package pt_test

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/bugs"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/hw/pt"
	"repro/internal/ir"
	"repro/internal/slicer"
)

// suitePrograms is the Table 1 programs in bugs.All() order: the
// programs whose ring buffers a diagnosis server decodes.
func suitePrograms() []*ir.Program {
	var progs []*ir.Program
	for _, b := range bugs.All() {
		progs = append(progs, b.Program())
	}
	return progs
}

// decodeSeeds are real ring buffers from every suite bug: what an agent
// ships for a watch-group plan, an extended-PT plan squeezed into a
// ring small enough to wrap past PSB sync points, and each of those
// after the fleet's in-flight corruption.
func decodeSeeds(t testing.TB) (which []uint8, data [][]byte, wrapped []bool) {
	corrupt := faults.NewInjector(faults.Config{Seed: faults.ChaosSeed, CorruptRate: 1})
	squeeze := faults.NewInjector(faults.Config{Seed: faults.ChaosSeed, OverflowRate: 1})
	for i, b := range bugs.All() {
		cfg := b.GistConfig()
		report, _, err := core.FirstFailure(cfg)
		if err != nil {
			t.Fatalf("%s: discovery: %v", b.Name, err)
		}
		g := cfg.BuildGraph()
		window := slicer.Compute(g, report.InstrID).Window(8)
		plans := []struct {
			feats core.Features
			dec   faults.Decision
		}{
			{core.AllFeatures(), faults.Decision{}},
			{core.Features{ControlFlow: true, DataFlow: true, ExtendedPT: true}, squeeze.ForRun(1, 2)},
		}
		for _, p := range plans {
			spec := core.RunSpec{EndpointID: 1, Seed: 2, PreemptMean: cfg.PreemptMean, MaxSteps: 200_000}
			rt := core.RecordRun(core.BuildPlan(g, window, p.feats), spec, p.dec)
			for k, c := range rt.PT {
				if len(c.Data) == 0 {
					continue
				}
				which = append(which, uint8(i))
				data = append(data, c.Data)
				wrapped = append(wrapped, c.Wrapped)
				which = append(which, uint8(i))
				data = append(data, corrupt.ForRun(i, int64(k)).CorruptTrace(c.Data))
				wrapped = append(wrapped, c.Wrapped)
			}
		}
	}
	return which, data, wrapped
}

// decodeAllocBudget bounds what decoding data may allocate: a fixed
// slack plus, per input byte, a program-sized stretch of replayed flow
// (the decoder's runaway bound) and its packet events, for Decode with
// and without the flow together.
func decodeAllocBudget(prog *ir.Program, data []byte) uint64 {
	return 1<<20 + 64*uint64(len(data)+1)*uint64(len(prog.Instrs)+64)
}

// FuzzPTDecode feeds arbitrary ring bytes to Decode, the one decoder a
// diagnosis server runs on agent uploads. It may not panic or run away,
// and with and without the flow together it must allocate within a
// bound set by the input. In both modes it must return exactly what the
// per-instruction reference decoder (reference_test.go) returns: flow,
// branches, accesses, salvage report and error text.
func FuzzPTDecode(f *testing.F) {
	progs := suitePrograms()
	which, data, wrapped := decodeSeeds(f)
	for i := range data {
		f.Add(which[i], data[i], wrapped[i])
	}
	flooded, _, flood := fupFlood(f)
	f.Add(flooded, flood, false)
	f.Fuzz(func(t *testing.T, which uint8, data []byte, wrapped bool) {
		prog := progs[int(which)%len(progs)]
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var got [2]decoded
		for i, wantFlow := range []bool{true, false} {
			got[i] = decodeWith(pt.Decode, prog, data, wrapped, wantFlow)
		}
		runtime.ReadMemStats(&after)
		if used, budget := after.TotalAlloc-before.TotalAlloc, decodeAllocBudget(prog, data); used > budget {
			t.Fatalf("decoding %d bytes allocated %d bytes, over the %d-byte budget", len(data), used, budget)
		}
		for i, wantFlow := range []bool{true, false} {
			if want := decodeWith(pt.ReferenceDecode, prog, data, wrapped, wantFlow); !got[i].equal(want) {
				t.Fatalf("with wantFlow %v Decode returned %v; the reference %v", wantFlow, got[i], want)
			}
		}
	})
}

// decoded is one decode's results, the error as its text.
type decoded struct {
	flow     []int
	branches []pt.BranchObs
	dobs     []pt.DataObs
	rep      pt.SalvageReport
	err      string
}

func decodeWith(decode func(*ir.Program, []byte, bool, bool) ([]int, []pt.BranchObs, []pt.DataObs, pt.SalvageReport, error), prog *ir.Program, data []byte, wrapped, wantFlow bool) decoded {
	flow, branches, dobs, rep, err := decode(prog, data, wrapped, wantFlow)
	return decoded{flow, branches, dobs, rep, fmt.Sprint(err)}
}

func (a decoded) equal(b decoded) bool {
	return slices.Equal(a.flow, b.flow) && slices.Equal(a.branches, b.branches) && slices.Equal(a.dobs, b.dobs) && a.rep == b.rep && a.err == b.err
}

func (a decoded) String() string {
	return fmt.Sprintf("%d instructions, %d branches, %d accesses, report %+v, error %s", len(a.flow), len(a.branches), len(a.dobs), a.rep, a.err)
}

// floodFUPs is how many FUP packets fupFlood appends.
const floodFUPs = 100_000

// fupFlood builds a hostile ring buffer for suite program which: the
// cppcheck-1 main thread traced end to end under the extended-PT plan,
// one open segment of about 138,000 instructions once its closing PGD
// is cut off, then floodFUPs FUP packets naming an instruction the
// program does not have. open is the buffer before the FUPs. A decoder
// that rescans the open segment for every FUP makes about 10¹⁰
// comparisons here.
func fupFlood(tb testing.TB) (which uint8, open, flood []byte) {
	for i, b := range bugs.All() {
		if b.Name != "cppcheck-1" {
			continue
		}
		cfg := b.GistConfig()
		report, _, err := core.FirstFailure(cfg)
		if err != nil {
			tb.Fatalf("%s: discovery: %v", b.Name, err)
		}
		g := cfg.BuildGraph()
		plan := core.BuildPlan(g, slicer.Compute(g, report.InstrID).Window(8), core.Features{ControlFlow: true, DataFlow: true, ExtendedPT: true})
		spec := core.RunSpec{EndpointID: 1, Seed: 2, PreemptMean: cfg.PreemptMean, MaxSteps: 200_000}
		main := core.RecordRun(plan, spec, faults.Decision{}).PT[0]
		const pgd, fup = 0x03, 0x06 // packet bytes, as in packet.go
		if main.Core != 0 || main.Wrapped || main.Data[len(main.Data)-1] != pgd {
			tb.Fatalf("%s: main thread's ring (core %d, wrapped %v) does not end its segment with a PGD", b.Name, main.Core, main.Wrapped)
		}
		open = main.Data[:len(main.Data)-1]
		packet := binary.AppendUvarint([]byte{fup}, uint64(len(b.Program().Instrs)))
		flood = append(flood, open...)
		for k := 0; k < floodFUPs; k++ {
			flood = append(flood, packet...)
		}
		return uint8(i), open, flood
	}
	tb.Fatal("no cppcheck-1 in the suite")
	return 0, nil, nil
}

// TestFUPFloodDecodesInLinearTime: FUP packets behind a long open
// segment cost the decoder time linear in the buffer, cleanly and when
// a bad byte after them sends the buffer to salvage, and a FUP naming
// no replayed instruction truncates nothing.
func TestFUPFloodDecodesInLinearTime(t *testing.T) {
	which, open, flood := fupFlood(t)
	prog := suitePrograms()[which]
	want, _, _, _, err := pt.Decode(prog, open, false, true)
	if err != nil || len(want) < 100_000 {
		t.Fatalf("open segment decodes to %d instructions (%v), want a long clean flow", len(want), err)
	}
	start := time.Now()
	got, _, _, _, err := pt.Decode(prog, flood, false, true)
	_, _, _, rep, serr := pt.Decode(prog, append(flood, 0xEE), false, true)
	if took := time.Since(start); took > 2*time.Second {
		t.Errorf("decoding %d FUPs behind a %d-instruction segment took %v", floodFUPs, len(want), took)
	}
	if err != nil || !slices.Equal(got, want) {
		t.Errorf("flooded buffer decodes to %d instructions (%v), want the open segment's %d", len(got), err, len(want))
	}
	if serr == nil || rep.Chunks == 0 {
		t.Errorf("a bad byte after the flood: error %v, salvage report %+v; want a failed replay, then salvage", serr, rep)
	}
}

// TestSeedsDecodeLikeTheClient pins the corpus to what it claims to be:
// every uncorrupted seed is a buffer the endpoint client decodes
// cleanly.
func TestSeedsDecodeLikeTheClient(t *testing.T) {
	progs := suitePrograms()
	which, data, wrapped := decodeSeeds(t)
	clean, squeezed := 0, 0
	for i := 0; i < len(data); i += 2 {
		if _, _, _, _, err := pt.Decode(progs[which[i]], data[i], wrapped[i], true); err != nil {
			t.Fatalf("seed %d (%d bytes, bug %d): %v", i, len(data[i]), which[i], err)
		}
		clean++
		if wrapped[i] {
			squeezed++
		}
	}
	if clean == 0 || squeezed == 0 {
		t.Fatalf("%d clean seeds, %d of them wrapped; want both kinds", clean, squeezed)
	}
}

// TestDecoderRunawayBounded: a traced unconditional loop produces no
// packets, so replaying it from an anchor never ends on its own. The
// decoder must give up within a program's worth of instructions, not
// after filling memory.
func TestDecoderRunawayBounded(t *testing.T) {
	prog := ir.MustCompile("spin.mc", `int main() { int s = 0; for (;;) { s = s + 1; } return s; }`)
	loop := -1
	for _, in := range prog.Instrs {
		if in.Op == ir.OpJmp && loop < 0 {
			loop = in.Then.Instrs[0].ID // the first jump enters the loop
		}
	}
	// PGE at the loop body, then nothing: the replay has no packet to
	// wait for and no branch to stop at.
	data := []byte{0x02, byte(loop)}
	if loop >= 0x80 {
		t.Fatalf("loop instruction %d does not fit a one-byte uvarint", loop)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	flow, _, _, _, err := pt.Decode(prog, data, false, true)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatalf("decoding a packet-free loop succeeded with %d instructions", len(flow))
	}
	if got, budget := after.TotalAlloc-before.TotalAlloc, decodeAllocBudget(prog, data); got > budget {
		t.Fatalf("runaway decode allocated %d bytes, over the %d-byte budget", got, budget)
	}
}

// TestRunawayNamesTheReferenceInstruction: the block-stepping walk
// counts a whole block stretch at once, but its runaway error still
// names the instruction at which the per-instruction count crosses the
// program's size, as the reference does, for a PGE anchor at every
// instruction of a packet-free loop whose body is a long straight
// block. From the body's first instruction the count crosses inside
// the body, not at its terminator.
func TestRunawayNamesTheReferenceInstruction(t *testing.T) {
	prog := ir.MustCompile("spin.mc", `int main() { int s = 0; int t = 1; for (;;) { s = s + 1; t = t * 2 + s; } return s + t; }`)
	var body *ir.Instr // the first instruction of the longest block
	for _, in := range prog.Instrs {
		if in.Idx == 0 && (body == nil || len(in.Blk.Instrs) > len(body.Blk.Instrs)) {
			body = in
		}
	}
	for _, in := range prog.Instrs {
		data := binary.AppendUvarint([]byte{0x02}, uint64(in.ID)) // PGE, as in packet.go
		for _, wantFlow := range []bool{true, false} {
			got := decodeWith(pt.Decode, prog, data, false, wantFlow)
			if want := decodeWith(pt.ReferenceDecode, prog, data, false, wantFlow); !got.equal(want) {
				t.Fatalf("PGE at %d, wantFlow %v: Decode returned %v; the reference %v", in.ID, wantFlow, got, want)
			}
		}
	}
	data := binary.AppendUvarint([]byte{0x02}, uint64(body.ID))
	_, _, _, _, err := pt.Decode(prog, data, false, false)
	var at int
	if _, serr := fmt.Sscanf(fmt.Sprint(err), "pt: decoder runaway at instruction %d", &at); serr != nil {
		t.Fatalf("PGE at the loop body (%d): error %v, want a runaway", body.ID, err)
	}
	if in := prog.Instrs[at]; in.Blk != body.Blk || in.NextCtl == in.ID {
		t.Fatalf("the runaway from %d crosses at %d (%v), want a straight instruction of the body", body.ID, at, in.Op)
	}
}
