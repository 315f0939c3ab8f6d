package pt_test

import (
	"encoding/binary"
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
// (the decoder's runaway bound) and its packet events, for the clean
// decode and the salvage decode together.
func decodeAllocBudget(prog *ir.Program, data []byte) uint64 {
	return 1<<20 + 64*uint64(len(data)+1)*uint64(len(prog.Instrs)+64)
}

// FuzzPTDecode feeds arbitrary ring bytes to the decoders a diagnosis
// server runs on agent uploads. Neither may panic or run away, both
// must allocate within a bound set by the input, and on a buffer that
// decodes cleanly salvage may recover nothing the clean decode does not.
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
		flow, branches, dobs, err := pt.DecodeFlow(prog, data, wrapped)
		segs, sbranches, sdobs, rep := pt.SalvageDecode(prog, data, wrapped)
		runtime.ReadMemStats(&after)
		if got, budget := after.TotalAlloc-before.TotalAlloc, decodeAllocBudget(prog, data); got > budget {
			t.Fatalf("decoding %d bytes allocated %d bytes, over the %d-byte budget", len(data), got, budget)
		}

		n := 0
		for _, s := range segs {
			n += len(s.Instrs)
		}
		if n != rep.Instrs {
			t.Fatalf("salvage report counts %d instructions, segments hold %d", rep.Instrs, n)
		}
		if err != nil {
			return
		}
		instrs := make(map[int]bool, len(flow))
		for _, id := range flow {
			instrs[id] = true
		}
		for _, s := range segs {
			for _, id := range s.Instrs {
				if !instrs[id] {
					t.Fatalf("salvage recovered instruction %d, which the clean decode never replayed", id)
				}
			}
		}
		seen := make(map[pt.BranchObs]bool, len(branches))
		for _, b := range branches {
			seen[b] = true
		}
		for _, b := range sbranches {
			if !seen[b] {
				t.Fatalf("salvage recovered branch %+v, which the clean decode never observed", b)
			}
		}
		accesses := make(map[pt.DataObs]bool, len(dobs))
		for _, d := range dobs {
			accesses[d] = true
		}
		for _, d := range sdobs {
			if !accesses[d] {
				t.Fatalf("salvage recovered access %+v, which the clean decode never saw", d)
			}
		}
	})
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
// segment cost the decoders time linear in the buffer, and a FUP naming
// no replayed instruction truncates nothing.
func TestFUPFloodDecodesInLinearTime(t *testing.T) {
	which, open, flood := fupFlood(t)
	prog := suitePrograms()[which]
	want, _, _, err := pt.DecodeFlow(prog, open, false)
	if err != nil || len(want) < 100_000 {
		t.Fatalf("open segment decodes to %d instructions (%v), want a long clean flow", len(want), err)
	}
	start := time.Now()
	got, _, _, err := pt.DecodeFlow(prog, flood, false)
	segs, _, _, _ := pt.SalvageDecode(prog, flood, false)
	if took := time.Since(start); took > 2*time.Second {
		t.Errorf("decoding %d FUPs behind a %d-instruction segment took %v", floodFUPs, len(want), took)
	}
	if err != nil || !slices.Equal(got, want) {
		t.Errorf("flooded buffer decodes to %d instructions (%v), want the open segment's %d", len(got), err, len(want))
	}
	if len(segs) != 1 || !slices.Equal(segs[0].Instrs, want) {
		t.Errorf("salvage of the flooded buffer recovered %d segments, want the open segment", len(segs))
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
		if _, _, _, err := pt.DecodeFlow(progs[which[i]], data[i], wrapped[i]); err != nil {
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
	flow, _, _, err := pt.DecodeFlow(prog, data, false)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatalf("decoding a packet-free loop succeeded with %d instructions", len(flow))
	}
	if got, budget := after.TotalAlloc-before.TotalAlloc, decodeAllocBudget(prog, data); got > budget {
		t.Fatalf("runaway decode allocated %d bytes, over the %d-byte budget", got, budget)
	}
}
