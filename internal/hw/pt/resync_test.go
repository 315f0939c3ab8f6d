package pt

import (
	"bytes"
	"testing"

	"repro/internal/ir"
)

// salvageProg produces a trace long and branchy enough to hold a dozen
// PSB sync points (one every syncEvery packets) to resynchronize at.
const salvageProg = `
int main() {
	int s = 0;
	for (int i = 0; i < 10000; i++) {
		if (i % 3 == 0) { s = s + 1; } else { s = s - 1; }
	}
	return s;
}`

// psbOffsets returns the offsets of every PSB magic in data.
func psbOffsets(data []byte) []int {
	var offs []int
	for i := range data {
		if bytes.HasPrefix(data[i:], psbMagic) {
			offs = append(offs, i)
		}
	}
	return offs
}

// wrapBufBytes is a ring small enough for salvageProg to wrap several
// times, yet wide enough to keep a few sync points.
const wrapBufBytes = 2048

// TestSalvageDecodeTable drives Decode through the fault shapes the
// fleet produces: ring-buffer wrap, a corrupted PSB sync point,
// corruption in a packet body, and a buffer with no surviving sync
// point at all. The clean replay fails exactly on the shapes that lose
// chunks, and only those are salvaged.
func TestSalvageDecodeTable(t *testing.T) {
	prog := ir.MustCompile("s.mc", salvageProg)

	smashPSB := func(data []byte, which int) []byte {
		out := append([]byte(nil), data...)
		offs := psbOffsets(out)
		if which >= len(offs) {
			t.Fatalf("only %d PSBs, wanted to smash #%d", len(offs), which)
		}
		for k := 0; k < len(psbMagic); k++ {
			out[offs[which]+k] = 0xEE // not a packet opcode: parser must error
		}
		return out
	}

	cases := []struct {
		name string
		cfg  Config
		// mutate damages the raw trace; nil leaves it clean.
		mutate func([]byte) []byte

		// wantRecovered asserts some flow survives.
		wantRecovered bool
		// wantFullMatch asserts Decode returns exactly what a clean
		// decode of the unmutated buffer yields.
		wantFullMatch bool
		// wantBadChunks asserts the clean replay fails and salvage
		// loses chunks.
		wantBadChunks bool
		wantResyncs   bool
	}{
		{
			name:          "clean buffer matches full decode",
			cfg:           Config{},
			wantRecovered: true,
			wantFullMatch: true,
		},
		{
			name:          "overflow wrap resyncs at first PSB",
			cfg:           Config{BufBytes: wrapBufBytes},
			wantRecovered: true,
			wantFullMatch: true,
		},
		{
			name:          "corrupt PSB loses one chunk, rest survives",
			cfg:           Config{},
			mutate:        func(d []byte) []byte { return smashPSB(d, 2) },
			wantRecovered: true,
			wantBadChunks: true,
			wantResyncs:   true,
		},
		{
			name: "corrupt packet body loses a suffix of its chunk",
			cfg:  Config{},
			mutate: func(d []byte) []byte {
				out := append([]byte(nil), d...)
				offs := psbOffsets(out)
				if len(offs) < 3 {
					t.Fatalf("only %d PSBs", len(offs))
				}
				// Damage a byte midway between the 2nd and 3rd PSB.
				out[(offs[1]+offs[2])/2] = 0xEE
				return out
			},
			wantRecovered: true,
			wantBadChunks: true,
			wantResyncs:   true,
		},
		{
			name: "no surviving PSB on a wrapped buffer recovers nothing",
			cfg:  Config{BufBytes: wrapBufBytes},
			mutate: func(d []byte) []byte {
				out := append([]byte(nil), d...)
				for _, off := range psbOffsets(out) {
					for k := 0; k < len(psbMagic); k++ {
						out[off+k] = 0xEE
					}
				}
				return out
			},
			wantRecovered: false,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr, truth, out := fullTraceRun(t, prog, 1, tc.cfg)
			if out.Failed {
				t.Fatalf("run failed: %v", out.Report)
			}
			data, wrapped := tr.CoreBytes(0)
			if tc.cfg.BufBytes > 0 && !wrapped {
				t.Fatalf("buffer should have wrapped (len=%d)", len(data))
			}
			clean, _, _, err := decode(prog, data, wrapped, true)
			if err != nil {
				t.Fatalf("clean decode: %v", err)
			}

			mutated := data
			if tc.mutate != nil {
				mutated = tc.mutate(data)
			}
			got, _, _, rep, err := Decode(prog, mutated, wrapped, true)

			if (err != nil) != tc.wantBadChunks {
				t.Fatalf("Decode error %v; want one: %v", err, tc.wantBadChunks)
			}
			if err == nil && rep != (SalvageReport{}) {
				t.Fatalf("a clean decode reports salvage %+v", rep)
			}
			if err != nil && rep.Instrs != len(got) {
				t.Fatalf("report counts %d instrs, the flow holds %d", rep.Instrs, len(got))
			}
			if recovered := len(got) > 0; recovered != tc.wantRecovered {
				t.Fatalf("recovered %d instrs, want some: %v (report %+v)", len(got), tc.wantRecovered, rep)
			}
			if tc.wantFullMatch {
				if len(got) != len(clean) {
					t.Fatalf("salvage recovered %d instrs, full decode %d", len(got), len(clean))
				}
				for i := range clean {
					if got[i] != clean[i] {
						t.Fatalf("pos %d: salvage %%%d, full %%%d", i, got[i], clean[i])
					}
				}
			}
			if tc.wantBadChunks && rep.BadChunks == 0 {
				t.Fatalf("expected bad chunks, report %+v", rep)
			}
			if tc.wantResyncs && rep.Resyncs == 0 {
				t.Fatalf("expected PSB resyncs, report %+v", rep)
			}
			if tc.wantBadChunks && len(got) >= len(clean) {
				t.Fatalf("corruption lost nothing: salvaged %d of %d", len(got), len(clean))
			}
			// Whatever survives must be real instructions in executed order:
			// every recovered instruction exists, and every adjacent pair in
			// the flow is one the executed stream steps through. A clean
			// chunk hands over to the next PSB exactly where it stopped, so
			// the flow may break only after a chunk that errored, whose
			// lost suffix leaves a gap.
			for _, id := range got {
				if id < 0 || id >= len(prog.Instrs) {
					t.Fatalf("salvage invented instruction %%%d", id)
				}
			}
			steps := adjacentPairs(truth[0])
			breaks := 0
			for i := 1; i < len(got); i++ {
				if !steps[[2]int{got[i-1], got[i]}] {
					breaks++
				}
			}
			if breaks > rep.BadChunks {
				t.Fatalf("salvaged flow breaks the executed stream %d times, with %d bad chunks", breaks, rep.BadChunks)
			}
		})
	}
}

// adjacentPairs returns the set of (stream[i], stream[i+1]) steps.
func adjacentPairs(stream []int) map[[2]int]bool {
	pairs := make(map[[2]int]bool)
	for i := 1; i < len(stream); i++ {
		pairs[[2]int{stream[i-1], stream[i]}] = true
	}
	return pairs
}

// TestDecodeCountsOneReplay pins the counters a corrupt buffer moves:
// one clean replay, which fails, then one salvage pass.
func TestDecodeCountsOneReplay(t *testing.T) {
	prog := ir.MustCompile("s.mc", salvageProg)
	tr, _, _ := fullTraceRun(t, prog, 1, Config{})
	data, wrapped := tr.CoreBytes(0)
	data = append([]byte(nil), data...)
	data[psbOffsets(data)[2]] = 0xEE
	before := Snapshot()
	if _, _, _, rep, err := Decode(prog, data, wrapped, false); err == nil || !rep.Recovered() {
		t.Fatalf("Decode error %v, report %+v; want a failed replay and a salvage", err, rep)
	}
	after := Snapshot()
	got := [3]int64{after.DecodeCalls - before.DecodeCalls, after.DecodeErrors - before.DecodeErrors, after.SalvageCalls - before.SalvageCalls}
	if got != [3]int64{1, 1, 1} {
		t.Fatalf("decode calls, errors and salvage calls moved by %v, want [1 1 1]", got)
	}
}

// TestSalvageCopiesOnce bounds what Decode allocates on a corrupt
// buffer of three PSB chunks, the middle one damaged: the failed clean
// replay keeps nothing, and salvage copies each chunk's flow and
// branches once, from the scratch into its own slices.
func TestSalvageCopiesOnce(t *testing.T) {
	prog := ir.MustCompile("s.mc", salvageProg)
	tr, _, _ := fullTraceRun(t, prog, 1, Config{})
	data, wrapped := tr.CoreBytes(0)
	offs := psbOffsets(data)
	if wrapped || len(offs) < 3 {
		t.Fatalf("trace (wrapped %v) has PSBs at %v; want three at least", wrapped, offs)
	}
	// The synced head, then two PSB chunks; damage the first of these.
	buf := append([]byte(nil), data[:offs[2]]...)
	buf[(offs[0]+offs[1])/2] = 0xEE
	Decode(prog, buf, false, true) // warm the scratch
	var rep SalvageReport
	allocs := testing.AllocsPerRun(100, func() {
		_, _, _, rep, _ = Decode(prog, buf, false, true)
	})
	if rep.Chunks != 3 || rep.BadChunks != 1 {
		t.Fatalf("report %+v; want 3 chunks, 1 bad", rep)
	}
	// 15 when each chunk is copied once (16 under the race detector,
	// whose sync.Pools drop items); 21 when the clean replay's partial
	// results and every chunk are cloned before salvage appends.
	if allocs > 17 {
		t.Fatalf("Decode of a 3-chunk corrupt buffer made %.0f allocations, want at most 17", allocs)
	}
}
