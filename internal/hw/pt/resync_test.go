package pt

import (
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
	for i := 0; i+len(psbMagic) <= len(data); i++ {
		if matchPSB(data[i:]) {
			offs = append(offs, i)
		}
	}
	return offs
}

// wrapBufBytes is a ring small enough for salvageProg to wrap several
// times, yet wide enough to keep a few sync points.
const wrapBufBytes = 2048

func flatten(segs []Segment) []int {
	var all []int
	for _, s := range segs {
		all = append(all, s.Instrs...)
	}
	return all
}

// TestSalvageDecodeTable drives SalvageDecode through the fault shapes
// the fleet produces: ring-buffer wrap, a corrupted PSB sync point,
// corruption in a packet body, and a buffer with no surviving sync
// point at all.
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

		wantRecovered bool
		// wantFullMatch asserts salvage recovers exactly what a clean
		// decode of the unmutated buffer yields.
		wantFullMatch bool
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
			clean, _, _, err := DecodeFlow(prog, data, wrapped)
			if err != nil {
				t.Fatalf("clean decode: %v", err)
			}

			mutated := data
			if tc.mutate != nil {
				mutated = tc.mutate(data)
			}
			segs, _, _, rep := SalvageDecode(prog, mutated, wrapped)
			got := flatten(segs)

			if rep.Recovered() != tc.wantRecovered {
				t.Fatalf("Recovered() = %v, want %v (report %+v)", rep.Recovered(), tc.wantRecovered, rep)
			}
			if rep.Instrs != len(got) {
				t.Fatalf("report counts %d instrs, segments hold %d", rep.Instrs, len(got))
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
			// every recovered instruction exists, and each decoded segment
			// is a contiguous subsequence of the ground-truth stream.
			for _, id := range got {
				if id < 0 || id >= len(prog.Instrs) {
					t.Fatalf("salvage invented instruction %%%d", id)
				}
			}
			want := truth[0]
			for _, seg := range segs {
				if len(seg.Instrs) == 0 {
					continue
				}
				if !isSubsequenceOf(seg.Instrs, want) {
					t.Fatalf("segment %v is not a contiguous run of the executed stream", seg.Instrs)
				}
			}
		})
	}
}

// isSubsequenceOf reports whether needle appears as a contiguous run
// inside haystack.
func isSubsequenceOf(needle, haystack []int) bool {
	if len(needle) == 0 {
		return true
	}
outer:
	for i := 0; i+len(needle) <= len(haystack); i++ {
		for j := range needle {
			if haystack[i+j] != needle[j] {
				continue outer
			}
		}
		return true
	}
	return false
}
