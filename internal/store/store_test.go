package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/telemetry"
)

func TestFrameRoundTrip(t *testing.T) {
	for _, payload := range [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte("checkpoint"), 100)} {
		frame := EncodeFrame(payload)
		got, err := DecodeFrame(frame)
		if err != nil {
			t.Fatalf("DecodeFrame(EncodeFrame(%d bytes)): %v", len(payload), err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("round trip changed payload: %q -> %q", payload, got)
		}
	}
}

// TestOpenQuarantinesCorruptGenerations is the corrupt-checkpoint table
// test: truncation at every interesting boundary, single-byte flips in
// header and payload, a deliberate CRC mismatch, and an unknown frame
// version must all be quarantined by the recovery scan — never loaded,
// never fatal — while an intact older generation is still served.
func TestOpenQuarantinesCorruptGenerations(t *testing.T) {
	goodPayload := []byte(`{"version":1,"iter":3}`)
	frame := EncodeFrame(goodPayload)

	cases := []struct {
		name    string
		mangle  func([]byte) []byte
		wantErr error
	}{
		{"empty file", func(f []byte) []byte { return nil }, ErrTorn},
		{"torn header", func(f []byte) []byte { return f[:headerSize-1] }, ErrTorn},
		{"torn payload", func(f []byte) []byte { return f[:len(f)-5] }, ErrTorn},
		{"extra bytes", func(f []byte) []byte { return append(clone(f), 0xEE) }, ErrTorn},
		{"magic flip", func(f []byte) []byte { g := clone(f); g[0] ^= 0x01; return g }, ErrBadMagic},
		{"unknown version", func(f []byte) []byte {
			g := clone(f)
			binary.LittleEndian.PutUint32(g[8:], 99)
			return g
		}, ErrBadVersion},
		{"payload byte flip", func(f []byte) []byte { g := clone(f); g[headerSize+2] ^= 0x40; return g }, ErrBadCRC},
		{"crc field flip", func(f []byte) []byte { g := clone(f); g[20] ^= 0x80; return g }, ErrBadCRC},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			// Generation 1 is intact; generation 2 is the mangled newest.
			write := func(gen int, data []byte) string {
				p := filepath.Join(dir, fmt.Sprintf("bug.g%08d.ckpt", gen))
				if err := os.WriteFile(p, data, 0o644); err != nil {
					t.Fatal(err)
				}
				return p
			}
			write(1, frame)
			corruptPath := write(2, tc.mangle(clone(frame)))

			s, err := Open(dir, "bug", Options{})
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			q := s.Quarantined()
			if len(q) != 1 {
				t.Fatalf("quarantined %d files, want 1: %+v", len(q), q)
			}
			if q[0].From != corruptPath {
				t.Errorf("quarantined %s, want %s", q[0].From, corruptPath)
			}
			if !errors.Is(q[0].Reason, tc.wantErr) {
				t.Errorf("quarantine reason %v, want %v", q[0].Reason, tc.wantErr)
			}
			if _, err := os.Stat(q[0].To); err != nil {
				t.Errorf("quarantined file not preserved at %s: %v", q[0].To, err)
			}
			if _, err := os.Stat(corruptPath); !os.IsNotExist(err) {
				t.Errorf("corrupt file still published at %s", corruptPath)
			}
			// The intact older generation is the fallback truth.
			latest := s.Latest()
			if latest == nil || latest.Gen != 1 {
				t.Fatalf("Latest() = %+v, want generation 1", latest)
			}
			if !bytes.Equal(latest.Payload, goodPayload) {
				t.Errorf("fallback payload %q, want %q", latest.Payload, goodPayload)
			}
			// The burned generation number is never reused.
			gen, err := s.Save([]byte("next"))
			if err != nil {
				t.Fatalf("Save after quarantine: %v", err)
			}
			if gen <= 2 {
				t.Errorf("Save reused generation %d; quarantined generation numbers must stay burned", gen)
			}
		})
	}
}

func TestSaveLoadNewestAndPrune(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, "bug", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Latest() != nil {
		t.Fatal("empty store has a latest generation")
	}
	var lastGen uint64
	for i := 0; i < 6; i++ {
		gen, err := s.Save([]byte(fmt.Sprintf("payload-%d", i)))
		if err != nil {
			t.Fatalf("Save %d: %v", i, err)
		}
		if i > 0 && gen <= lastGen {
			t.Fatalf("generation %d not monotonic after %d", gen, lastGen)
		}
		lastGen = gen
	}
	// Reopen: only keep newest survive, newest first, payload intact.
	s2, err := Open(dir, "bug", Options{})
	if err != nil {
		t.Fatal(err)
	}
	gens := s2.Generations()
	if len(gens) != 3 {
		t.Fatalf("%d generations after prune, want 3", len(gens))
	}
	if gens[0].Gen != lastGen {
		t.Errorf("newest generation %d, want %d", gens[0].Gen, lastGen)
	}
	if string(gens[0].Payload) != "payload-5" {
		t.Errorf("newest payload %q, want payload-5", gens[0].Payload)
	}
	if len(s2.Quarantined()) != 0 {
		t.Errorf("clean store quarantined %+v", s2.Quarantined())
	}
	// Generation numbers stay monotonic across reopen.
	gen, err := s2.Save([]byte("after reopen"))
	if err != nil {
		t.Fatal(err)
	}
	if gen <= lastGen {
		t.Errorf("reopened store reused generation %d (last was %d)", gen, lastGen)
	}
}

func TestDiscardFallsBack(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir, "bug", Options{})
	s.Save([]byte("old"))
	s.Save([]byte("new"))
	s2, err := Open(dir, "bug", Options{})
	if err != nil {
		t.Fatal(err)
	}
	first := s2.Latest()
	if string(first.Payload) != "new" {
		t.Fatalf("latest payload %q, want new", first.Payload)
	}
	s2.Discard(fmt.Errorf("payload failed snapshot decode"))
	second := s2.Latest()
	if second == nil || string(second.Payload) != "old" {
		t.Fatalf("after Discard latest = %+v, want the old generation", second)
	}
	if _, err := os.Stat(first.Path); !os.IsNotExist(err) {
		t.Error("discarded generation still published")
	}
	s2.Discard(fmt.Errorf("also bad"))
	if s2.Latest() != nil {
		t.Error("store with every generation discarded still has a latest")
	}
	s2.Discard(fmt.Errorf("no-op on empty"))
}

// TestInjectedDiskFaults drives Save through every injected fault kind
// and verifies the recovery contract after every save: a fresh Open
// never loads a damaged generation and always falls back to the newest
// intact one.
func TestInjectedDiskFaults(t *testing.T) {
	kinds := map[faults.DiskKind]bool{}
	// DiskRate 0.7 with a fixed seed walks through all four fault kinds
	// plus clean saves as the generation number advances (determinism
	// is the injector's contract, exercised in internal/faults).
	tel := telemetry.New()
	dir := t.TempDir()
	inj := faults.NewInjector(faults.Disk(42, 0.7))
	s, err := Open(dir, "bug", Options{Faults: inj, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	intact := map[string]bool{} // payloads the clean path wrote
	newest, quarantined := "", 0
	for i := 0; i < 40; i++ {
		payload := fmt.Sprintf("payload-%d", i)
		gen, err := s.Save([]byte(payload))
		dec := inj.ForCheckpoint("bug", gen)
		kinds[dec.Kind] = true
		switch dec.Kind {
		case faults.DiskFsyncErr:
			if !errors.Is(err, ErrFsync) {
				t.Fatalf("save %d: fsync fault returned %v, want ErrFsync", i, err)
			}
		case faults.DiskNone:
			if err != nil {
				t.Fatalf("save %d: clean save failed: %v", i, err)
			}
			intact[payload], newest = true, payload
		default:
			// Torn writes, bit flips, and dropped renames are silent:
			// the process believes the save succeeded.
			if err != nil {
				t.Fatalf("save %d: %s fault should be silent, got %v", i, dec.Kind, err)
			}
		}
		// Recover as a restarted process would. The scan quarantines
		// this save if it was damaged, so the keep newest generations
		// left on disk are always intact ones.
		s2, err := Open(dir, "bug", Options{Telemetry: tel})
		if err != nil {
			t.Fatalf("save %d: recovery Open: %v", i, err)
		}
		quarantined += len(s2.Quarantined())
		if latest := s2.Latest(); newest == "" {
			if latest != nil {
				t.Fatalf("save %d: recovered %q before any clean save", i, latest.Payload)
			}
		} else if latest == nil || string(latest.Payload) != newest {
			t.Fatalf("save %d: recovered %+v, want newest intact %q", i, latest, newest)
		}
		for _, g := range s2.Generations() {
			if !intact[string(g.Payload)] {
				t.Errorf("save %d: generation %d carries damaged payload %q", i, g.Gen, g.Payload)
			}
		}
	}
	if len(kinds) < 5 {
		t.Fatalf("40 saves at rate 0.7 hit only %d/5 decision kinds: %v", len(kinds), kinds)
	}
	if quarantined == 0 {
		t.Error("recovery scans quarantined nothing despite injected faults")
	}
	if tel.Counter("store.quarantined") == 0 {
		t.Error("store.quarantined counter not advanced")
	}
	if tel.Counter("store.fsync_errors") == 0 {
		t.Error("store.fsync_errors counter not advanced")
	}
}

func TestNoFsyncStillAtomic(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, "bug", Options{NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Save([]byte("fast")); err != nil {
		t.Fatal(err)
	}
	s2, _ := Open(dir, "bug", Options{NoFsync: true})
	if got := s2.Latest(); got == nil || string(got.Payload) != "fast" {
		t.Fatalf("NoFsync save not readable: %+v", got)
	}
}

func TestOpenRejectsBadOptions(t *testing.T) {
	if _, err := Open(t.TempDir(), "", Options{}); err == nil {
		t.Error("empty name accepted")
	}
}

// Two names sharing one directory must not see each other's
// generations.
func TestNamesAreIsolated(t *testing.T) {
	dir := t.TempDir()
	a, _ := Open(dir, "alpha", Options{})
	b, _ := Open(dir, "alpha-2", Options{})
	a.Save([]byte("A"))
	b.Save([]byte("B"))
	a2, _ := Open(dir, "alpha", Options{})
	if g := a2.Latest(); g == nil || string(g.Payload) != "A" {
		t.Fatalf("alpha sees %+v", g)
	}
	if n := len(a2.Generations()); n != 1 {
		t.Fatalf("alpha sees %d generations, want 1", n)
	}
}

func clone(b []byte) []byte { return append([]byte(nil), b...) }

// sanity: quarantine filenames keep the original base so post-mortems
// can match them back to generations.
func TestQuarantinePreservesName(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bug.g00000007.ckpt")
	os.WriteFile(bad, []byte("garbage"), 0o644)
	s, err := Open(dir, "bug", Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := s.Quarantined()
	if len(q) != 1 || !strings.HasSuffix(q[0].To, "bug.g00000007.ckpt") {
		t.Fatalf("quarantine records %+v", q)
	}
}

// TestSealRefusesLaterSaves: a sealed store writes nothing more, reports
// the seal's reason, and reopens at the generation published before it.
func TestSealRefusesLaterSaves(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, "bug", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Save([]byte("clean")); err != nil {
		t.Fatalf("Save: %v", err)
	}
	why := errors.New("owner walked away")
	s.Seal(why)
	if _, err := s.Save([]byte("polluted")); !errors.Is(err, why) {
		t.Fatalf("Save on a sealed store: %v, want the seal's reason", err)
	}
	s2, err := Open(dir, "bug", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if gens := s2.Generations(); len(gens) != 1 || string(gens[0].Payload) != "clean" || len(s2.Quarantined()) != 0 {
		t.Errorf("reopened store: %d generations, %d quarantined; want the one clean generation and no debris",
			len(gens), len(s2.Quarantined()))
	}
}
