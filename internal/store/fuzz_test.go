package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"repro/internal/bugs"
	"repro/internal/core"
)

// frameSeeds are checkpoint frames as a store writes them: the encoded
// campaign snapshots of a concurrency bug and a sequential one, before
// any run and after one iteration, each framed whole and then torn,
// with a flipped magic, payload and checksum byte, and re-versioned.
func frameSeeds(tb testing.TB) [][]byte {
	var seeds [][]byte
	for _, name := range []string{"pbzip2", "curl"} {
		camp, err := core.NewCampaign(bugs.ByName(name).GistConfig(), nil, 0)
		if err != nil {
			tb.Fatalf("%s: %v", name, err)
		}
		for step := 0; step < 2; step++ {
			snap, err := camp.Snapshot()
			if err != nil {
				tb.Fatalf("%s: snapshot: %v", name, err)
			}
			payload, err := snap.Encode()
			if err != nil {
				tb.Fatalf("%s: encode: %v", name, err)
			}
			frame := EncodeFrame(payload)
			flip := func(i int) []byte {
				g := bytes.Clone(frame)
				g[i] ^= 0x40
				return g
			}
			reversioned := bytes.Clone(frame)
			binary.LittleEndian.PutUint32(reversioned[8:], FrameVersion+1)
			seeds = append(seeds, frame,
				frame[:headerSize-1], frame[:len(frame)-5],
				flip(0), flip(20), flip(headerSize+len(payload)/2),
				reversioned)
			if done, _ := camp.Step(); done {
				break
			}
		}
	}
	return seeds
}

// FuzzDecodeFrame feeds arbitrary bytes to DecodeFrame, the check every
// checkpoint and lease read passes. It may not panic; every frame it
// accepts must be exactly EncodeFrame of the payload it returns, and
// every refusal must wrap one of the four frame errors.
func FuzzDecodeFrame(f *testing.F) {
	for _, seed := range frameSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := DecodeFrame(data)
		if err == nil {
			if !bytes.Equal(EncodeFrame(payload), data) {
				t.Fatalf("accepted a %d-byte frame that is not EncodeFrame of its %d-byte payload", len(data), len(payload))
			}
			return
		}
		if !errors.Is(err, ErrTorn) && !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrBadVersion) && !errors.Is(err, ErrBadCRC) {
			t.Fatalf("refused with %v, which wraps no frame error", err)
		}
	})
}
