package pt

import (
	"bytes"

	"repro/internal/ir"
)

// Salvage: decoding what remains of a damaged trace buffer.
//
// A clean replay aborts at the first malformed packet. In a production
// fleet, trace buffers arrive with flipped bytes and torn writes, and a
// single bad byte should not cost the whole buffer: real PT decoders
// restart at the next PSB sync point, exactly as they do after
// ring-buffer overwrite. When Decode's clean replay fails it does the
// same — it splits the buffer at PSB boundaries, decodes every chunk
// independently, and keeps whatever parses and replays cleanly, so the
// server can use the surviving flow suffixes instead of quarantining
// the run outright.
//
// A buffer the clean replay accepts is never salvaged: replaying its
// chunks apart would drop the replay state a chunk inherits across a
// PSB (a paused walk, TNT bits not yet consumed) and could recover flow
// the decoder never saw.

// SalvageReport accounts what a salvage decode recovered and lost.
type SalvageReport struct {
	// Chunks is the number of PSB-delimited regions examined.
	Chunks int
	// BadChunks is the number of regions that hit a parse or replay
	// error; their packets after the error point are lost.
	BadChunks int
	// Resyncs is the number of PSB sync points that restarted decoding
	// after an earlier region errored.
	Resyncs int
	// Instrs is the total number of instructions recovered.
	Instrs int
}

// Recovered reports whether anything usable survived.
func (r SalvageReport) Recovered() bool { return r.Instrs > 0 }

// salvage decodes as much of a corrupt trace buffer as possible. It
// never fails: each PSB-delimited chunk is parsed and CFG-replayed
// independently, chunks that error keep their prefix up to the error,
// and the rest of the buffer continues at the next PSB. wrapped has the
// same meaning as in Decode: the bytes before the first PSB are
// skipped. The recovered flow comes back to back, chunk after chunk, as
// Decode returns its traced regions, and only if wantFlow; rep counts
// the recovered instructions either way.
func salvage(prog *ir.Program, data []byte, wrapped, wantFlow bool) (flow []int, branches []BranchObs, dobs []DataObs, rep SalvageReport) {
	salvageCalls.Add(1)
	defer func() {
		salvagedChunks.Add(int64(rep.Chunks - rep.BadChunks))
		salvagedInstrs.Add(int64(rep.Instrs))
	}()
	start := 0
	if wrapped {
		if start = bytes.Index(data, psbMagic); start < 0 {
			return nil, nil, nil, rep // no sync point survived
		}
	}
	s := getScratch()
	defer putScratch(s)
	prevBad := false
	for _, chunk := range splitAtPSB(data[start:]) {
		rep.Chunks++
		if prevBad {
			rep.Resyncs++ // this chunk's PSB restarted decoding
		}
		perr := s.parse(chunk, true)
		f, b, d, n, derr := s.replay(prog, wantFlow)
		prevBad = perr != nil || derr != nil
		if prevBad {
			rep.BadChunks++
		}
		// f and b are the scratch's: appending is their one copy.
		flow = append(flow, f...)
		branches = append(branches, b...)
		dobs = append(dobs, d...)
		rep.Instrs += n
	}
	return flow, branches, dobs, rep
}

// splitAtPSB cuts data into regions, each running up to (but not
// including) the next PSB magic: the still-synced head of the buffer
// first, then one region per PSB. Regions after the first start with
// their PSB so the parser sees a self-synchronizing chunk.
func splitAtPSB(data []byte) [][]byte {
	var chunks [][]byte
	pos := 0
	for pos < len(data) {
		// Find the next PSB strictly after the current region start
		// (skipping over a PSB the region itself begins with).
		searchFrom := pos + 1
		if bytes.HasPrefix(data[pos:], psbMagic) {
			searchFrom = pos + len(psbMagic)
		}
		rel := bytes.Index(data[searchFrom:], psbMagic)
		if rel < 0 {
			chunks = append(chunks, data[pos:])
			break
		}
		end := searchFrom + rel
		chunks = append(chunks, data[pos:end])
		pos = end
	}
	return chunks
}
