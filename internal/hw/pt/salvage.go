package pt

import "repro/internal/ir"

// Salvage support: decoding what remains of a damaged trace buffer.
//
// A clean decode (DecodeFlow) aborts at the first malformed packet. In a
// production fleet, trace buffers arrive with flipped bytes and torn
// writes, and a single bad byte should not cost the whole buffer: real
// PT decoders restart at the next PSB sync point, exactly as they do
// after ring-buffer overwrite. SalvageDecode does the same — it splits
// the buffer at PSB boundaries, decodes every chunk independently, and
// keeps whatever parses and replays cleanly, so the server can use the
// surviving flow suffixes instead of quarantining the run outright.

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

// SalvageDecode decodes as much of a possibly corrupt trace buffer as
// possible. Unlike DecodeFlow it never fails: each PSB-delimited chunk
// is parsed and CFG-replayed independently, chunks that error keep
// their prefix up to the error, and the rest of the buffer continues at
// the next PSB. wrapped has the same meaning as in DecodeFlow: the ring
// buffer overflowed, so the bytes before the first PSB are skipped. The
// recovered flow comes back to back, chunk after chunk, as DecodeFlow
// returns its traced regions.
//
// A buffer that decodes cleanly has nothing to salvage, and is returned
// as the clean decode, one chunk: replaying its chunks apart would drop
// the replay state a chunk inherits across a PSB (a paused walk, TNT
// bits not yet consumed) and could recover flow the decoder never saw.
func SalvageDecode(prog *ir.Program, data []byte, wrapped bool) ([]int, []BranchObs, []DataObs, SalvageReport) {
	salvageCalls.Add(1)
	var (
		flow     []int
		branches []BranchObs
		dobs     []DataObs
		rep      SalvageReport
	)
	defer func() {
		salvagedChunks.Add(int64(rep.Chunks - rep.BadChunks))
		salvagedInstrs.Add(int64(rep.Instrs))
	}()
	s := getScratch()
	defer putScratch(s)
	if s.parse(data, !wrapped) == nil {
		if f, b, d, err := s.replay(prog, true); err == nil {
			rep = SalvageReport{Chunks: 1, Instrs: len(f)}
			return f, b, d, rep
		}
	}
	start := 0
	if wrapped {
		start = indexOfPSB(data)
		if start < 0 {
			return nil, nil, nil, rep // no sync point survived
		}
	}
	prevBad := false
	for _, chunk := range splitAtPSB(data[start:]) {
		rep.Chunks++
		if prevBad {
			rep.Resyncs++ // this chunk's PSB restarted decoding
		}
		perr := s.parse(chunk, true)
		f, b, d, derr := s.replay(prog, true)
		prevBad = perr != nil || derr != nil
		if prevBad {
			rep.BadChunks++
		}
		flow = append(flow, f...)
		branches = append(branches, b...)
		dobs = append(dobs, d...)
	}
	rep.Instrs = len(flow)
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
		if matchPSB0(data[pos:]) {
			searchFrom = pos + len(psbMagic)
		}
		rel := indexOfPSB(data[searchFrom:])
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

// matchPSB0 reports whether data begins with the PSB magic.
func matchPSB0(data []byte) bool {
	return len(data) >= len(psbMagic) && matchPSB(data)
}
