package pt

import "sync/atomic"

// Package-level decode metrics, read through Snapshot. The
// counters are atomics updated once per decode call (never per packet),
// so the hot decode loop is untouched; they observe only — nothing in
// the decoder reads them back, so determinism is unaffected.
var (
	decodeCalls    atomic.Int64
	decodeErrors   atomic.Int64
	decodedBytes   atomic.Int64
	salvageCalls   atomic.Int64
	salvagedChunks atomic.Int64
	salvagedInstrs atomic.Int64
)

// Metrics is a snapshot of the package's decode counters.
type Metrics struct {
	// DecodeCalls counts Decode's clean replays (one per call);
	// DecodeErrors counts the replays that failed and fell through to
	// salvage.
	DecodeCalls, DecodeErrors int64
	// DecodedBytes is the total raw trace bytes handed to the decoder.
	DecodedBytes int64
	// SalvageCalls counts salvage passes; SalvagedChunks and
	// SalvagedInstrs count what those passes recovered.
	SalvageCalls, SalvagedChunks, SalvagedInstrs int64
}

// Snapshot returns the current decode counters.
func Snapshot() Metrics {
	return Metrics{
		DecodeCalls:    decodeCalls.Load(),
		DecodeErrors:   decodeErrors.Load(),
		DecodedBytes:   decodedBytes.Load(),
		SalvageCalls:   salvageCalls.Load(),
		SalvagedChunks: salvagedChunks.Load(),
		SalvagedInstrs: salvagedInstrs.Load(),
	}
}
