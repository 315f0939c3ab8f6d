package core

import (
	"fmt"
	"sort"
	"strings"
)

// FleetHealth summarizes how the endpoint fleet behaved during a
// diagnosis (or one AsT iteration of it): how many runs were
// dispatched, how many reports actually arrived and in what shape, and
// what the server had to do about the rest. A perfectly reliable fleet
// — the only kind the simulator used to model — has Dispatched ==
// Arrived and zeros everywhere else.
type FleetHealth struct {
	// Dispatched counts runs handed to endpoints.
	Dispatched int
	// Arrived counts reports that reached the server in time.
	Arrived int
	// Lost counts endpoints that crashed mid-run: no report.
	Lost int
	// Deadlined counts reports that arrived past the per-run deadline
	// and were discarded so a hung run cannot stall the iteration.
	Deadlined int
	// DecodeErrs counts runs whose PT trace failed to decode cleanly.
	DecodeErrs int
	// Salvaged counts runs whose corrupt trace was partially recovered
	// by PSB resynchronization.
	Salvaged int
	// Quarantined counts runs rejected from predictor ranking (failed
	// validation: truncated outcome, unusable trace data).
	Quarantined int
	// Repaired counts runs whose trap logs needed server-side repair
	// (re-sorting out-of-order traps, dropping out-of-range entries).
	Repaired int
	// TrapsDropped counts watchpoint trap records lost in flight.
	TrapsDropped int
	// Retries counts retry passes for lost endpoint batches.
	Retries int
	// Reseeded counts replacement runs dispatched to cover losses.
	Reseeded int
	// BackoffBatches counts the simulated batch delays spent in capped
	// exponential backoff before retries.
	BackoffBatches int
	// LowConfidenceIters counts iterations that ranked predictors below
	// the validated-run quorum.
	LowConfidenceIters int
}

// Merge accumulates another health summary into h.
func (h *FleetHealth) Merge(o FleetHealth) {
	h.Dispatched += o.Dispatched
	h.Arrived += o.Arrived
	h.Lost += o.Lost
	h.Deadlined += o.Deadlined
	h.DecodeErrs += o.DecodeErrs
	h.Salvaged += o.Salvaged
	h.Quarantined += o.Quarantined
	h.Repaired += o.Repaired
	h.TrapsDropped += o.TrapsDropped
	h.Retries += o.Retries
	h.Reseeded += o.Reseeded
	h.BackoffBatches += o.BackoffBatches
	h.LowConfidenceIters += o.LowConfidenceIters
}

// Degraded reports whether the fleet lost or damaged anything.
func (h FleetHealth) Degraded() bool {
	return h.Lost > 0 || h.Deadlined > 0 || h.DecodeErrs > 0 ||
		h.Quarantined > 0 || h.Repaired > 0 || h.TrapsDropped > 0 ||
		h.LowConfidenceIters > 0
}

// String renders the summary on one line, omitting zero fields.
func (h FleetHealth) String() string {
	parts := []string{fmt.Sprintf("dispatched=%d arrived=%d", h.Dispatched, h.Arrived)}
	add := func(name string, v int) {
		if v > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", name, v))
		}
	}
	add("lost", h.Lost)
	add("deadlined", h.Deadlined)
	add("decode-errs", h.DecodeErrs)
	add("salvaged", h.Salvaged)
	add("quarantined", h.Quarantined)
	add("repaired", h.Repaired)
	add("traps-dropped", h.TrapsDropped)
	add("retries", h.Retries)
	add("reseeded", h.Reseeded)
	add("backoff-batches", h.BackoffBatches)
	add("low-confidence-iters", h.LowConfidenceIters)
	return strings.Join(parts, " ")
}

// validateTrace is the server's admission check for an arrived RunTrace.
// It repairs what can be repaired in place (out-of-order trap logs are
// re-sorted, entries naming unknown instructions are dropped) and
// reports whether the run must be quarantined entirely (no usable
// outcome). The repaired return counts applied repairs. maxID is the
// program's instruction count (IDs at or above it are corrupt).
func validateTrace(rt *RunTrace, maxID int) (quarantine bool, repaired int) {
	if rt.Outcome == nil || (rt.Outcome.Failed && rt.Outcome.Report == nil) {
		// Truncated header: without an outcome the run can be matched
		// to neither the failing nor the successful population.
		return true, 0
	}
	// Traps must name known instructions and be in clock order.
	kept := rt.Traps[:0]
	for _, tr := range rt.Traps {
		if tr.InstrID < 0 || (maxID > 0 && tr.InstrID >= maxID) {
			repaired++
			continue
		}
		kept = append(kept, tr)
	}
	rt.Traps = kept
	for i := 1; i < len(rt.Traps); i++ {
		if rt.Traps[i].Clock < rt.Traps[i-1].Clock {
			sort.SliceStable(rt.Traps, func(a, b int) bool {
				return rt.Traps[a].Clock < rt.Traps[b].Clock
			})
			repaired++
			break
		}
	}
	return false, repaired
}

// quarantineTraceData strips the control-flow payload of a run whose
// trace could not be decoded (or failed validation) so that predictor
// extraction never sees corrupt flow or branch data. The run outcome —
// which travels in the report header, not the trace — stays usable for
// the failing/successful populations.
func quarantineTraceData(rt *RunTrace) {
	rt.Flow = make(map[int][]int)
	rt.Branches = nil
}
