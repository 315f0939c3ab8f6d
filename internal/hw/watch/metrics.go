package watch

import "sync/atomic"

// Package-level watchpoint metrics, read through Snapshot. Arms are
// rare (one per location class per run); traps are bounded by accesses
// to watched addresses, so a single atomic add per delivered trap is
// noise next to the simulated ptrace cost already charged. The unit
// never reads these back — observation only.
var (
	armsTotal  atomic.Int64
	trapsTotal atomic.Int64
)

// Metrics is a snapshot of the package's watchpoint counters.
type Metrics struct {
	// Arms counts debug-register arming operations across all units.
	Arms int64
	// Traps counts delivered watchpoint hits across all units.
	Traps int64
}

// Snapshot returns the current watchpoint counters.
func Snapshot() Metrics {
	return Metrics{Arms: armsTotal.Load(), Traps: trapsTotal.Load()}
}
