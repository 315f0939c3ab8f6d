package core

import (
	"slices"
	"sync"

	"repro/internal/vm"
)

// runMemo is a plan's memo of spawn-free runs. A run's seed reaches only
// the scheduler's pick, and with a single thread that pick is forced: a
// run that never spawns records the same outcome, PT bytes, trap log and
// meter whatever its seed. Under one plan, what such a run records is
// fixed by its memoKey, so RecordRun executes the first run of each key
// and serves every later one a copy.
//
// A stored run is shared read-only with every copy served from it: its
// Outcome, its PT bytes and its trap log. Nothing downstream writes them
// — CorruptTrace, ApplyTraps and validateTrace copy before they change a
// byte or a trap. Each copy gets its own []PTCore header, which FinishRun
// rewrites. The memo holds only what a fresh execution returns, so a hit
// and an execution are indistinguishable, and two concurrent misses on
// one key may both execute: whichever stores first is kept.
type runMemo struct {
	mu      sync.Mutex
	entries []memoEntry
}

// memoKey is everything a spawn-free run's record depends on besides the
// plan: the workload's contents, the endpoint's watch group, the PT ring
// size the fault decision forces, and the scheduler limits. Like a
// RunSpec, it shares the workload's slices, which nothing writes.
type memoKey struct {
	workload    vm.Workload
	group       int
	bufBytes    int
	preemptMean int
	maxSteps    int64
}

func (k *memoKey) equal(o *memoKey) bool {
	return k.group == o.group && k.bufBytes == o.bufBytes &&
		k.preemptMean == o.preemptMean && k.maxSteps == o.maxSteps &&
		slices.Equal(k.workload.Ints, o.workload.Ints) &&
		slices.Equal(k.workload.Strs, o.workload.Strs)
}

// memoEntry is one stored run: what RecordRun returned for the first
// run of its key.
type memoEntry struct {
	key memoKey
	rt  RunTrace
}

// find returns the entry stored under k, or nil. The caller holds mu.
func (m *runMemo) find(k *memoKey) *memoEntry {
	for i := range m.entries {
		if m.entries[i].key.equal(k) {
			return &m.entries[i]
		}
	}
	return nil
}

// lookup returns a copy of the run stored under k, stamped with spec, or
// nil on a miss.
func (m *runMemo) lookup(k *memoKey, spec RunSpec) *RunTrace {
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.find(k)
	if e == nil {
		return nil
	}
	rt := e.rt
	rt.Spec = spec
	rt.PT = slices.Clone(rt.PT)
	return &rt
}

// store keeps what rt recorded under k unless the key is taken. rt must
// be fresh from RecordRun: FinishRun has not touched it.
func (m *runMemo) store(k *memoKey, rt *RunTrace) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.find(k) != nil {
		return
	}
	e := memoEntry{key: *k, rt: *rt}
	e.rt.PT = slices.Clone(rt.PT)
	m.entries = append(m.entries, e)
}
