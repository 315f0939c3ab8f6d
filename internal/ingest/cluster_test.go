package ingest

import (
	"testing"

	"repro/internal/vm"
)

// TestClusterSignatureEdgeCases pins the failure-identity semantics the
// clusterer relies on: grouping is by (kind, failing PC, stack, other
// blocked PCs) — never by position or message — and near-miss reports
// must NOT collapse into one cluster.
func TestClusterSignatureEdgeCases(t *testing.T) {
	base := &vm.FailureReport{
		Kind:    vm.FaultNullDeref,
		InstrID: 42,
		Stack: []vm.StackEntry{
			{Fn: "main", CallSiteID: -1},
			{Fn: "worker", CallSiteID: 7},
			{Fn: "deref", CallSiteID: 19},
		},
	}

	t.Run("empty stack", func(t *testing.T) {
		// A report with no stack at all (a crash before any frame was
		// pushed) still has a stable identity, distinct from the same
		// PC with frames.
		bare := &vm.FailureReport{Kind: vm.FaultNullDeref, InstrID: 42}
		if bare.ID() == "" {
			t.Fatal("empty-stack report has no identity")
		}
		if bare.ID() != (&vm.FailureReport{Kind: vm.FaultNullDeref, InstrID: 42}).ID() {
			t.Error("empty-stack identity not stable across runs")
		}
		if bare.ID() == base.ID() {
			t.Error("report with frames collides with the frameless one")
		}
	})

	t.Run("truncated stack", func(t *testing.T) {
		// A truncated crash dump (missing innermost frame) is a
		// different failure identity — collapsing it into the full
		// report's cluster would mix two observation qualities.
		trunc := &vm.FailureReport{
			Kind:    base.Kind,
			InstrID: base.InstrID,
			Stack:   base.Stack[:len(base.Stack)-1],
		}
		if trunc.ID() == base.ID() {
			t.Error("truncated stack collides with full stack")
		}
	})

	t.Run("same PC different bug class", func(t *testing.T) {
		// The same failing instruction can fault two ways (e.g. a race
		// surfacing as null-deref or use-after-free); each class is its
		// own cluster because each gets its own diagnosis.
		other := &vm.FailureReport{
			Kind:    vm.FaultUseAfterFree,
			InstrID: base.InstrID,
			Stack:   base.Stack,
		}
		if other.ID() == base.ID() {
			t.Error("different fault kinds at one PC collide")
		}
	})

	t.Run("position and message excluded", func(t *testing.T) {
		// Source positions and human messages vary across builds; they
		// must not split a cluster.
		a := &vm.FailureReport{Kind: base.Kind, InstrID: base.InstrID, Stack: base.Stack, Msg: "boom at 0x1"}
		b := &vm.FailureReport{Kind: base.Kind, InstrID: base.InstrID, Stack: base.Stack, Msg: "boom at 0x2"}
		b.Pos.Line = 99
		if a.ID() != b.ID() {
			t.Error("message/position leaked into the failure identity")
		}
	})

	t.Run("deadlock other-thread PCs", func(t *testing.T) {
		// For deadlocks the cycle's other participants are part of the
		// identity: same blocked PC, different partner = different cycle.
		d1 := &vm.FailureReport{Kind: vm.FaultDeadlock, InstrID: 10, OtherPCs: []int{20}}
		d2 := &vm.FailureReport{Kind: vm.FaultDeadlock, InstrID: 10, OtherPCs: []int{30}}
		if d1.ID() == d2.ID() {
			t.Error("deadlock cycles with different partners collide")
		}
	})
}

// TestClusterAdmitCap pins the shared admission rule: counts always
// grow, seeds only up to the cap.
func TestClusterAdmitCap(t *testing.T) {
	c := &FailureCluster{ID: "f0"}
	for s := int64(0); s < 10; s++ {
		c.admit(s, 3)
	}
	if c.Count != 10 {
		t.Errorf("count = %d, want 10", c.Count)
	}
	if len(c.Seeds) != 3 {
		t.Errorf("seeds = %v, want 3 entries", c.Seeds)
	}
}
