package watch

import "testing"

// TestRegisterPressureMisses: a run that needs more watchpoints than
// the register file reports misses instead of silently dropping
// accesses — the pressure signal that drives cooperative partitioning.
func TestRegisterPressureMisses(t *testing.T) {
	u := NewUnit(nil)
	misses := 0
	for i := 0; i < 8; i++ {
		wp := Watchpoint{Addr: int64(0x1000 + 16*i), Size: 8, Kind: KindReadWrite}
		if _, err := u.SetAny(wp); err != nil {
			if err != ErrNoFreeSlot {
				t.Fatalf("unexpected error: %v", err)
			}
			misses++
		}
	}
	if misses != 8-NumRegisters {
		t.Fatalf("got %d misses arming 8 watchpoints on %d registers", misses, NumRegisters)
	}
	if u.armed != NumRegisters {
		t.Fatalf("registers should be exhausted, %d armed", u.armed)
	}
}

// TestCooperativePartitioningConvergesUnderTrapLoss: eight watched
// addresses split across two endpoint groups of NumRegisters each. Even
// when the delivery path drops every other trap from one endpoint and
// duplicates a record on the other, the union of surviving traps still
// covers every address — partitioned coverage converges because each
// address is observed repeatedly per run.
func TestCooperativePartitioningConvergesUnderTrapLoss(t *testing.T) {
	var addrs []int64
	for i := 0; i < 2*NumRegisters; i++ {
		addrs = append(addrs, int64(0x2000+16*i))
	}
	groups := [][]int64{addrs[:NumRegisters], addrs[NumRegisters:]}
	inGroup := func(g int, a int64) bool {
		for _, x := range groups[g] {
			if x == a {
				return true
			}
		}
		return false
	}

	seen := make(map[int64]bool)
	clock := int64(0)
	for g := range groups {
		u := NewUnit(nil)
		for _, a := range groups[g] {
			if _, err := u.SetAny(Watchpoint{Addr: a, Size: 8, Kind: KindReadWrite}); err != nil {
				t.Fatalf("group %d: arming its own partition must not miss: %v", g, err)
			}
		}
		// The run touches every shared address twice; only this group's
		// partition traps.
		for pass := 0; pass < 2; pass++ {
			for i, a := range addrs {
				clock++
				trapped := u.CheckAccess(i%2, 100+i, a, 8, int64(i), true, clock)
				if trapped != inGroup(g, a) {
					t.Fatalf("group %d addr %#x: trapped=%v, want %v", g, a, trapped, inGroup(g, a))
				}
			}
		}
		traps := u.Traps()
		if len(traps) != 2*NumRegisters {
			t.Fatalf("group %d: %d traps, want %d", g, len(traps), 2*NumRegisters)
		}
		// Degrade the log in transit: group 0 loses every third record,
		// group 1 sees one record duplicated.
		var degraded []Trap
		if g == 0 {
			for i, tr := range traps {
				if i%3 != 0 {
					degraded = append(degraded, tr)
				}
			}
		} else {
			degraded = append(degraded, traps...)
			degraded = append(degraded, traps[0])
		}
		for _, tr := range degraded {
			if !inGroup(g, tr.Addr) {
				t.Fatalf("group %d trapped outside its partition: %v", g, tr)
			}
			seen[tr.Addr] = true
		}
	}
	for _, a := range addrs {
		if !seen[a] {
			t.Errorf("address %#x lost: cooperative coverage did not converge", a)
		}
	}
}

// TestTrapsStayClockOrderedWithDuplicates: duplicated deliveries and
// equal clocks must not break the total order Traps() promises.
func TestTrapsStayClockOrderedWithDuplicates(t *testing.T) {
	u := NewUnit(nil)
	if _, err := u.SetAny(Watchpoint{Addr: 0x3000, Size: 8, Kind: KindReadWrite}); err != nil {
		t.Fatal(err)
	}
	// Out-of-order delivery with a duplicated clock.
	u.CheckAccess(0, 1, 0x3000, 8, 10, true, 5)
	u.CheckAccess(1, 2, 0x3000, 8, 20, false, 3)
	u.CheckAccess(0, 3, 0x3000, 8, 30, true, 3)
	traps := u.Traps()
	if len(traps) != 3 {
		t.Fatalf("%d traps, want 3", len(traps))
	}
	for i := 1; i < len(traps); i++ {
		if traps[i].Clock < traps[i-1].Clock {
			t.Fatalf("traps out of clock order: %v", traps)
		}
	}
	// Stable sort: the two clock-3 traps keep delivery order.
	if traps[0].InstrID != 2 || traps[1].InstrID != 3 {
		t.Errorf("equal-clock traps reordered: %v", traps)
	}
}
