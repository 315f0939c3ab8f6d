package watch

import (
	"testing"
	"testing/quick"

	"repro/internal/cost"
)

func TestSlotManagement(t *testing.T) {
	u := NewUnit(nil)
	if u.armed != 0 {
		t.Fatalf("fresh unit: %d armed", u.armed)
	}
	for i := 0; i < NumRegisters; i++ {
		slot, err := u.SetAny(Watchpoint{Addr: int64(0x1000 + i*8), Size: 8, Kind: KindReadWrite})
		if err != nil {
			t.Fatalf("set %d: %v", i, err)
		}
		if slot != i {
			t.Errorf("slot: got %d, want %d", slot, i)
		}
	}
	if _, err := u.SetAny(Watchpoint{Addr: 0x2000, Size: 8}); err != ErrNoFreeSlot {
		t.Fatalf("fifth watchpoint: got %v, want ErrNoFreeSlot", err)
	}
	if u.armed != NumRegisters {
		t.Fatalf("full unit: %d armed", u.armed)
	}
	if err := u.set(99, Watchpoint{}); err == nil {
		t.Error("out-of-range slot accepted")
	}
}

func TestTrapSemantics(t *testing.T) {
	u := NewUnit(nil)
	if _, err := u.SetAny(Watchpoint{Addr: 0x1000, Size: 8, Kind: KindReadWrite}); err != nil {
		t.Fatal(err)
	}
	if _, err := u.SetAny(Watchpoint{Addr: 0x2000, Size: 8, Kind: KindWrite}); err != nil {
		t.Fatal(err)
	}

	// Read+write on the RW watchpoint both trap.
	if !u.CheckAccess(0, 10, 0x1000, 8, 42, false, 1) {
		t.Error("read on RW watchpoint should trap")
	}
	if !u.CheckAccess(1, 11, 0x1004, 1, 7, true, 2) {
		t.Error("overlapping write should trap")
	}
	// Reads on write-only watchpoints do not trap; writes do.
	if u.CheckAccess(0, 12, 0x2000, 8, 0, false, 3) {
		t.Error("read on write-only watchpoint must not trap")
	}
	if !u.CheckAccess(0, 13, 0x2000, 8, 5, true, 4) {
		t.Error("write on write-only watchpoint should trap")
	}
	// Unwatched address.
	if u.CheckAccess(0, 14, 0x5000, 8, 0, true, 5) {
		t.Error("unwatched address trapped")
	}

	traps := u.Traps()
	if len(traps) != 3 {
		t.Fatalf("traps: %v", traps)
	}
	for i := 1; i < len(traps); i++ {
		if traps[i].Clock < traps[i-1].Clock {
			t.Error("traps not in clock order")
		}
	}
	if traps[0].Val != 42 || traps[0].InstrID != 10 || traps[0].Thread != 0 || traps[0].IsWrite {
		t.Errorf("trap 0: %+v", traps[0])
	}
}

func TestCostAccounting(t *testing.T) {
	m := &cost.Meter{}
	m.AddInstr(1000)
	u := NewUnit(m)
	u.SetAny(Watchpoint{Addr: 0x1000, Size: 8, Kind: KindReadWrite})
	u.CheckAccess(0, 1, 0x1000, 8, 0, true, 1)
	if _, got := m.MC(); got != cost.WatchSetupMC+cost.WatchTrapMC {
		t.Errorf("extra millicycles: got %d, want %d", got, cost.WatchSetupMC+cost.WatchTrapMC)
	}
}

// Property: an access traps iff it overlaps an armed watchpoint with a
// matching kind, for arbitrary ranges.
func TestOverlapProperty(t *testing.T) {
	f := func(wpOff, accOff uint8, wpSize, accSize uint8, isWrite, rw bool) bool {
		u := NewUnit(nil)
		ws := int64(wpSize%8) + 1
		as := int64(accSize%8) + 1
		wa := 0x1000 + int64(wpOff)
		aa := 0x1000 + int64(accOff)
		kind := KindWrite
		if rw {
			kind = KindReadWrite
		}
		if _, err := u.SetAny(Watchpoint{Addr: wa, Size: ws, Kind: kind}); err != nil {
			return false
		}
		overlaps := aa < wa+ws && wa < aa+as
		kindOK := isWrite || rw
		want := overlaps && kindOK
		got := u.CheckAccess(0, 1, aa, as, 0, isWrite, 1)
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
