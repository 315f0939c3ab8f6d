// Package watch simulates x86 hardware watchpoints (debug registers
// DR0–DR3 programmed through ptrace, as the paper's prototype does).
//
// The unit reproduces the properties Gist's data-flow tracking (§3.2.3)
// depends on:
//
//   - only four addresses can be watched at a time — the scarcity that
//     forces adaptive slice tracking and the cooperative partitioning of
//     watched addresses across production runs;
//   - a trap delivers the accessing instruction, the address, the value,
//     whether it was a write, and a global clock — giving the total order
//     of accesses to watched shared variables across threads, which
//     per-core Intel PT traces cannot provide;
//   - setting/clearing a watchpoint and each trap have ptrace-like costs.
package watch

import (
	"fmt"
	"sort"

	"repro/internal/cost"
	"repro/internal/spare"
)

// NumRegisters is the number of hardware watchpoint slots (x86 has 4).
const NumRegisters = 4

// Kind selects which accesses trap.
type Kind int

// Watchpoint kinds (x86 DR7 supports write-only and read/write breaks).
const (
	KindWrite Kind = iota
	KindReadWrite
)

// Watchpoint is one armed debug register.
type Watchpoint struct {
	Addr int64
	Size int64 // watched byte range (x86 allows 1/2/4/8)
	Kind Kind
}

// Trap is one delivered watchpoint hit. Traps are recorded in global
// clock order, giving a total order over all watched accesses.
type Trap struct {
	Slot    int
	Addr    int64 // address actually accessed
	Val     int64 // value read or written
	Size    int64
	IsWrite bool
	InstrID int // accessing instruction
	Thread  int
	Clock   int64
}

// String renders a trap for diagnostics.
func (t Trap) String() string {
	rw := "R"
	if t.IsWrite {
		rw = "W"
	}
	return fmt.Sprintf("%s T%d %%%d addr=%#x val=%d @%d", rw, t.Thread, t.InstrID, t.Addr, t.Val, t.Clock)
}

// Unit is the watchpoint unit for one run.
type Unit struct {
	slots [NumRegisters]*Watchpoint
	armed int // non-nil slots; most accesses of most runs see zero
	traps []Trap
	meter *cost.Meter
}

// trapLogs holds trap-log backing arrays across runs; a data-flow heavy
// run can log thousands of traps, and the fleet executes runs by the
// thousand.
var trapLogs spare.List[[]Trap]

// NewUnit returns a unit charging costs to meter (which may be nil).
// The trap log starts on a spare backing array when one is available.
func NewUnit(meter *cost.Meter) *Unit {
	u := &Unit{meter: meter}
	if t, ok := trapLogs.Get(); ok {
		u.traps = t[:0]
	}
	return u
}

// Release parks the trap log's backing array for reuse by a later
// NewUnit. Callers must be done with the unit; Traps returns private
// copies, so previously returned logs stay valid.
func (u *Unit) Release() {
	if cap(u.traps) > 0 {
		trapLogs.Put(u.traps[:0])
	}
	u.traps = nil
}

func (u *Unit) charge(mc int64) {
	if u.meter != nil {
		u.meter.AddExtra(mc)
	}
}

// ErrNoFreeSlot is returned when all debug registers are armed.
var ErrNoFreeSlot = fmt.Errorf("watch: all %d hardware watchpoints in use", NumRegisters)

// set arms slot i. Arming costs a ptrace round trip.
func (u *Unit) set(i int, wp Watchpoint) error {
	if i < 0 || i >= NumRegisters {
		return fmt.Errorf("watch: slot %d out of range", i)
	}
	if u.slots[i] == nil {
		u.armed++
	}
	u.slots[i] = &wp
	u.charge(cost.WatchSetupMC)
	armsTotal.Add(1)
	return nil
}

// SetAny arms the first free slot and returns its index.
func (u *Unit) SetAny(wp Watchpoint) (int, error) {
	for i, s := range u.slots {
		if s == nil {
			return i, u.set(i, wp)
		}
	}
	return -1, ErrNoFreeSlot
}

// Watched reports whether any armed watchpoint overlaps [addr, addr+size).
func (u *Unit) Watched(addr, size int64) bool {
	return u.slotFor(addr, size, true) >= 0
}

func (u *Unit) slotFor(addr, size int64, anyKind bool) int {
	if u.armed == 0 {
		return -1
	}
	for i, s := range u.slots {
		if s == nil {
			continue
		}
		if addr < s.Addr+s.Size && s.Addr < addr+size {
			if anyKind || s.Kind == KindReadWrite {
				return i
			}
		}
	}
	return -1
}

// CheckAccess is called by the client runtime on every data memory access
// (wired to the VM's OnAccess hook, which says whether the access wrote).
// If the access overlaps an armed watchpoint of a matching kind, a trap is
// recorded and true is returned.
func (u *Unit) CheckAccess(thread, instrID int, addr, size, val int64, isWrite bool, clock int64) bool {
	var slot int
	if isWrite {
		slot = u.slotFor(addr, size, true)
	} else {
		slot = u.slotFor(addr, size, false) // reads trap only on KindReadWrite
	}
	if slot < 0 {
		return false
	}
	u.traps = append(u.traps, Trap{
		Slot: slot, Addr: addr, Val: val, Size: size,
		IsWrite: isWrite, InstrID: instrID, Thread: thread, Clock: clock,
	})
	u.charge(cost.WatchTrapMC)
	trapsTotal.Add(1)
	return true
}

// Traps returns all delivered traps in clock order. The returned slice
// is an exact-size private copy, so it stays valid after Release parks
// the unit's internal log for reuse.
func (u *Unit) Traps() []Trap {
	if len(u.traps) == 0 {
		return nil
	}
	out := make([]Trap, len(u.traps))
	copy(out, u.traps)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Clock < out[j].Clock })
	return out
}
