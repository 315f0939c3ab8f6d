package vm

import (
	"testing"
	"testing/quick"
)

func TestMallocAlignmentAndZeroing(t *testing.T) {
	m := NewMemory(0)
	a, f := m.Malloc(13) // rounds up to 16
	if f != nil {
		t.Fatal(f)
	}
	if a%8 != 0 {
		t.Errorf("unaligned allocation %#x", a)
	}
	for off := int64(0); off < 16; off += 8 {
		v, f := m.Load(a+off, 8)
		if f != nil || v != 0 {
			t.Errorf("fresh allocation not zeroed at +%d: v=%d f=%v", off, v, f)
		}
	}
	// Past the rounded size is a red zone.
	if _, f := m.Load(a+16, 8); f == nil {
		t.Error("read past allocation end should fault")
	}
}

func TestMallocZeroSize(t *testing.T) {
	m := NewMemory(0)
	a, f := m.Malloc(0)
	if f != nil || a == 0 {
		t.Fatalf("malloc(0): %v %v", a, f)
	}
	if _, f := m.Load(a, 8); f != nil {
		t.Errorf("malloc(0) yields an unusable pointer: %v", f)
	}
}

func TestMallocNegative(t *testing.T) {
	m := NewMemory(0)
	if _, f := m.Malloc(-1); f == nil {
		t.Error("negative allocation should fault")
	}
}

func TestRedZoneBetweenAllocations(t *testing.T) {
	m := NewMemory(0)
	a, _ := m.Malloc(8)
	b, _ := m.Malloc(8)
	if b <= a {
		t.Fatalf("allocations not increasing: %#x %#x", a, b)
	}
	if b-a < 16 {
		t.Errorf("no red zone between allocations: gap %d", b-a)
	}
	if _, f := m.Load(a+8, 8); f == nil {
		t.Error("red zone readable")
	}
}

func TestFreeSemantics(t *testing.T) {
	m := NewMemory(0)
	a, _ := m.Malloc(16)
	if f := m.Free(a); f != nil {
		t.Fatalf("first free: %v", f)
	}
	if f := m.Free(a); f == nil || f.Kind != FaultDoubleFree {
		t.Errorf("double free: %v", f)
	}
	if _, f := m.Load(a, 8); f == nil || f.Kind != FaultUseAfterFree {
		t.Errorf("UAF load: %v", f)
	}
	if f := m.Store(a, 8, 1); f == nil || f.Kind != FaultUseAfterFree {
		t.Errorf("UAF store: %v", f)
	}
	if f := m.Free(a + 8); f == nil || f.Kind != FaultInvalidFree {
		t.Errorf("interior free: %v", f)
	}
	if f := m.Free(0); f != nil {
		t.Errorf("free(NULL): %v", f)
	}
}

func TestNullPage(t *testing.T) {
	m := NewMemory(1)
	for _, addr := range []int64{0, 1, 8, NullPageSize - 1} {
		if _, f := m.Load(addr, 8); f == nil || f.Kind != FaultNullDeref {
			t.Errorf("load %#x: %v", addr, f)
		}
		if f := m.Store(addr, 8, 1); f == nil || f.Kind != FaultNullDeref {
			t.Errorf("store %#x: %v", addr, f)
		}
	}
}

func TestGlobalsRegion(t *testing.T) {
	m := NewMemory(2)
	if f := m.Store(GlobalsBase, 8, 42); f != nil {
		t.Fatal(f)
	}
	if v, f := m.Load(GlobalsBase, 8); f != nil || v != 42 {
		t.Errorf("global roundtrip: %d %v", v, f)
	}
	if f := m.Store(GlobalsBase+16, 8, 1); f == nil {
		t.Error("store past globals should fault")
	}
}

func TestByteAndWordAccess(t *testing.T) {
	m := NewMemory(0)
	a, _ := m.Malloc(8)
	if f := m.Store(a, 8, 0x0102030405060708); f != nil {
		t.Fatal(f)
	}
	// Little-endian byte extraction.
	b0, _ := m.Load(a, 1)
	b7, _ := m.Load(a+7, 1)
	if b0 != 0x08 || b7 != 0x01 {
		t.Errorf("little-endian layout: b0=%#x b7=%#x", b0, b7)
	}
	if f := m.Store(a+3, 1, 0xFF); f != nil {
		t.Fatal(f)
	}
	v, _ := m.Load(a, 8)
	if v != 0x01020304FF060708 {
		t.Errorf("byte patch: %#x", v)
	}
}

func TestCStringHelpers(t *testing.T) {
	m := NewMemory(0)
	addr := m.AddString("hello")
	s, f := m.LoadCString(addr)
	if f != nil || s != "hello" {
		t.Errorf("LoadCString: %q %v", s, f)
	}
	// Mid-string read sees the suffix.
	s2, _ := m.LoadCString(addr + 2)
	if s2 != "llo" {
		t.Errorf("suffix: %q", s2)
	}
	// Strings region is bounded.
	if _, f := m.LoadCString(addr + 100); f == nil {
		t.Error("read past string pool should fault")
	}
}

func TestStackRegionIsolation(t *testing.T) {
	m := NewMemory(0)
	m.EnsureStack(0)
	m.EnsureStack(1)
	a0 := StackAddr(0, 0, 0)
	a1 := StackAddr(1, 0, 0)
	if f := m.Store(a0, 8, 111); f != nil {
		t.Fatal(f)
	}
	if f := m.Store(a1, 8, 222); f != nil {
		t.Fatal(f)
	}
	v0, _ := m.Load(a0, 8)
	v1, _ := m.Load(a1, 8)
	if v0 != 111 || v1 != 222 {
		t.Errorf("stack isolation: %d %d", v0, v1)
	}
	// A dead thread's stack is unmapped.
	if _, f := m.Load(StackAddr(7, 0, 0), 8); f == nil {
		t.Error("unmapped stack readable")
	}
	if !IsStackAddr(a0) || IsStackAddr(HeapBase) || IsStackAddr(GlobalsBase) {
		t.Error("IsStackAddr misclassifies")
	}
}

// Reset parks stacks in thread order, so which recycled region a thread
// gets on the next run is a function of the previous run's thread count
// alone — and the region comes back zeroed.
func TestResetRecyclesStacksInOrder(t *testing.T) {
	m := NewMemory(0)
	var regions [4]*byte
	for round := 0; round < 3; round++ {
		prev := regions
		for tid := range regions {
			if m.Stack(tid) != nil {
				t.Fatalf("round %d: thread %d has a stack before EnsureStack", round, tid)
			}
			m.EnsureStack(tid)
			st := m.Stack(tid)
			if len(st) != StackStride || st[8*tid] != 0 {
				t.Fatalf("round %d: thread %d's stack: len %d, byte %d = %d; want a zeroed region", round, tid, len(st), 8*tid, st[8*tid])
			}
			if want := prev[len(prev)-1-tid]; round > 0 && &st[0] != want {
				t.Fatalf("round %d: thread %d did not get the region thread %d had", round, tid, len(regions)-1-tid)
			}
			regions[tid] = &st[0]
			st[8*tid] = 0xAB
		}
		m.Reset(0)
	}
}

// Property: for arbitrary allocation sequences, a load of a stored word
// returns the stored value, and accesses outside any live allocation
// fault.
func TestHeapStoreLoadProperty(t *testing.T) {
	f := func(sizes []uint8, vals []int64) bool {
		m := NewMemory(0)
		type cell struct {
			addr int64
			val  int64
		}
		var cells []cell
		for i, sz := range sizes {
			if i >= len(vals) {
				break
			}
			a, fault := m.Malloc(int64(sz%32) + 8)
			if fault != nil {
				return false
			}
			if m.Store(a, 8, vals[i]) != nil {
				return false
			}
			cells = append(cells, cell{a, vals[i]})
		}
		for _, c := range cells {
			v, fault := m.Load(c.addr, 8)
			if fault != nil || v != c.val {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: freed allocations never satisfy reads again, regardless of
// interleaving with fresh allocations.
func TestFreePoisonProperty(t *testing.T) {
	f := func(n uint8) bool {
		m := NewMemory(0)
		var addrs []int64
		for i := 0; i < int(n%12)+2; i++ {
			a, fault := m.Malloc(16)
			if fault != nil {
				return false
			}
			addrs = append(addrs, a)
		}
		// Free every other allocation.
		for i := 0; i < len(addrs); i += 2 {
			if m.Free(addrs[i]) != nil {
				return false
			}
		}
		for i, a := range addrs {
			_, fault := m.Load(a, 8)
			if i%2 == 0 && (fault == nil || fault.Kind != FaultUseAfterFree) {
				return false
			}
			if i%2 == 1 && fault != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFaultKindStrings(t *testing.T) {
	for k := FaultNone; k <= FaultStackOverflow; k++ {
		if k.String() == "" || k.String()[0] == 'f' && k != FaultNone {
			// Every kind has a human-readable name.
		}
	}
	if FaultDoubleFree.String() != "double free" {
		t.Errorf("double free name: %q", FaultDoubleFree)
	}
	if (FaultKind(99)).String() == "" {
		t.Error("unknown kind should still render")
	}
}
