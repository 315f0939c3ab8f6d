package pt

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/ir"
)

func TestZigzagRoundTrip(t *testing.T) {
	f := func(v int64) bool { return unzigzag(zigzag(v)) == v }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	for _, v := range []int64{0, -1, 1, -1 << 62, 1 << 62} {
		if unzigzag(zigzag(v)) != v {
			t.Errorf("zigzag(%d) broken", v)
		}
	}
}

// Property: PTW packets round-trip arbitrary data accesses.
func TestPTWRoundTripProperty(t *testing.T) {
	f := func(ip uint16, addr uint32, val int64, isWrite, byteSized bool, tsc uint32) bool {
		size := int64(8)
		if byteSized {
			size = 1
		}
		buf := encodePTW(nil, int(ip), int64(addr), val, size, isWrite, int64(tsc))
		evs, err := ParsePackets(buf, true)
		if err != nil || len(evs) != 1 {
			return false
		}
		e := evs[0]
		return e.Kind == EvPTW && e.IP == int(ip) && e.Addr == int64(addr) &&
			e.Val == val && e.Size == size && e.IsWrite == isWrite && e.TSC == int64(tsc)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDataPacketsInterleaveWithControlFlow(t *testing.T) {
	tr := NewTracer(Config{}, nil)
	tr.Enable(0, 10)
	tr.Branch(0, 10, true)
	tr.Data(0, 11, 0x2000, -5, 8, true, 100)
	tr.Branch(0, 12, false)
	tr.Disable(0, 12)
	buf, wrapped := tr.CoreBytes(0)
	if wrapped {
		t.Fatal("unexpected wrap")
	}
	evs, err := ParsePackets(buf, true)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []EventKind
	for _, e := range evs {
		kinds = append(kinds, e.Kind)
	}
	// PGE, TNT(true), PTW, TNT(false), FUP, PGD — the Data call flushes
	// pending TNT bits first so per-core order is preserved.
	want := []EventKind{EvPGE, EvTNT, EvPTW, EvTNT, EvFUP, EvPGD}
	if len(kinds) != len(want) {
		t.Fatalf("events: %v", kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("event %d: got %v, want %v", i, kinds[i], want[i])
		}
	}
	if evs[2].Val != -5 || !evs[2].IsWrite || evs[2].TSC != 100 {
		t.Errorf("PTW payload: %+v", evs[2])
	}
}

func TestDataIgnoredWhileDisabled(t *testing.T) {
	tr := NewTracer(Config{}, nil)
	tr.Data(0, 1, 0x1000, 7, 8, false, 5)
	buf, _ := tr.CoreBytes(0)
	if len(buf) != 0 {
		t.Errorf("data recorded while tracing off: %d bytes", len(buf))
	}
}

// TestDecodeFullSeparatesStreams pins that a clean decode hands PTW
// packets back as data accesses, in order, apart from the flow.
func TestDecodeFullSeparatesStreams(t *testing.T) {
	prog := ir.MustCompile("d.mc", `int main() { int a = 1; int b = 2; return a + b; }`)
	tr := NewTracer(Config{}, nil)
	tr.Enable(0, 0)
	tr.Data(0, 3, 0x1000, 1, 8, true, 1)
	tr.Data(0, 4, 0x1008, 2, 8, false, 2)
	tr.Disable(0, 4)
	buf, wrapped := tr.CoreBytes(0)
	_, _, data, err := DecodeFlow(prog, buf, wrapped)
	if err != nil {
		t.Fatal(err)
	}
	want := []DataObs{
		{IP: 3, Addr: 0x1000, Val: 1, Size: 8, IsWrite: true, TSC: 1},
		{IP: 4, Addr: 0x1008, Val: 2, Size: 8, TSC: 2},
	}
	if !reflect.DeepEqual(data, want) {
		t.Fatalf("data accesses = %+v, want %+v", data, want)
	}
}
