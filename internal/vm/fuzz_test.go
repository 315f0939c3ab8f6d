package vm

import (
	"fmt"
	"math"
	"testing"
)

// FuzzMemory runs a decoded sequence of address-space operations on
// Memory and on shadow, a byte-at-a-time model written from the layout
// constants alone, and requires every value and every fault (kind,
// address, message) to be equal. Addresses are drawn near the
// boundaries the layout defines: the null page, the ends of the globals
// and of the string pool, both ends of live and dead threads' stacks,
// each allocation's base and red zone, negative addresses and addresses
// past the heap.
func FuzzMemory(f *testing.F) {
	// Anchor indices a fresh address space starts with (see anchors).
	const null, globalsEnd, strsEnd, stack1, alloc0 = 0, 1, 2, 8, 13
	at := func(anchor byte, delta int8) []byte { return []byte{anchor, byte(delta)} }
	op := func(code byte, args ...[]byte) []byte {
		out := []byte{code}
		for _, a := range args {
			out = append(out, a...)
		}
		return out
	}
	seq := func(nGlobals byte, ops ...[]byte) []byte {
		out := []byte{nGlobals}
		for _, o := range ops {
			out = append(out, o...)
		}
		return out
	}
	malloc16 := op(opMalloc, []byte{16})
	for _, s := range [][]byte{
		// One sequence per fault kind: null dereference, out of bounds,
		// use after free, double free, invalid free, stack overflow.
		seq(1, op(opLoad8, at(null, 8))),
		seq(2, op(opStore8, at(globalsEnd, -4), []byte{9})),
		seq(0, malloc16, op(opLoad8, at(alloc0, 0)), op(opFree, at(alloc0, 0)), op(opLoad1, at(alloc0, 3))),
		seq(0, malloc16, op(opFree, at(alloc0, 0)), op(opFree, at(alloc0, 0))),
		seq(0, malloc16, op(opFree, at(alloc0, 8))),
		seq(0, op(opStack, []byte{0}), op(opStore8, at(stack1, -4), []byte{7})),
		// A resolved allocation must read as freed after Malloc regrows
		// the allocation list and Free marks it.
		seq(0, malloc16, op(opStore8, at(alloc0, 0), []byte{3}), op(opLoad8, at(alloc0, 0)),
			op(opMalloc, []byte{8}), op(opMalloc, []byte{8}), op(opMalloc, []byte{8}), op(opMalloc, []byte{8}),
			op(opMalloc, []byte{8}), op(opMalloc, []byte{8}), op(opMalloc, []byte{8}), op(opMalloc, []byte{8}),
			op(opFree, at(alloc0, 0)), op(opLoad8, at(alloc0, 0))),
		// A string running from one live stack into the next, then one
		// that never ends.
		seq(0, op(opStack, []byte{0}), op(opStack, []byte{1}), op(opFill, []byte{0, 'a'}),
			op(opCString, at(stack1, -5)), op(opFill, []byte{1, 'b'}), op(opCString, at(stack1-1, 0))),
		// A pooled string; stale bytes across Reset; sizes zero, negative
		// and past the heap.
		seq(3, op(opString, []byte{3, 'x', 'y', 'z'}), op(opCString, at(strsEnd, -4)),
			malloc16, op(opStore8, at(alloc0, 8), []byte{5}), op(opReset, []byte{1}),
			malloc16, op(opLoad8, at(alloc0, 8)), op(opMalloc, []byte{0}),
			op(opMalloc, []byte{0xf0}), op(opMalloc, []byte{0x7f}), op(opCString, at(strsEnd, -2))),
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			return // longer sequences add little and slow minimizing down
		}
		in := &opReader{data: data}
		nGlobals := int(in.next() % 4)
		m, sh := NewMemory(nGlobals), newShadow(nGlobals)
		for step := 0; in.more(); step++ {
			code := in.next() % nOps
			var got, want result
			switch code {
			case opMalloc:
				size := int64(int8(in.next()))
				if size == math.MaxInt8 {
					size = heapLimit
				}
				got.val, got.f = m.Malloc(size)
				want.val, want.f = sh.malloc(size)
			case opFree:
				addr := in.addr(sh)
				got.f, want.f = m.Free(addr), sh.free(addr)
			case opLoad8, opLoad1:
				size := int64(8)
				if code == opLoad1 {
					size = 1
				}
				addr := in.addr(sh)
				got.val, got.f = m.Load(addr, size)
				want.val, want.f = sh.load(addr, size)
			case opStore8, opStore1:
				size := int64(8)
				if code == opStore1 {
					size = 1
				}
				addr, val := in.addr(sh), int64(in.next())*0x0102030405060708
				got.f, want.f = m.Store(addr, size, val), sh.store(addr, size, val)
			case opCString:
				addr := in.addr(sh)
				got.str, got.f = m.LoadCString(addr)
				want.str, want.f = sh.cstring(addr)
			case opReset:
				n := int(in.next() % 4)
				m.Reset(n)
				sh.reset(n)
			case opStack:
				tid := int(in.next() % 4)
				m.EnsureStack(tid)
				sh.ensureStack(tid)
			case opString:
				s := make([]byte, in.next()%8)
				for i := range s {
					s[i] = in.next()
				}
				got.val, want.val = m.AddString(string(s)), sh.addString(s)
			case opFill:
				tid, b := int(in.next()%4), in.next()
				if st := m.Stack(tid); st != nil {
					for i := range st {
						st[i] = b
					}
				}
				sh.fillStack(tid, b)
			}
			if got.val != want.val || got.str != want.str || !sameFault(got.f, want.f) {
				t.Fatalf("op %d (code %d): Memory gave %v, the model %v", step, code, got, want)
			}
		}
	})
}

// Operation codes, one byte each, followed by their arguments.
const (
	opMalloc  = iota // size byte as int8; 0x7f is a size past the heap
	opFree           // address
	opLoad8          // address
	opLoad1          // address
	opStore8         // address, value byte
	opStore1         // address, value byte
	opCString        // address
	opReset          // globals byte
	opStack          // thread byte
	opString         // length byte, that many bytes
	opFill           // thread byte, value byte: set the live stack's every byte
	nOps
)

type result struct {
	val int64
	str string
	f   *Fault
}

func (r result) String() string { return fmt.Sprintf("{val %#x str %q fault %v}", r.val, r.str, r.f) }

func sameFault(a, b *Fault) bool {
	if a == nil || b == nil {
		return a == b
	}
	return *a == *b
}

// opReader hands out the fuzz input a byte at a time, zeros past its end.
type opReader struct {
	data []byte
	pos  int
}

func (r *opReader) more() bool { return r.pos < len(r.data) }

func (r *opReader) next() byte {
	if r.pos >= len(r.data) {
		return 0
	}
	r.pos++
	return r.data[r.pos-1]
}

// addr picks an anchor and a delta in [-16, 16] from it.
func (r *opReader) addr(sh *shadow) int64 {
	as := sh.anchors()
	a := as[int(r.next())%len(as)]
	return a + int64(int8(r.next()))%17
}

// shadow is the model: every region a plain byte slice, every access
// checked one byte at a time against the layout constants.
type shadow struct {
	globals []byte
	strs    []byte
	stacks  map[int][]byte
	allocs  []*shadowAlloc
	heapTop int64 // bytes handed out, red zones included
}

type shadowAlloc struct {
	base  int64
	data  []byte
	freed bool
}

func newShadow(nGlobals int) *shadow {
	sh := &shadow{}
	sh.reset(nGlobals)
	return sh
}

func (sh *shadow) reset(nGlobals int) {
	*sh = shadow{globals: make([]byte, 8*nGlobals), stacks: map[int][]byte{}}
}

// anchors are the addresses the fuzzer aims near: fixed boundaries first
// (the indices FuzzMemory's seeds name), then each allocation's base and
// first red-zone byte.
func (sh *shadow) anchors() []int64 {
	as := []int64{
		0, GlobalsBase + int64(len(sh.globals)), StringsBase + int64(len(sh.strs)),
		HeapBase, heapLimit, math.MinInt64, math.MaxInt64,
	}
	for tid := int64(0); tid < 6; tid++ {
		as = append(as, StackBase+tid*StackStride)
	}
	for _, a := range sh.allocs {
		as = append(as, a.base, a.base+int64(len(a.data)))
	}
	return as
}

func (sh *shadow) ensureStack(tid int) {
	if sh.stacks[tid] == nil {
		sh.stacks[tid] = make([]byte, StackStride)
	}
}

func (sh *shadow) fillStack(tid int, b byte) {
	for i := range sh.stacks[tid] {
		sh.stacks[tid][i] = b
	}
}

func (sh *shadow) addString(s []byte) int64 {
	addr := StringsBase + int64(len(sh.strs))
	sh.strs = append(append(sh.strs, s...), 0)
	return addr
}

func (sh *shadow) malloc(size int64) (int64, *Fault) {
	if size < 0 {
		return 0, &Fault{Kind: FaultOutOfBounds, Msg: "negative allocation size"}
	}
	size = max(8, (size+7)/8*8)
	if HeapBase+sh.heapTop+size+8 >= heapLimit {
		return 0, &Fault{Kind: FaultOutOfBounds, Msg: "heap exhausted"}
	}
	a := &shadowAlloc{base: HeapBase + sh.heapTop, data: make([]byte, size)}
	sh.allocs = append(sh.allocs, a)
	sh.heapTop += size + 8
	return a.base, nil
}

func (sh *shadow) free(addr int64) *Fault {
	if addr == 0 {
		return nil
	}
	for _, a := range sh.allocs {
		if a.base != addr {
			continue
		}
		if a.freed {
			return &Fault{Kind: FaultDoubleFree, Addr: addr, Msg: fmt.Sprintf("double free of %#x", addr)}
		}
		a.freed = true
		return nil
	}
	return &Fault{Kind: FaultInvalidFree, Addr: addr, Msg: fmt.Sprintf("free of non-allocation address %#x", addr)}
}

// access returns the region holding addr, the address the region starts
// at, and the fault an access of size bytes at addr raises, if any: the
// region is addr's, and each byte of the access must lie inside it.
func (sh *shadow) access(addr, size int64) ([]byte, int64, *Fault) {
	var region []byte
	var lo int64
	var miss *Fault
	switch {
	case addr >= 0 && addr < NullPageSize:
		return nil, 0, &Fault{Kind: FaultNullDeref, Addr: addr}
	case addr >= GlobalsBase && addr < StringsBase:
		region, lo = sh.globals, GlobalsBase
		miss = &Fault{Kind: FaultOutOfBounds, Addr: addr, Msg: "past end of globals"}
	case addr >= StringsBase && addr < StackBase:
		region, lo = sh.strs, StringsBase
		miss = &Fault{Kind: FaultOutOfBounds, Addr: addr, Msg: "past end of string pool"}
	case addr >= StackBase && addr < HeapBase:
		tid := (addr - StackBase) / StackStride
		if region = sh.stacks[int(tid)]; region == nil {
			return nil, 0, &Fault{Kind: FaultOutOfBounds, Addr: addr, Msg: "stack of dead thread"}
		}
		lo = StackBase + tid*StackStride
		miss = &Fault{Kind: FaultStackOverflow, Addr: addr}
	case addr >= HeapBase && addr < heapLimit:
		var owner *shadowAlloc
		for _, a := range sh.allocs {
			if addr >= a.base && addr < a.base+int64(len(a.data)) {
				owner = a
			}
		}
		if owner == nil {
			return nil, 0, &Fault{Kind: FaultOutOfBounds, Addr: addr, Msg: "unallocated heap address"}
		}
		if owner.freed {
			return nil, 0, &Fault{Kind: FaultUseAfterFree, Addr: addr, Msg: fmt.Sprintf("access to freed allocation %#x", owner.base)}
		}
		region, lo = owner.data, owner.base
		miss = &Fault{Kind: FaultOutOfBounds, Addr: addr, Msg: "past end of allocation"}
	default:
		return nil, 0, &Fault{Kind: FaultOutOfBounds, Addr: addr, Msg: "wild address"}
	}
	for b := addr; b < addr+size; b++ {
		if b-lo >= int64(len(region)) {
			return nil, 0, miss
		}
	}
	return region, lo, nil
}

func (sh *shadow) load(addr, size int64) (int64, *Fault) {
	region, lo, f := sh.access(addr, size)
	if f != nil {
		return 0, f
	}
	var v uint64
	for i := int64(0); i < size; i++ {
		v |= uint64(region[addr+i-lo]) << (8 * i)
	}
	return int64(v), nil
}

func (sh *shadow) store(addr, size, val int64) *Fault {
	region, lo, f := sh.access(addr, size)
	if f != nil {
		return f
	}
	for i := int64(0); i < size; i++ {
		region[addr+i-lo] = byte(uint64(val) >> (8 * i))
	}
	return nil
}

func (sh *shadow) cstring(addr int64) (string, *Fault) {
	var out []byte
	for i := int64(0); i < 1<<16; i++ {
		b, f := sh.load(addr+i, 1)
		if f != nil {
			return "", f
		}
		if b == 0 {
			return string(out), nil
		}
		out = append(out, byte(b))
	}
	return "", &Fault{Kind: FaultOutOfBounds, Addr: addr, Msg: "unterminated string"}
}
