// Package vm is the contract of the execution substrate for MiniC
// programs — run config, outcome, failure report, tracing hooks (vm.go) —
// and the address space every engine executes against: a flat 64-bit
// layout, a heap with double-free and use-after-free detection, and the
// fault kinds (segfaults, assertion violations, deadlocks, hangs). The
// engines (threads, seeded preemptive scheduler, mutexes) are
// internal/vm/bytecode and the reference internal/vm/interp.
//
// Executions play the role of the paper's "production runs": a fleet of
// runs with different seeds and workloads yields failing and successful
// executions of the same program, which is exactly the population Gist's
// cooperative analysis operates on. The hooks (branch outcomes, memory
// accesses, scheduling events) are what the Intel PT simulator, the
// watchpoint unit, and the record/replay baseline attach to.
package vm

import (
	"fmt"
	"sort"
)

// Address-space layout. Small addresses form the "null page": any access
// below NullPageSize faults, so dereferencing a null (or null+offset)
// pointer behaves like a real segfault.
const (
	NullPageSize = 0x1000
	GlobalsBase  = 0x0000_0000_0000_1000
	StringsBase  = 0x0000_0000_0001_0000
	StackBase    = 0x0000_0000_0010_0000
	StackStride  = 0x0000_0000_0001_0000 // per-thread stack region
	HeapBase     = 0x0000_0000_0100_0000
	heapLimit    = 0x0000_0000_1000_0000
)

// FaultKind classifies memory and runtime faults.
type FaultKind int

// Fault kinds.
const (
	FaultNone FaultKind = iota
	FaultNullDeref
	FaultOutOfBounds
	FaultUseAfterFree
	FaultDoubleFree
	FaultInvalidFree
	FaultAssert
	FaultDivZero
	FaultDeadlock
	FaultHang
	FaultStackOverflow
)

var faultNames = map[FaultKind]string{
	FaultNone:          "none",
	FaultNullDeref:     "segmentation fault (null dereference)",
	FaultOutOfBounds:   "segmentation fault (out of bounds)",
	FaultUseAfterFree:  "use after free",
	FaultDoubleFree:    "double free",
	FaultInvalidFree:   "invalid free",
	FaultAssert:        "assertion violation",
	FaultDivZero:       "division by zero",
	FaultDeadlock:      "deadlock",
	FaultHang:          "hang (step limit exceeded)",
	FaultStackOverflow: "stack overflow",
}

// String returns the human-readable fault description.
func (k FaultKind) String() string {
	if s, ok := faultNames[k]; ok {
		return s
	}
	return fmt.Sprintf("fault(%d)", int(k))
}

// Fault is a runtime fault; it aborts the faulting run.
type Fault struct {
	Kind FaultKind
	Addr int64
	Msg  string
}

func (f *Fault) Error() string {
	if f.Msg != "" {
		return fmt.Sprintf("%s: %s", f.Kind, f.Msg)
	}
	return f.Kind.String()
}

// alloc describes one heap allocation.
type alloc struct {
	base  int64
	size  int64
	freed bool
}

// Memory is the VM's address space.
type Memory struct {
	globals []byte
	strs    []byte
	strsLen int64
	stacks  [][]byte // indexed by thread ID; nil = no such thread
	heap    []byte
	heapLen int64

	allocs     []*alloc // sorted by base
	allocIndex map[int64]*alloc

	// stackPool holds zeroed stack regions recycled by Reset; EnsureStack
	// prefers them over fresh allocations so a reused Memory (a bytecode
	// machine keeps its own across runs) does not pay a 64 KiB allocation
	// per thread per run.
	stackPool [][]byte

	// cacheAlloc is a one-entry cache for the bytecode engine's word-sized
	// fast path (memfast.go): the last heap allocation touched. It is
	// revalidated on every use and invalidated by Reset, so it is
	// invisible to fault semantics. The interpreter's byte-loop path
	// never consults it.
	cacheAlloc *alloc
}

// NewMemory returns an empty address space with room for nGlobals global
// words.
func NewMemory(nGlobals int) *Memory {
	return &Memory{
		globals:    make([]byte, nGlobals*8),
		strs:       make([]byte, 0, 4096),
		heap:       make([]byte, 0, 1<<16),
		allocIndex: make(map[int64]*alloc),
	}
}

// AddString places a NUL-terminated string in the read-only string region
// and returns its address.
func (m *Memory) AddString(s string) int64 {
	addr := StringsBase + m.strsLen
	m.strs = append(m.strs, s...)
	m.strs = append(m.strs, 0)
	m.strsLen += int64(len(s)) + 1
	return addr
}

// EnsureStack creates (or returns) the stack region for a thread,
// recycling a zeroed region parked by Reset when one is available.
func (m *Memory) EnsureStack(tid int) {
	for tid >= len(m.stacks) {
		m.stacks = append(m.stacks, nil)
	}
	if m.stacks[tid] != nil {
		return
	}
	if n := len(m.stackPool); n > 0 {
		m.stacks[tid] = m.stackPool[n-1]
		m.stackPool = m.stackPool[:n-1]
		return
	}
	m.stacks[tid] = make([]byte, StackStride)
}

// Stack returns thread tid's whole stack region, the bytes at
// [StackAddr(tid, 0, 0), +StackStride), or nil if the thread has none. It
// stays the same slice until Reset, so an engine may hold on to the
// running thread's and access it without a resolve.
func (m *Memory) Stack(tid int) []byte {
	if tid >= len(m.stacks) {
		return nil
	}
	return m.stacks[tid]
}

// StackAddr returns the address of word slot idx of frame-base fb in
// thread tid's stack.
func StackAddr(tid int, frameBase int, slot int) int64 {
	return StackBase + int64(tid)*StackStride + int64(frameBase+slot)*8
}

// IsStackAddr reports whether addr falls in any thread's stack region.
func IsStackAddr(addr int64) bool {
	return addr >= StackBase && addr < HeapBase
}

// isHeapAddr reports whether addr falls in the heap region.
func isHeapAddr(addr int64) bool { return addr >= HeapBase && addr < heapLimit }

// isGlobalAddr reports whether addr falls in the globals region.
func isGlobalAddr(addr int64) bool { return addr >= GlobalsBase && addr < StringsBase }

// Malloc allocates size zeroed bytes and returns the base address.
func (m *Memory) Malloc(size int64) (int64, *Fault) {
	if size < 0 {
		return 0, &Fault{Kind: FaultOutOfBounds, Msg: "negative allocation size"}
	}
	if size == 0 {
		size = 8
	}
	// Round up to a word and add a one-word red zone between allocations
	// so off-by-one writes land on unmapped bytes.
	size = (size + 7) &^ 7
	base := HeapBase + m.heapLen
	need := m.heapLen + size + 8
	if HeapBase+need >= heapLimit {
		return 0, &Fault{Kind: FaultOutOfBounds, Msg: "heap exhausted"}
	}
	for int64(len(m.heap)) < need {
		m.heap = append(m.heap, make([]byte, need-int64(len(m.heap)))...)
	}
	for i := m.heapLen; i < m.heapLen+size; i++ {
		m.heap[i] = 0
	}
	m.heapLen = need
	a := &alloc{base: base, size: size}
	m.allocs = append(m.allocs, a)
	m.allocIndex[base] = a
	return base, nil
}

// Free releases a heap allocation. Freeing an address that is not an
// allocation base is an invalid free; freeing twice is a double free —
// the memory bugs several of the evaluated failures hinge on.
func (m *Memory) Free(addr int64) *Fault {
	if addr == 0 {
		return nil // free(NULL) is a no-op, as in C
	}
	a, ok := m.allocIndex[addr]
	if !ok {
		return &Fault{Kind: FaultInvalidFree, Addr: addr, Msg: fmt.Sprintf("free of non-allocation address %#x", addr)}
	}
	if a.freed {
		return &Fault{Kind: FaultDoubleFree, Addr: addr, Msg: fmt.Sprintf("double free of %#x", addr)}
	}
	a.freed = true
	return nil
}

// findAlloc returns the allocation containing addr, if any.
func (m *Memory) findAlloc(addr int64) *alloc {
	i := sort.Search(len(m.allocs), func(i int) bool { return m.allocs[i].base > addr })
	if i == 0 {
		return nil
	}
	a := m.allocs[i-1]
	if addr >= a.base && addr < a.base+a.size {
		return a
	}
	return nil
}

// resolve maps an address to the backing byte slice and offset, checking
// bounds and allocation state.
func (m *Memory) resolve(addr, size int64) ([]byte, int64, *Fault) {
	switch {
	case addr >= 0 && addr < NullPageSize:
		return nil, 0, &Fault{Kind: FaultNullDeref, Addr: addr}
	case isGlobalAddr(addr):
		off := addr - GlobalsBase
		if off+size > int64(len(m.globals)) {
			return nil, 0, &Fault{Kind: FaultOutOfBounds, Addr: addr, Msg: "past end of globals"}
		}
		return m.globals, off, nil
	case addr >= StringsBase && addr < StackBase:
		off := addr - StringsBase
		if off+size > m.strsLen {
			return nil, 0, &Fault{Kind: FaultOutOfBounds, Addr: addr, Msg: "past end of string pool"}
		}
		return m.strs, off, nil
	case IsStackAddr(addr):
		st := m.Stack(int((addr - StackBase) / StackStride))
		if st == nil {
			return nil, 0, &Fault{Kind: FaultOutOfBounds, Addr: addr, Msg: "stack of dead thread"}
		}
		off := (addr - StackBase) % StackStride
		if off+size > int64(len(st)) {
			return nil, 0, &Fault{Kind: FaultStackOverflow, Addr: addr}
		}
		return st, off, nil
	case isHeapAddr(addr):
		a := m.findAlloc(addr)
		if a == nil {
			return nil, 0, &Fault{Kind: FaultOutOfBounds, Addr: addr, Msg: "unallocated heap address"}
		}
		if a.freed {
			return nil, 0, &Fault{Kind: FaultUseAfterFree, Addr: addr, Msg: fmt.Sprintf("access to freed allocation %#x", a.base)}
		}
		if addr+size > a.base+a.size {
			return nil, 0, &Fault{Kind: FaultOutOfBounds, Addr: addr, Msg: "past end of allocation"}
		}
		return m.heap, addr - HeapBase, nil
	default:
		return nil, 0, &Fault{Kind: FaultOutOfBounds, Addr: addr, Msg: "wild address"}
	}
}

// Load reads size bytes (1 or 8) at addr, little-endian.
func (m *Memory) Load(addr, size int64) (int64, *Fault) {
	buf, off, f := m.resolve(addr, size)
	if f != nil {
		return 0, f
	}
	if size == 1 {
		return int64(buf[off]), nil
	}
	var v uint64
	for i := int64(0); i < 8; i++ {
		v |= uint64(buf[off+i]) << (8 * i)
	}
	return int64(v), nil
}

// Store writes size bytes (1 or 8) at addr, little-endian.
func (m *Memory) Store(addr, size, val int64) *Fault {
	buf, off, f := m.resolve(addr, size)
	if f != nil {
		return f
	}
	if size == 1 {
		buf[off] = byte(val)
		return nil
	}
	v := uint64(val)
	for i := int64(0); i < 8; i++ {
		buf[off+i] = byte(v >> (8 * i))
	}
	return nil
}

// LoadCString reads the NUL-terminated byte string at addr (bounded at
// 64 KiB to keep runaway reads finite).
func (m *Memory) LoadCString(addr int64) (string, *Fault) {
	var out []byte
	for i := int64(0); i < 1<<16; i++ {
		b, f := m.Load(addr+i, 1)
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
