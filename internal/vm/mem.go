// Package vm is the contract of the execution substrate for MiniC
// programs — run config, outcome, failure report, tracing hooks (vm.go) —
// and the address space every engine executes against: a flat 64-bit
// layout, a heap with double-free and use-after-free detection, and the
// fault kinds (segfaults, assertion violations, deadlocks, hangs). The
// engines (threads, seeded preemptive scheduler, mutexes) are
// internal/vm/bytecode and the reference internal/vm/interp; both reach
// memory through the same Load, Store and LoadCString, which map an
// address to its region or fault in one place (resolve).
//
// Executions play the role of the paper's "production runs": a fleet of
// runs with different seeds and workloads yields failing and successful
// executions of the same program, which is exactly the population Gist's
// cooperative analysis operates on. The hooks (branch outcomes, memory
// accesses, scheduling events) are what the Intel PT simulator, the
// watchpoint unit, and the record/replay baseline attach to.
package vm

import (
	"bytes"
	"encoding/binary"
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

// contains reports whether addr lies in the allocation's bytes.
func (a *alloc) contains(addr int64) bool { return addr >= a.base && addr < a.base+a.size }

// Memory is the VM's address space.
type Memory struct {
	globals []byte
	strs    []byte
	stacks  [][]byte // indexed by thread ID; nil = no such thread
	heap    []byte
	heapLen int64

	// allocs is in base order because Malloc only bumps. hint is the
	// index of the allocation resolve last found; it is rechecked against
	// the address on every use, so a stale hint only costs a search.
	allocs []alloc
	hint   int

	// stackPool holds zeroed stack regions recycled by Reset; EnsureStack
	// prefers them over fresh allocations so a reused Memory (a bytecode
	// machine keeps its own across runs) does not pay a 64 KiB allocation
	// per thread per run.
	stackPool [][]byte
}

// NewMemory returns an empty address space with room for nGlobals global
// words.
func NewMemory(nGlobals int) *Memory {
	return &Memory{
		globals: make([]byte, nGlobals*8),
		strs:    make([]byte, 0, 4096),
		heap:    make([]byte, 0, 1<<16),
	}
}

// Reset returns the memory to its post-NewMemory state for nGlobals
// global words, recycling every internal buffer: globals are zeroed in
// place, the string region is emptied, per-thread stacks are zeroed and
// parked on a free list for the next EnsureStack, and the heap is
// emptied without releasing its backing array (Malloc re-zeroes each
// allocation's bytes, and red-zone bytes are unreadable by
// construction, so stale heap bytes can never be observed).
func (m *Memory) Reset(nGlobals int) {
	need := nGlobals * 8
	if cap(m.globals) >= need {
		m.globals = m.globals[:need]
		clear(m.globals)
	} else {
		m.globals = make([]byte, need)
	}
	m.strs = m.strs[:0]
	for _, st := range m.stacks {
		if st != nil {
			clear(st)
			m.stackPool = append(m.stackPool, st)
		}
	}
	m.stacks = m.stacks[:0]
	// Keep len(m.heap): Malloc zeroes [heapLen, heapLen+size) itself and
	// its grow loop then no-ops, which is what makes reuse cheaper than a
	// fresh address space.
	m.heapLen = 0
	m.allocs = m.allocs[:0]
}

// AddString places a NUL-terminated string in the read-only string region
// and returns its address.
func (m *Memory) AddString(s string) int64 {
	addr := StringsBase + int64(len(m.strs))
	m.strs = append(m.strs, s...)
	m.strs = append(m.strs, 0)
	return addr
}

// SetStringBlob installs blob as the entire string-pool region. The
// bytecode engine precomputes the concatenated NUL-terminated program
// strings once at compile time; a run reset is then a single copy, and
// per-run workload strings are appended with AddString afterwards —
// producing byte- and address-identical string pools to a fresh
// interpreter VM.
func (m *Memory) SetStringBlob(blob []byte) {
	m.strs = append(m.strs[:0], blob...)
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

// ZeroStackWords zeroes n word slots starting at frame-base fb of
// thread tid's stack — the frame-push local zeroing, done as one memclr
// instead of n full Store round trips. Callers must have performed the
// frame-overflow check first (as pushFrame does), so the range is
// always in bounds.
func (m *Memory) ZeroStackWords(tid, fb, n int) {
	clear(m.stacks[tid][fb*8 : (fb+n)*8])
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
	clear(m.heap[m.heapLen : m.heapLen+size])
	m.heapLen = need
	m.allocs = append(m.allocs, alloc{base: base, size: size})
	return base, nil
}

// Free releases a heap allocation. Freeing an address that is not an
// allocation base is an invalid free; freeing twice is a double free —
// the memory bugs several of the evaluated failures hinge on.
func (m *Memory) Free(addr int64) *Fault {
	if addr == 0 {
		return nil // free(NULL) is a no-op, as in C
	}
	a := m.findAlloc(addr)
	if a == nil || a.base != addr {
		return &Fault{Kind: FaultInvalidFree, Addr: addr, Msg: fmt.Sprintf("free of non-allocation address %#x", addr)}
	}
	if a.freed {
		return &Fault{Kind: FaultDoubleFree, Addr: addr, Msg: fmt.Sprintf("double free of %#x", addr)}
	}
	a.freed = true
	return nil
}

// findAlloc returns the allocation containing addr, freed or not, if
// any: the hinted one if it does, else the one a binary search finds,
// which becomes the hint.
func (m *Memory) findAlloc(addr int64) *alloc {
	if h := m.hint; h < len(m.allocs) && m.allocs[h].contains(addr) {
		return &m.allocs[h]
	}
	i := sort.Search(len(m.allocs), func(i int) bool { return m.allocs[i].base > addr }) - 1
	if i < 0 || !m.allocs[i].contains(addr) {
		return nil
	}
	m.hint = i
	return &m.allocs[i]
}

// resolve is the one place an address meets the layout: it returns the
// bytes from addr to the last accessible byte of addr's region (for the
// heap, the end of the containing allocation), or the fault a size-byte
// access at addr raises.
func (m *Memory) resolve(addr, size int64) ([]byte, *Fault) {
	switch {
	case addr >= 0 && addr < NullPageSize:
		return nil, &Fault{Kind: FaultNullDeref, Addr: addr}
	case addr >= GlobalsBase && addr < StringsBase:
		if off := addr - GlobalsBase; off+size <= int64(len(m.globals)) {
			return m.globals[off:], nil
		}
		return nil, &Fault{Kind: FaultOutOfBounds, Addr: addr, Msg: "past end of globals"}
	case addr >= StringsBase && addr < StackBase:
		if off := addr - StringsBase; off+size <= int64(len(m.strs)) {
			return m.strs[off:], nil
		}
		return nil, &Fault{Kind: FaultOutOfBounds, Addr: addr, Msg: "past end of string pool"}
	case IsStackAddr(addr):
		st := m.Stack(int((addr - StackBase) / StackStride))
		if st == nil {
			return nil, &Fault{Kind: FaultOutOfBounds, Addr: addr, Msg: "stack of dead thread"}
		}
		if off := (addr - StackBase) % StackStride; off+size <= int64(len(st)) {
			return st[off:], nil
		}
		return nil, &Fault{Kind: FaultStackOverflow, Addr: addr}
	case addr >= HeapBase && addr < heapLimit:
		a := m.findAlloc(addr)
		if a == nil {
			return nil, &Fault{Kind: FaultOutOfBounds, Addr: addr, Msg: "unallocated heap address"}
		}
		if a.freed {
			return nil, &Fault{Kind: FaultUseAfterFree, Addr: addr, Msg: fmt.Sprintf("access to freed allocation %#x", a.base)}
		}
		if end := a.base + a.size; addr+size <= end {
			return m.heap[addr-HeapBase : end-HeapBase], nil
		}
		return nil, &Fault{Kind: FaultOutOfBounds, Addr: addr, Msg: "past end of allocation"}
	default:
		return nil, &Fault{Kind: FaultOutOfBounds, Addr: addr, Msg: "wild address"}
	}
}

// Load reads size bytes (1 or 8) at addr, little-endian.
func (m *Memory) Load(addr, size int64) (int64, *Fault) {
	b, f := m.resolve(addr, size)
	if f != nil {
		return 0, f
	}
	if size == 1 {
		return int64(b[0]), nil
	}
	return int64(binary.LittleEndian.Uint64(b)), nil
}

// Store writes size bytes (1 or 8) at addr, little-endian.
func (m *Memory) Store(addr, size, val int64) *Fault {
	b, f := m.resolve(addr, size)
	if f != nil {
		return f
	}
	if size == 1 {
		b[0] = byte(val)
	} else {
		binary.LittleEndian.PutUint64(b, uint64(val))
	}
	return nil
}

// LoadCString reads the NUL-terminated byte string at addr, bounded at
// 64 KiB to keep runaway reads finite. It scans a region at a time, so a
// string may run from one thread's stack into the next live thread's,
// and a scan that runs off readable memory returns the fault a
// byte-by-byte Load would meet first. A string inside one region is
// returned without an intermediate copy.
func (m *Memory) LoadCString(addr int64) (string, *Fault) {
	const maxLen = 1 << 16
	var out []byte
	for read := int64(0); read < maxLen; {
		b, f := m.resolve(addr+read, 1)
		if f != nil {
			return "", f
		}
		b = b[:min(int64(len(b)), maxLen-read)]
		if i := bytes.IndexByte(b, 0); i >= 0 {
			if read == 0 {
				return string(b[:i]), nil
			}
			return string(append(out, b[:i]...)), nil
		}
		out = append(out, b...)
		read += int64(len(b))
	}
	return "", &Fault{Kind: FaultOutOfBounds, Addr: addr, Msg: "unterminated string"}
}
