package vm

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// This file is the reuse-and-speed surface the bytecode engine
// (internal/vm/bytecode) drives the address space through. The
// tree-walking interpreter (internal/vm/interp) deliberately stays on the plain
// Load/Store byte loops — it is the reference implementation the
// bytecode engine is differentially tested against — while the bytecode
// engine uses the word-sized accessors and resets one Memory across
// runs instead of allocating a fresh address space per run.
//
// Every method here is semantically identical to the slow path: the
// same checks run in the same order per region, so the fault a program
// observes (kind, address, message) cannot depend on which engine
// executed it. TestDifferentialOutcomes and TestDifferentialHookStream
// in internal/vm/bytecode and TestEngineDifferential in
// internal/core hold both engines to that.

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
	m.strsLen = 0
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
	clear(m.allocIndex)
	m.cacheAlloc = nil
}

// SetStringBlob installs blob as the entire string-pool region. The
// bytecode engine precomputes the concatenated NUL-terminated program
// strings once at compile time; a run reset is then a single copy, and
// per-run workload strings are appended with AddString afterwards —
// producing byte- and address-identical string pools to a fresh
// interpreter VM.
func (m *Memory) SetStringBlob(blob []byte) {
	m.strs = append(m.strs[:0], blob...)
	m.strsLen = int64(len(blob))
}

// fastResolve is resolve(addr, size) with a one-entry allocation cache.
// A cached allocation is revalidated for range and freed state on every
// hit, so a cache hit and a cold resolve return identical results.
func (m *Memory) fastResolve(addr, size int64) ([]byte, int64, *Fault) {
	switch {
	case isHeapAddr(addr):
		a := m.cacheAlloc
		if a == nil || addr < a.base || addr >= a.base+a.size {
			a = m.findAlloc(addr)
			if a == nil {
				return nil, 0, &Fault{Kind: FaultOutOfBounds, Addr: addr, Msg: "unallocated heap address"}
			}
			m.cacheAlloc = a
		}
		if a.freed {
			return nil, 0, &Fault{Kind: FaultUseAfterFree, Addr: addr, Msg: fmt.Sprintf("access to freed allocation %#x", a.base)}
		}
		if addr+size > a.base+a.size {
			return nil, 0, &Fault{Kind: FaultOutOfBounds, Addr: addr, Msg: "past end of allocation"}
		}
		return m.heap, addr - HeapBase, nil
	default:
		return m.resolve(addr, size)
	}
}

// LoadWord is Load(addr, 8) on the cached fast path.
func (m *Memory) LoadWord(addr int64) (int64, *Fault) {
	buf, off, f := m.fastResolve(addr, 8)
	if f != nil {
		return 0, f
	}
	return int64(binary.LittleEndian.Uint64(buf[off:])), nil
}

// StoreWord is Store(addr, 8, val) on the cached fast path.
func (m *Memory) StoreWord(addr, val int64) *Fault {
	buf, off, f := m.fastResolve(addr, 8)
	if f != nil {
		return f
	}
	binary.LittleEndian.PutUint64(buf[off:], uint64(val))
	return nil
}

// LoadByte is Load(addr, 1) on the cached fast path.
func (m *Memory) LoadByte(addr int64) (int64, *Fault) {
	buf, off, f := m.fastResolve(addr, 1)
	if f != nil {
		return 0, f
	}
	return int64(buf[off]), nil
}

// StoreByte is Store(addr, 1, val) on the cached fast path.
func (m *Memory) StoreByte(addr, val int64) *Fault {
	buf, off, f := m.fastResolve(addr, 1)
	if f != nil {
		return f
	}
	buf[off] = byte(val)
	return nil
}

// ZeroStackWords zeroes n word slots starting at frame-base fb of
// thread tid's stack — the frame-push local zeroing, done as one memclr
// instead of n full Store round trips. Callers must have performed the
// frame-overflow check first (as pushFrame does), so the range is
// always in bounds.
func (m *Memory) ZeroStackWords(tid, fb, n int) {
	clear(m.stacks[tid][fb*8 : (fb+n)*8])
}

// regionSpan returns the backing slice, offset, and number of
// contiguously readable bytes starting at addr. A fault is exactly what
// resolve(addr, 1) would report for the first byte.
func (m *Memory) regionSpan(addr int64) ([]byte, int64, int64, *Fault) {
	switch {
	case addr >= 0 && addr < NullPageSize:
		return nil, 0, 0, &Fault{Kind: FaultNullDeref, Addr: addr}
	case isGlobalAddr(addr):
		off := addr - GlobalsBase
		if off+1 > int64(len(m.globals)) {
			return nil, 0, 0, &Fault{Kind: FaultOutOfBounds, Addr: addr, Msg: "past end of globals"}
		}
		return m.globals, off, int64(len(m.globals)) - off, nil
	case addr >= StringsBase && addr < StackBase:
		off := addr - StringsBase
		if off+1 > m.strsLen {
			return nil, 0, 0, &Fault{Kind: FaultOutOfBounds, Addr: addr, Msg: "past end of string pool"}
		}
		return m.strs, off, m.strsLen - off, nil
	case IsStackAddr(addr):
		st := m.Stack(int((addr - StackBase) / StackStride))
		if st == nil {
			return nil, 0, 0, &Fault{Kind: FaultOutOfBounds, Addr: addr, Msg: "stack of dead thread"}
		}
		off := (addr - StackBase) % StackStride
		if off+1 > int64(len(st)) {
			return nil, 0, 0, &Fault{Kind: FaultStackOverflow, Addr: addr}
		}
		return st, off, int64(len(st)) - off, nil
	case isHeapAddr(addr):
		a := m.findAlloc(addr)
		if a == nil {
			return nil, 0, 0, &Fault{Kind: FaultOutOfBounds, Addr: addr, Msg: "unallocated heap address"}
		}
		if a.freed {
			return nil, 0, 0, &Fault{Kind: FaultUseAfterFree, Addr: addr, Msg: fmt.Sprintf("access to freed allocation %#x", a.base)}
		}
		return m.heap, addr - HeapBase, a.base + a.size - addr, nil
	default:
		return nil, 0, 0, &Fault{Kind: FaultOutOfBounds, Addr: addr, Msg: "wild address"}
	}
}

// LoadCStringFast reads the NUL-terminated string at addr by scanning
// whole region spans instead of issuing one bounds-checked Load per
// byte. It walks span to span exactly as the byte loop walks byte to
// byte (a string may legitimately cross from one thread's stack into
// the next live thread's), keeps the interpreter's 64 KiB runaway
// bound, and reports the identical fault at the identical address when
// a scan runs off the end of readable memory.
func (m *Memory) LoadCStringFast(addr int64) (string, *Fault) {
	const maxLen = 1 << 16
	var out []byte
	read := int64(0)
	for read < maxLen {
		buf, off, span, f := m.regionSpan(addr + read)
		if f != nil {
			return "", f
		}
		if span > maxLen-read {
			span = maxLen - read
		}
		chunk := buf[off : off+span]
		if i := bytes.IndexByte(chunk, 0); i >= 0 {
			if read == 0 {
				return string(chunk[:i]), nil
			}
			return string(append(out, chunk[:i]...)), nil
		}
		out = append(out, chunk...)
		read += span
	}
	return "", &Fault{Kind: FaultOutOfBounds, Addr: addr, Msg: "unterminated string"}
}
