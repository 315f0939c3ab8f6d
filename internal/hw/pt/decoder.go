package pt

import (
	"fmt"
	"sync"

	"repro/internal/ir"
)

// BranchObs is one conditional-branch outcome recovered from a TNT bit.
type BranchObs struct {
	IP    int
	Taken bool
}

// DataObs is one extended-PT data access (PTW packet): which instruction
// accessed which address with what value, stamped with the TSC.
type DataObs struct {
	IP      int
	Addr    int64
	Val     int64
	Size    int64
	IsWrite bool
	TSC     int64
}

// DecodeFlow reconstructs the executed instruction sequence of one core
// from its raw packet buffer, against the program's CFG — the offline
// side of control-flow tracking: packets only say "taken/not-taken/
// target", and the decoder replays the CFG to recover which statements
// executed. wrapped indicates the ring buffer overflowed; decoding then
// starts at the first PSB sync point and the lost prefix is silently
// dropped, exactly like a real PT decoder.
//
// The traced regions (each the instructions between a PGE and its PGD,
// or the end of the buffer) come back to back — the endpoint client's
// RunTrace.Flow is exactly that — plus the conditional-branch outcomes
// recovered from the TNT bits in consumption order and the extended-PT
// data accesses. The flow is the decoder's own exact-size array, not a
// concatenation of copies. The outcomes are a byproduct of CFG replay:
// they carry strictly more information than the flow alone when a trace
// stops right at a branch (the successor is then not part of the flow
// but the outcome is still known).
func DecodeFlow(prog *ir.Program, data []byte, wrapped bool) ([]int, []BranchObs, []DataObs, error) {
	decodeCalls.Add(1)
	decodedBytes.Add(int64(len(data)))
	evs, err := parsePackets(data, !wrapped)
	if err != nil {
		decodeErrors.Add(1)
		return nil, nil, nil, err
	}
	flow, branches, dobs, err := decodeEvents(prog, evs)
	if err != nil {
		decodeErrors.Add(1)
	}
	return flow, branches, dobs, err
}

// flowPool recycles the scratch the CFG replay walks into. A decode
// cannot know its output size up front, and growing a fresh slice by
// doubling for every core of every run was most of a diagnosis's
// allocated bytes; the walk appends into pooled scratch instead and the
// result is copied out once, at its exact size.
var flowPool = sync.Pool{New: func() any { return new([]int) }}

// decodeEvents replays evs and returns the instructions of all traced
// regions back to back, in a private exact-size array.
func decodeEvents(prog *ir.Program, evs []Event) (flow []int, branches []BranchObs, data []DataObs, err error) {
	scratch := flowPool.Get().(*[]int)
	d := &decoder{prog: prog, evs: evs, flow: (*scratch)[:0]}
	err = d.run()
	// After an error only the closed regions count; the one the replay
	// was in the middle of is dropped.
	if n := d.start; n > 0 {
		flow = make([]int, n)
		copy(flow, d.flow)
	}
	*scratch = d.flow
	flowPool.Put(scratch)
	return flow, d.branches, d.data, err
}

type decoder struct {
	prog *ir.Program
	evs  []Event
	pos  int // next event index

	bits []bool    // TNT bits available for consumption
	cur  *ir.Instr // nil = tracing off / waiting for PGE

	// flow holds every region's instructions back to back; the open
	// region is flow[start:].
	flow  []int
	start int

	// straight counts the instructions replayed since the walk last
	// consumed packet material (a TNT bit, a TIP, a PGE anchor), for the
	// runaway guard and the FUP scan.
	straight int
	branches []BranchObs
	data     []DataObs
}

// next returns the next event, or nil.
func (d *decoder) peek() *Event {
	// Coalesce: TNT bits are pulled eagerly into d.bits by advanceEvents.
	if d.pos >= len(d.evs) {
		return nil
	}
	return &d.evs[d.pos]
}

func (d *decoder) run() error {
	for {
		// Pull events until we can walk.
		ev := d.peek()
		if ev == nil {
			d.closeSegment()
			return nil
		}
		switch ev.Kind {
		case EvPSB:
			d.pos++
		case EvPGD:
			d.pos++
			d.closeSegment()
		case EvPGE:
			d.pos++
			in, err := d.instrAt(ev.IP)
			if err != nil {
				return err
			}
			if d.cur == nil {
				d.cur = in
				d.straight = 0
				if err := d.walk(); err != nil {
					return err
				}
			}
			// If already walking (periodic re-anchor PGE), the anchor is
			// redundant and skipped.
		case EvTNT:
			d.pos++
			d.bits = append(d.bits, ev.Bits...)
			if err := d.walk(); err != nil {
				return err
			}
		case EvPTW:
			d.pos++
			d.data = append(d.data, DataObs{
				IP: ev.IP, Addr: ev.Addr, Val: ev.Val, Size: ev.Size,
				IsWrite: ev.IsWrite, TSC: ev.TSC,
			})
		case EvFUP:
			// Precise stop position: the walker may have over-run past
			// the stop point along a straight line; truncate the segment
			// just after the last occurrence of the FUP IP. The tracer
			// emits a stop's FUP before any packet of a later
			// instruction, so the stop is one of the d.straight
			// instructions replayed since the walk last consumed packet
			// material, or the one that consumed it. The scan looks no
			// further back, which keeps a run of FUPs linear in the
			// buffer.
			d.pos++
			if d.cur != nil || len(d.flow) > d.start {
				lo := max(d.start, len(d.flow)-d.straight-1)
				for i := len(d.flow) - 1; i >= lo; i-- {
					if d.flow[i] == ev.IP {
						d.straight -= len(d.flow) - (i + 1)
						d.flow = d.flow[:i+1]
						break
					}
				}
				d.cur = nil
			}
		case EvTIP:
			// Consumed inside walk; if we see one here with no walker
			// position, the prefix was lost (post-wrap): skip it.
			if d.cur == nil {
				d.pos++
			} else {
				before := d.pos
				if err := d.walk(); err != nil {
					return err
				}
				if d.pos == before && d.cur != nil {
					return fmt.Errorf("pt: unexpected TIP at event %d (walker stalled at a branch)", d.pos)
				}
			}
		}
	}
}

func (d *decoder) instrAt(ip int) (*ir.Instr, error) {
	if ip < 0 || ip >= len(d.prog.Instrs) {
		return nil, fmt.Errorf("pt: PGE/TIP target %d out of range", ip)
	}
	return d.prog.Instrs[ip], nil
}

func (d *decoder) closeSegment() {
	d.start = len(d.flow)
	d.cur = nil
	d.bits = d.bits[:0]
}

// walk replays straight-line control flow from d.cur, consuming TNT bits
// at conditional branches and TIP targets at calls/returns, until it runs
// out of packet material.
func (d *decoder) walk() error {
	for d.cur != nil {
		in := d.cur
		d.flow = append(d.flow, in.ID)
		// A traced unconditional-jump loop produces no packets. Between
		// two packets the replay is a function of the current
		// instruction alone, so once it has replayed more instructions
		// than the program holds it is going round such a loop and
		// would never stop; the bound also keeps a hostile buffer's
		// output within a program-size multiple of its packets.
		if d.straight++; d.straight > len(d.prog.Instrs) {
			return fmt.Errorf("pt: decoder runaway at instruction %d (untraceable unconditional loop?)", in.ID)
		}
		switch in.Op {
		case ir.OpBr:
			if len(d.bits) == 0 {
				// Need more TNT material; if the next event is a TNT we
				// could continue, but run() will re-enter walk after
				// pulling it. Rewind the emission of this instruction so
				// it is not recorded twice.
				d.flow = d.flow[:len(d.flow)-1]
				d.straight--
				if ev := d.peek(); ev != nil && ev.Kind == EvTNT {
					d.bits = append(d.bits, ev.Bits...)
					d.pos++
					continue
				}
				// Pause mid-block waiting for more events; run() re-enters
				// walk, and d.cur keeps the walker's position.
				return nil
			}
			taken := d.bits[0]
			d.bits = d.bits[1:]
			d.straight = 0
			d.branches = append(d.branches, BranchObs{IP: in.ID, Taken: taken})
			if taken {
				d.cur = in.Then.Instrs[0]
			} else {
				d.cur = in.Else.Instrs[0]
			}
		case ir.OpJmp:
			d.cur = in.Then.Instrs[0]
		case ir.OpCall, ir.OpRet:
			ev := d.peek()
			if ev == nil || ev.Kind != EvTIP {
				// A ret that leaves the traced world (thread exit) or a
				// region cut short: the segment ends here.
				d.cur = nil
				return nil
			}
			d.pos++
			target, err := d.instrAt(ev.IP)
			if err != nil {
				return err
			}
			d.cur = target
			d.straight = 0
		default:
			// Straight-line: next instruction in the block. Every block
			// ends in a terminator, so Idx+1 is always in range for
			// non-terminators.
			d.cur = in.Blk.Instrs[in.Idx+1]
		}
	}
	return nil
}
