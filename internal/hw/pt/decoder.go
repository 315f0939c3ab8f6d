package pt

import (
	"fmt"
	"slices"

	"repro/internal/ir"
	"repro/internal/spare"
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

// Decode reconstructs the executed instruction sequence of one core
// from its raw packet buffer, against the program's CFG — the offline
// side of control-flow tracking: packets only say "taken/not-taken/
// target", and the decoder replays the CFG to recover which statements
// executed. wrapped indicates the ring buffer overflowed; decoding then
// starts at the first PSB sync point and the lost prefix is silently
// dropped, exactly like a real PT decoder.
//
// The replay steps a block at a time, as libipt's block decoder does:
// between two control transfers nothing emits a packet, so it moves
// from its position to the next br, jmp, call or ret (ir.Instr.NextCtl)
// in one step, and its cost follows the packets, not the instructions.
// The traced regions (each the instructions between a PGE and its PGD,
// or the end of the buffer) come back to back as flow, only if
// wantFlow, plus the conditional-branch outcomes recovered from the TNT
// bits in consumption order and the extended-PT data accesses. The
// outcomes are a byproduct of CFG replay: they carry strictly more
// information than the flow alone when a trace stops right at a branch
// (the successor is then not part of the flow but the outcome is still
// known). wantFlow only decides whether the replayed IDs are written
// out; both modes run the same walk. Every slice returned is the
// caller's own.
//
// The buffer is replayed once, cleanly. If that replay fails, err is
// its error and the results are what salvage recovers from the same
// bytes, accounted in rep (see salvage.go); rep is zero after a clean
// decode. A diagnosis server needs the flow of one run per iteration,
// the one its sketch is drawn from, and the outcomes and accesses of
// every run: core.FinishRun decodes each upload without the flow, and
// the sketch's run is decoded again with it when it is chosen.
func Decode(prog *ir.Program, data []byte, wrapped, wantFlow bool) (flow []int, branches []BranchObs, dobs []DataObs, rep SalvageReport, err error) {
	flow, branches, dobs, err = decode(prog, data, wrapped, wantFlow)
	if err == nil {
		return flow, branches, dobs, rep, nil
	}
	flow, branches, dobs, rep = salvage(prog, data, wrapped, wantFlow)
	return flow, branches, dobs, rep, err
}

// decode is Decode's clean replay: it stops with an error at the first
// malformed packet or impossible replay step.
func decode(prog *ir.Program, data []byte, wrapped, wantFlow bool) ([]int, []BranchObs, []DataObs, error) {
	decodeCalls.Add(1)
	decodedBytes.Add(int64(len(data)))
	s := getScratch()
	defer putScratch(s)
	if err := s.parse(data, !wrapped); err != nil {
		decodeErrors.Add(1)
		return nil, nil, nil, err
	}
	flow, branches, dobs, _, err := s.replay(prog, wantFlow)
	if err != nil {
		decodeErrors.Add(1)
		return nil, nil, nil, err
	}
	return own(flow), own(branches), dobs, nil
}

// own copies a scratch slice out at exact size; an empty one is nil.
func own[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return slices.Clone(s)
}

// scratch is one decode's working memory: the parsed packets, the
// replayed flow (open region included), the branch outcomes, the TNT
// bits not yet consumed and the FUP window. A decode cannot know its
// output sizes up front, and growing fresh slices by doubling for every
// core of every run was most of a diagnosis's allocated bytes; a decode
// appends into kept scratch instead and copies out, once and at exact
// size, what its caller keeps.
type scratch struct {
	evs      []Event
	flow     []int
	branches []BranchObs
	bits     []bool
	window   []span
}

// scratches holds the scratch of finished decodes for the next one.
var scratches spare.List[*scratch]

// maxSpareLen bounds the scratch putScratch keeps: one huge (or hostile)
// buffer's working memory goes back to the GC rather than staying
// pinned for the life of the process.
const maxSpareLen = 1 << 16

func getScratch() *scratch {
	if s, ok := scratches.Get(); ok {
		return s
	}
	return new(scratch)
}

func putScratch(s *scratch) {
	if cap(s.evs) > maxSpareLen || cap(s.flow) > maxSpareLen || cap(s.window) > maxSpareLen {
		return
	}
	scratches.Put(s)
}

// parse replaces s.evs with the packets of data; on an error the events
// before the bad packet are kept.
func (s *scratch) parse(data []byte, synced bool) (err error) {
	s.evs, err = parsePackets(s.evs[:0], data, synced)
	return err
}

// replay replays s.evs against prog. It returns the instructions of all
// traced regions back to back (only if wantFlow), the branch outcomes,
// the data accesses and how many instructions the traced regions hold.
// The data accesses are the caller's own; flow and branches are s's,
// valid until its next replay, for the caller to copy what it keeps.
// After an error only the closed regions count: the one the replay was
// in the middle of is dropped.
func (s *scratch) replay(prog *ir.Program, wantFlow bool) (flow []int, branches []BranchObs, data []DataObs, instrs int, err error) {
	d := &decoder{prog: prog, evs: s.evs, wantFlow: wantFlow, flow: s.flow[:0], window: s.window[:0], branches: s.branches[:0], bits: s.bits[:0]}
	err = d.run()
	if wantFlow {
		flow = d.flow[:d.start]
	}
	s.flow, s.window, s.branches, s.bits = d.flow, d.window, d.branches, d.bits
	return flow, d.branches, d.data, d.start, err
}

// span is the run of consecutive instruction IDs lo..hi: a stretch of
// one block, which ir.Program numbers consecutively.
type span struct{ lo, hi int }

type decoder struct {
	prog *ir.Program
	evs  []Event
	pos  int // next event index

	// bits[nextBit:] are the TNT bits available for consumption.
	bits    []bool
	nextBit int
	cur     *ir.Instr // nil = tracing off / waiting for PGE

	// n counts the instructions replayed, every region back to back;
	// the closed regions hold the first start of them and the open
	// region the rest. flow holds their IDs, only if wantFlow.
	wantFlow bool
	flow     []int
	n, start int

	// straight counts the instructions replayed since the walk last
	// consumed packet material (a TNT bit, a TIP, a PGE anchor), for the
	// runaway guard and the FUP scan. window holds the open region's
	// last straight+1 instructions (all of it, if shorter), oldest span
	// first: the stretch a FUP can name.
	straight int
	window   []span
	branches []BranchObs
	data     []DataObs
}

// peek returns the next event without consuming it, or nil.
func (d *decoder) peek() *Event {
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
				// The count restarts at the anchor, so the FUP window
				// shrinks to the open region's last instruction, if the
				// region (left open by a FUP or an untargeted call or
				// ret) has one.
				if k := len(d.window); k > 0 {
					d.anchor(d.window[k-1].hi)
				}
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
			d.pushBits(ev)
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
			// material, or the one that consumed it: the window. The
			// scan looks no further back, which keeps a run of FUPs
			// linear in the buffer.
			d.pos++
			if d.cur != nil || d.n > d.start {
				d.truncate(ev.IP)
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
	d.start = d.n
	d.window = d.window[:0]
	d.cur = nil
	d.bits, d.nextBit = d.bits[:0], 0
}

// pushBits queues a TNT event's outcomes for consumption.
func (d *decoder) pushBits(ev *Event) {
	if d.nextBit == len(d.bits) {
		d.bits, d.nextBit = d.bits[:0], 0
	}
	for k := 0; k < int(ev.NBits); k++ {
		d.bits = append(d.bits, ev.taken(k))
	}
}

// replayed appends instructions lo..hi, one stretch of a block, to the
// open region.
func (d *decoder) replayed(lo, hi int) {
	if hi < lo {
		return
	}
	d.n += hi - lo + 1
	d.straight += hi - lo + 1
	if k := len(d.window); k > 0 && d.window[k-1].hi+1 == lo {
		d.window[k-1].hi = hi
	} else {
		d.window = append(d.window, span{lo, hi})
	}
	if d.wantFlow {
		for id := lo; id <= hi; id++ {
			d.flow = append(d.flow, id)
		}
	}
}

// anchor records that the walk consumed packet material at instruction
// id, the open region's last: the FUP window shrinks to it.
func (d *decoder) anchor(id int) {
	d.straight = 0
	d.window = append(d.window[:0], span{id, id})
}

// truncate ends the open region just after the last occurrence of ip in
// the window, if it has one.
func (d *decoder) truncate(ip int) {
	cut := 0
	for k := len(d.window) - 1; k >= 0; k-- {
		w := &d.window[k]
		if w.lo <= ip && ip <= w.hi {
			cut += w.hi - ip
			w.hi = ip
			d.window = d.window[:k+1]
			d.n -= cut
			d.straight -= cut
			if d.wantFlow {
				d.flow = d.flow[:d.n]
			}
			return
		}
		cut += w.hi - w.lo + 1
	}
}

// walk replays control flow from d.cur, a block stretch at a time,
// consuming TNT bits at conditional branches and TIP targets at
// calls/returns, until it runs out of packet material.
func (d *decoder) walk() error {
	for d.cur != nil {
		in := d.cur
		ctl := d.prog.Instrs[in.NextCtl]
		// A traced unconditional-jump loop produces no packets. Between
		// two packets the replay is a function of the current
		// instruction alone, so once it has replayed more instructions
		// than the program holds it is going round such a loop and
		// would never stop; the bound also keeps a hostile buffer's
		// output within a program-size multiple of its packets. The
		// error names the instruction the count crosses at, the
		// stretch's terminator included even if the walk would pause
		// there.
		if over := d.straight + ctl.ID - in.ID + 1 - len(d.prog.Instrs); over > 0 {
			return fmt.Errorf("pt: decoder runaway at instruction %d (untraceable unconditional loop?)", ctl.ID-over+1)
		}
		if ctl.Op == ir.OpBr && d.nextBit == len(d.bits) {
			// Need more TNT material: replay up to the branch and
			// pause there. If the next event is a TNT we can continue;
			// otherwise run() re-enters walk, and d.cur keeps the
			// walker's position.
			d.replayed(in.ID, ctl.ID-1)
			d.cur = ctl
			if ev := d.peek(); ev != nil && ev.Kind == EvTNT {
				d.pushBits(ev)
				d.pos++
				continue
			}
			return nil
		}
		d.replayed(in.ID, ctl.ID)
		switch ctl.Op {
		case ir.OpBr:
			taken := d.bits[d.nextBit]
			d.nextBit++
			d.anchor(ctl.ID)
			d.branches = append(d.branches, BranchObs{IP: ctl.ID, Taken: taken})
			if taken {
				d.cur = ctl.Then.Instrs[0]
			} else {
				d.cur = ctl.Else.Instrs[0]
			}
		case ir.OpJmp:
			d.cur = ctl.Then.Instrs[0]
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
			d.anchor(ctl.ID)
		}
	}
	return nil
}
