package pt

import (
	"bytes"
	"fmt"
	"slices"

	"repro/internal/ir"
)

// The reference decoder: the per-instruction replay the block-stepping
// decoder replaced, kept verbatim apart from its names and comments,
// fresh scratch per call and no metric counters. FuzzPTDecode and
// TestRunawayNamesTheReferenceInstruction hold Decode to it, in both
// modes, on flow, branches, accesses, salvage report and error text.

// refDecode is Decode as the reference computes it.
func refDecode(prog *ir.Program, data []byte, wrapped, wantFlow bool) (flow []int, branches []BranchObs, dobs []DataObs, rep SalvageReport, err error) {
	flow, branches, dobs, err = refClean(prog, data, wrapped, wantFlow)
	if err == nil {
		return flow, branches, dobs, rep, nil
	}
	flow, branches, dobs, rep = refSalvage(prog, data, wrapped)
	if !wantFlow {
		flow = nil
	}
	return flow, branches, dobs, rep, err
}

func refClean(prog *ir.Program, data []byte, wrapped, wantFlow bool) ([]int, []BranchObs, []DataObs, error) {
	s := new(refScratch)
	if err := s.parse(data, !wrapped); err != nil {
		return nil, nil, nil, err
	}
	return s.replay(prog, wantFlow)
}

func refSalvage(prog *ir.Program, data []byte, wrapped bool) (flow []int, branches []BranchObs, dobs []DataObs, rep SalvageReport) {
	start := 0
	if wrapped {
		if start = bytes.Index(data, psbMagic); start < 0 {
			return nil, nil, nil, rep
		}
	}
	s := new(refScratch)
	prevBad := false
	for _, chunk := range splitAtPSB(data[start:]) {
		rep.Chunks++
		if prevBad {
			rep.Resyncs++
		}
		perr := s.parse(chunk, true)
		f, b, d, derr := s.replay(prog, true)
		prevBad = perr != nil || derr != nil
		if prevBad {
			rep.BadChunks++
		}
		flow = append(flow, f...)
		branches = append(branches, b...)
		dobs = append(dobs, d...)
	}
	rep.Instrs = len(flow)
	return flow, branches, dobs, rep
}

type refScratch struct {
	evs      []Event
	flow     []int
	branches []BranchObs
	bits     []bool
}

func (s *refScratch) parse(data []byte, synced bool) (err error) {
	s.evs, err = parsePackets(s.evs[:0], data, synced)
	return err
}

func (s *refScratch) replay(prog *ir.Program, wantFlow bool) (flow []int, branches []BranchObs, data []DataObs, err error) {
	d := &refDecoder{prog: prog, evs: s.evs, flow: s.flow[:0], branches: s.branches[:0], bits: s.bits[:0]}
	err = d.run()
	if wantFlow && d.start > 0 {
		flow = slices.Clone(d.flow[:d.start])
	}
	if len(d.branches) > 0 {
		branches = slices.Clone(d.branches)
	}
	s.flow, s.branches, s.bits = d.flow, d.branches, d.bits
	return flow, branches, d.data, err
}

type refDecoder struct {
	prog     *ir.Program
	evs      []Event
	pos      int
	bits     []bool
	nextBit  int
	cur      *ir.Instr
	flow     []int
	start    int
	straight int
	branches []BranchObs
	data     []DataObs
}

func (d *refDecoder) peek() *Event {
	if d.pos >= len(d.evs) {
		return nil
	}
	return &d.evs[d.pos]
}

func (d *refDecoder) run() error {
	for {
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

func (d *refDecoder) instrAt(ip int) (*ir.Instr, error) {
	if ip < 0 || ip >= len(d.prog.Instrs) {
		return nil, fmt.Errorf("pt: PGE/TIP target %d out of range", ip)
	}
	return d.prog.Instrs[ip], nil
}

func (d *refDecoder) closeSegment() {
	d.start = len(d.flow)
	d.cur = nil
	d.bits, d.nextBit = d.bits[:0], 0
}

func (d *refDecoder) pushBits(ev *Event) {
	if d.nextBit == len(d.bits) {
		d.bits, d.nextBit = d.bits[:0], 0
	}
	for k := 0; k < int(ev.NBits); k++ {
		d.bits = append(d.bits, ev.taken(k))
	}
}

func (d *refDecoder) walk() error {
	for d.cur != nil {
		in := d.cur
		d.flow = append(d.flow, in.ID)
		if d.straight++; d.straight > len(d.prog.Instrs) {
			return fmt.Errorf("pt: decoder runaway at instruction %d (untraceable unconditional loop?)", in.ID)
		}
		switch in.Op {
		case ir.OpBr:
			if d.nextBit == len(d.bits) {
				d.flow = d.flow[:len(d.flow)-1]
				d.straight--
				if ev := d.peek(); ev != nil && ev.Kind == EvTNT {
					d.pushBits(ev)
					d.pos++
					continue
				}
				return nil
			}
			taken := d.bits[d.nextBit]
			d.nextBit++
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
			d.cur = in.Blk.Instrs[in.Idx+1]
		}
	}
	return nil
}
