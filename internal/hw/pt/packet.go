// Package pt simulates Intel Processor Trace at packet level.
//
// The simulator reproduces the properties of the real facility that the
// Gist design depends on (§3.2.2, §6):
//
//   - control flow is recorded as a highly compressed packet stream:
//     conditional branch outcomes as TNT bits (several per byte), indirect
//     transfer targets (calls, returns) as TIP packets;
//   - traces are per core and only partially ordered across cores —
//     no cross-thread order and no data values, which is why Gist needs
//     hardware watchpoints for data flow;
//   - tracing can be turned on (PGE) and off (PGD) around regions of
//     interest, at a modest toggle cost;
//   - packets accumulate in a bounded ring buffer (2 MB by default, the
//     size the paper's kernel driver uses); on overflow the oldest
//     packets are lost and the decoder resynchronizes at the next PSB
//     sync point.
//
// Decode is the offline half, and the package's one decoder: it replays
// a core's buffer against the program's CFG, and when damaged bytes stop
// that replay it resynchronizes at the PSB sync points after them, as it
// does after an overflow (salvage.go).
//
// Instruction "IPs" are program-wide IR instruction IDs.
package pt

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// Packet type bytes. PSB uses a 4-byte magic so a decoder can resync by
// scanning for it after ring-buffer overwrite, like real PT's long PSB
// pattern.
const (
	pktPGE = 0x02 // + uvarint ip : trace enabled at ip
	pktPGD = 0x03 //              : trace disabled
	pktTNT = 0x04 // + 1 byte: low 3 bits = count n (1..5), bits 3..2+n = outcomes
	pktTIP = 0x05 // + uvarint target ip : indirect transfer target
	pktFUP = 0x06 // + uvarint ip : flow update (precise IP at async trace stop)
	// pktPTW is the extended-PT data packet of the §6 "what if PT also
	// carried data" extension (the shape Intel later shipped as
	// PTWRITE+FUP, plus a TSC for cross-core ordering): flags byte, then
	// uvarint ip, address, zigzag value, and TSC.
	pktPTW  = 0x07
	psbByte = 0x01
)

// psbMagic is the PSB synchronization pattern.
var psbMagic = []byte{psbByte, 0xC3, 0x5A, 0x99}

// EventKind discriminates decoded packet events.
type EventKind int

// Decoded event kinds.
const (
	EvPSB EventKind = iota
	EvPGE
	EvPGD
	EvTNT
	EvTIP
	EvFUP
	EvPTW
)

// Event is one decoded packet.
type Event struct {
	Kind EventKind
	IP   int // EvPGE, EvTIP, EvFUP, EvPTW

	// EvPTW payload: one data access with its TSC timestamp.
	Addr    int64
	Val     int64
	Size    int64
	TSC     int64
	IsWrite bool

	// EvTNT: NBits (1..5) branch outcomes in execution order, the k-th
	// in bit k of Bits — the packet's own payload, so parsing a TNT
	// allocates nothing.
	Bits, NBits uint8
}

// taken returns the k-th branch outcome of an EvTNT event.
func (e *Event) taken(k int) bool { return e.Bits>>k&1 != 0 }

// appendUvarint appends v in unsigned varint encoding.
func appendUvarint(dst []byte, v uint64) []byte {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	return append(dst, buf[:n]...)
}

// encodePSB appends a PSB sync packet.
func encodePSB(dst []byte) []byte { return append(dst, psbMagic...) }

// encodePGE appends a trace-enable packet at ip.
func encodePGE(dst []byte, ip int) []byte {
	dst = append(dst, pktPGE)
	return appendUvarint(dst, uint64(ip))
}

// encodePGD appends a trace-disable packet.
func encodePGD(dst []byte) []byte { return append(dst, pktPGD) }

// encodeTNT appends a TNT packet carrying bits (1..6 outcomes).
func encodeTNT(dst []byte, bits []bool) []byte {
	if len(bits) == 0 || len(bits) > 5 {
		panic(fmt.Sprintf("pt: TNT packet with %d bits", len(bits)))
	}
	b := byte(len(bits))
	for i, bit := range bits {
		if bit {
			b |= 1 << (3 + i)
		}
	}
	return append(dst, pktTNT, b)
}

// encodeTIP appends a TIP packet with the transfer target.
func encodeTIP(dst []byte, target int) []byte {
	dst = append(dst, pktTIP)
	return appendUvarint(dst, uint64(target))
}

// encodeFUP appends a flow-update packet carrying the precise last IP.
func encodeFUP(dst []byte, ip int) []byte {
	dst = append(dst, pktFUP)
	return appendUvarint(dst, uint64(ip))
}

// zigzag encodes a signed value for uvarint transport.
func zigzag(v int64) uint64 { return uint64((v << 1) ^ (v >> 63)) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// encodePTW appends an extended-PT data packet.
func encodePTW(dst []byte, ip int, addr, val, size int64, isWrite bool, tsc int64) []byte {
	flags := byte(0)
	if isWrite {
		flags |= 1
	}
	if size == 1 {
		flags |= 2
	}
	dst = append(dst, pktPTW, flags)
	dst = appendUvarint(dst, uint64(ip))
	dst = appendUvarint(dst, uint64(addr))
	dst = appendUvarint(dst, zigzag(val))
	return appendUvarint(dst, uint64(tsc))
}

// parsePackets decodes a raw packet byte stream into events, appended to
// evs. If synced is false (the buffer wrapped and its head may be
// mid-packet), parsing starts at the first PSB magic; everything before
// it is lost. On an error the events before the bad packet come back
// with it.
func parsePackets(evs []Event, data []byte, synced bool) ([]Event, error) {
	i := 0
	if !synced {
		i = bytes.Index(data, psbMagic)
		if i < 0 {
			return evs, nil // no sync point survived: whole buffer lost
		}
	}
	for i < len(data) {
		switch data[i] {
		case psbByte:
			if !bytes.HasPrefix(data[i:], psbMagic) {
				return evs, fmt.Errorf("pt: corrupt PSB at offset %d", i)
			}
			evs = append(evs, Event{Kind: EvPSB})
			i += len(psbMagic)
		case pktPGE:
			ip, n := binary.Uvarint(data[i+1:])
			if n <= 0 {
				return evs, fmt.Errorf("pt: truncated PGE at offset %d", i)
			}
			evs = append(evs, Event{Kind: EvPGE, IP: int(ip)})
			i += 1 + n
		case pktPGD:
			evs = append(evs, Event{Kind: EvPGD})
			i++
		case pktTNT:
			if i+1 >= len(data) {
				return evs, fmt.Errorf("pt: truncated TNT at offset %d", i)
			}
			b := data[i+1]
			n := int(b & 0x7)
			if n == 0 || n > 5 {
				return evs, fmt.Errorf("pt: bad TNT count %d at offset %d", n, i)
			}
			evs = append(evs, Event{Kind: EvTNT, Bits: b >> 3 & (1<<n - 1), NBits: uint8(n)})
			i += 2
		case pktTIP:
			ip, n := binary.Uvarint(data[i+1:])
			if n <= 0 {
				return evs, fmt.Errorf("pt: truncated TIP at offset %d", i)
			}
			evs = append(evs, Event{Kind: EvTIP, IP: int(ip)})
			i += 1 + n
		case pktFUP:
			ip, n := binary.Uvarint(data[i+1:])
			if n <= 0 {
				return evs, fmt.Errorf("pt: truncated FUP at offset %d", i)
			}
			evs = append(evs, Event{Kind: EvFUP, IP: int(ip)})
			i += 1 + n
		case pktPTW:
			if i+1 >= len(data) {
				return evs, fmt.Errorf("pt: truncated PTW at offset %d", i)
			}
			flags := data[i+1]
			j := i + 2
			var fields [4]uint64
			for k := 0; k < 4; k++ {
				v, n := binary.Uvarint(data[j:])
				if n <= 0 {
					return evs, fmt.Errorf("pt: truncated PTW payload at offset %d", j)
				}
				fields[k] = v
				j += n
			}
			size := int64(8)
			if flags&2 != 0 {
				size = 1
			}
			evs = append(evs, Event{
				Kind: EvPTW, IP: int(fields[0]), Addr: int64(fields[1]),
				Val: unzigzag(fields[2]), Size: size,
				IsWrite: flags&1 != 0, TSC: int64(fields[3]),
			})
			i = j
		default:
			return evs, fmt.Errorf("pt: unknown packet byte %#x at offset %d", data[i], i)
		}
	}
	return evs, nil
}
