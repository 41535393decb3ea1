package ethernet

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// The fake TCP/IP encapsulation of §4.3: vRIO works at raw Ethernet level
// but prepends IPv4+TCP headers so NIC TSO segments a ≤64 KiB message in
// hardware. We reuse header fields the way STT does:
//
//	IPv4.Identification  = message id (low 16 bits)
//	TCP.SourcePort       = front-end device id
//	TCP.DestinationPort  = message id (high 16 bits)
//	TCP.SequenceNumber   = fragment byte offset within the message
//	TCP.AckNumber        = total message length
//	TCP.PSH flag         = set on the final fragment
//
// The IPv4 header checksum is computed for real; the TCP checksum is left
// zero, as it would be with checksum offload.

const (
	ipHeaderSize  = 20
	tcpHeaderSize = 20
	// EncapOverhead is the fake TCP/IP bytes prepended to every fragment.
	EncapOverhead = ipHeaderSize + tcpHeaderSize
	// MaxMessage is the largest encapsulated message: the 64 KiB TCP/IP
	// limit that also bounds what TSO can offload.
	MaxMessage = 64 * 1024
	// PageSize is the 4 KiB page used in the §4.4 fragment-page budget.
	PageSize = 4096
	// MaxZeroCopyPages is how many pages one Linux SKB can map (§4.4).
	MaxZeroCopyPages = 17
)

// Errors from the TSO layer.
var (
	ErrMessageTooBig = errors.New("ethernet: message exceeds 64KiB TSO limit")
	ErrShortSegment  = errors.New("ethernet: segment shorter than encapsulation headers")
	ErrBadIPChecksum = errors.New("ethernet: IPv4 header checksum mismatch")
	ErrBadFragment   = errors.New("ethernet: inconsistent fragment metadata")
)

// Segment is one decoded fragment of an encapsulated message.
type Segment struct {
	MsgID    uint32
	DeviceID uint16
	Offset   uint32
	Total    uint32
	Last     bool
	Payload  []byte
}

// ipChecksum computes the RFC 1071 ones'-complement header checksum.
func ipChecksum(hdr []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(hdr); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(hdr[i:]))
	}
	if len(hdr)%2 == 1 {
		sum += uint32(hdr[len(hdr)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + (sum >> 16)
	}
	return ^uint16(sum)
}

// encapSegment builds headers+payload for one fragment.
func encapSegment(s Segment) []byte {
	b := make([]byte, EncapOverhead+len(s.Payload))
	EncapSegmentInto(b, s)
	return b
}

// EncapSegmentInto is the scatter-gather variant of segment encapsulation:
// it writes the fake TCP/IP headers and payload into b, which must be
// exactly EncapOverhead+len(s.Payload) long. The NIC's TSO path uses it to
// build each fragment directly inside a pooled frame buffer, headers and
// payload in one pass.
func EncapSegmentInto(b []byte, s Segment) {
	if len(b) != EncapOverhead+len(s.Payload) {
		panic(fmt.Sprintf("ethernet: EncapSegmentInto buffer %d for payload %d", len(b), len(s.Payload)))
	}
	ip := b[:ipHeaderSize]
	ip[0] = 0x45 // version 4, IHL 5
	binary.BigEndian.PutUint16(ip[2:], uint16(len(b)))
	binary.BigEndian.PutUint16(ip[4:], uint16(s.MsgID&0xffff)) // identification
	ip[8] = 64                                                 // TTL
	ip[9] = 6                                                  // protocol TCP
	// src/dst IP left zero: addressing is by MAC on the dedicated channel.
	binary.BigEndian.PutUint16(ip[10:], 0)
	binary.BigEndian.PutUint16(ip[10:], ipChecksum(ip))

	tcp := b[ipHeaderSize : ipHeaderSize+tcpHeaderSize]
	binary.BigEndian.PutUint16(tcp[0:], s.DeviceID)
	binary.BigEndian.PutUint16(tcp[2:], uint16(s.MsgID>>16))
	binary.BigEndian.PutUint32(tcp[4:], s.Offset)
	binary.BigEndian.PutUint32(tcp[8:], s.Total)
	tcp[12] = 5 << 4 // data offset
	if s.Last {
		tcp[13] = 0x08 // PSH
	}
	copy(b[EncapOverhead:], s.Payload)
}

// DecodeSegment parses a fragment produced by Segment/encapSegment,
// verifying the IPv4 header checksum and that the fragment lies inside a
// message of at most MaxMessage bytes. The returned payload aliases b.
func DecodeSegment(b []byte) (Segment, error) {
	if len(b) < EncapOverhead {
		return Segment{}, ErrShortSegment
	}
	ip := b[:ipHeaderSize]
	if ipChecksum(ip) != 0 { // checksum over header including stored sum is 0 when valid
		return Segment{}, ErrBadIPChecksum
	}
	tot := binary.BigEndian.Uint16(ip[2:])
	if int(tot) != len(b) {
		return Segment{}, fmt.Errorf("%w: ip length %d vs %d", ErrBadFragment, tot, len(b))
	}
	ident := binary.BigEndian.Uint16(ip[4:])
	tcp := b[ipHeaderSize:EncapOverhead]
	s := Segment{
		DeviceID: binary.BigEndian.Uint16(tcp[0:]),
		MsgID:    uint32(binary.BigEndian.Uint16(tcp[2:]))<<16 | uint32(ident),
		Offset:   binary.BigEndian.Uint32(tcp[4:]),
		Total:    binary.BigEndian.Uint32(tcp[8:]),
		Last:     tcp[13]&0x08 != 0,
		Payload:  b[EncapOverhead:],
	}
	// A remote sender chooses Total; the reassembler sizes a buffer and a
	// coverage bitmap by it, so anything beyond the TSO limit is refused
	// before either exists.
	if s.Total > MaxMessage {
		return Segment{}, fmt.Errorf("%w: total %d > %d", ErrBadFragment, s.Total, MaxMessage)
	}
	if s.Offset > s.Total || uint32(len(s.Payload)) > s.Total-s.Offset {
		return Segment{}, fmt.Errorf("%w: offset %d + len %d > total %d",
			ErrBadFragment, s.Offset, len(s.Payload), s.Total)
	}
	return s, nil
}

// SegmentMessage splits one message (≤ 64 KiB) into MTU-sized encapsulated
// fragments, emulating what the TSO engine does in hardware. Each returned
// byte slice is a complete frame payload (fake IP+TCP headers included).
func SegmentMessage(msgID uint32, deviceID uint16, msg []byte, mtu int) ([][]byte, error) {
	if len(msg) > MaxMessage {
		return nil, fmt.Errorf("%w: %d bytes", ErrMessageTooBig, len(msg))
	}
	if mtu < MinMTU || mtu > MaxMTU {
		return nil, fmt.Errorf("ethernet: MTU %d outside [%d, %d]", mtu, MinMTU, MaxMTU)
	}
	chunk := mtu - EncapOverhead
	if chunk <= 0 {
		return nil, fmt.Errorf("ethernet: MTU %d leaves no payload room", mtu)
	}
	total := uint32(len(msg))
	var out [][]byte
	for off := 0; ; off += chunk {
		end := off + chunk
		last := false
		if end >= len(msg) {
			end = len(msg)
			last = true
		}
		out = append(out, encapSegment(Segment{
			MsgID:    msgID,
			DeviceID: deviceID,
			Offset:   uint32(off),
			Total:    total,
			Last:     last,
			Payload:  msg[off:end],
		}))
		if last {
			break
		}
	}
	return out, nil
}

// FragmentPages reports how many 4 KiB pages one fragment of the given wire
// size (headers included) occupies when mapped into an SKB.
func FragmentPages(wireLen int) int {
	if wireLen <= 0 {
		return 0
	}
	return (wireLen + PageSize - 1) / PageSize
}

// ZeroCopyFeasible reports whether a message of msgLen segmented at the
// given MTU reassembles within the 17-page SKB budget (§4.4). With MTU 8100
// every 64 KiB message fits (8 fragments × 2 pages + 1 × 1 page = 17); with
// MTU 9000 a fragment (9000+40 bytes) spans 3 pages and the budget bursts.
func ZeroCopyFeasible(msgLen, mtu int) bool {
	if msgLen <= 0 {
		return true
	}
	chunk := mtu - EncapOverhead
	if chunk <= 0 {
		return false
	}
	pages := 0
	for off := 0; off < msgLen; off += chunk {
		n := chunk
		if off+n > msgLen {
			n = msgLen - off
		}
		pages += FragmentPages(n + EncapOverhead)
	}
	return pages <= MaxZeroCopyPages
}
