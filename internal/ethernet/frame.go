// Package ethernet implements the wire format of vRIO's dedicated
// communication channel: Ethernet framing, the STT-style fake-TCP/IP
// encapsulation that lets vRIO exploit NIC TSO while working at raw Ethernet
// level (§4.3), and the zero-copy reassembler with the paper's 17-fragment
// page-budget rule (§4.4).
package ethernet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"vrio/internal/bufpool"
)

// MAC is a 48-bit Ethernet address.
type MAC [6]byte

// String renders the usual colon-hex form.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// Broadcast is the all-ones broadcast address.
var Broadcast = MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// NewMAC derives a locally administered unicast MAC from a 32-bit node id.
func NewMAC(node uint32) MAC {
	var m MAC
	m[0] = 0x02 // locally administered, unicast
	m[1] = 0x10
	binary.BigEndian.PutUint32(m[2:], node)
	return m
}

// NodeID recovers the 32-bit node id a MAC was minted from by NewMAC, and
// reports whether the address carries one (broadcast and foreign addresses
// do not). The fabric locator uses it to map any cluster MAC to its rack
// arithmetically, without a learned table.
func NodeID(m MAC) (uint32, bool) {
	if m[0] != 0x02 || m[1] != 0x10 {
		return 0, false
	}
	return binary.BigEndian.Uint32(m[2:]), true
}

// EtherType values used by the reproduction.
const (
	// EtherTypeVRIO marks vRIO-encapsulated traffic (an experimental-range
	// EtherType, as a real deployment would use).
	EtherTypeVRIO = 0x88B5
	// EtherTypePlain marks ordinary tenant traffic (e.g. generator <->
	// webserver payloads, which vRIO forwards without decapsulation).
	EtherTypePlain = 0x0800
)

// HeaderSize is the Ethernet header length (no VLAN tag).
const HeaderSize = 14

// FCS computes the frame check sequence the simulated PHY uses: CRC32 with
// the IEEE 802.3 polynomial over the encoded frame bytes. Encoded frames
// never carry the 4 FCS bytes — they live inside the 24-byte per-frame wire
// overhead the link layer charges — so the checksum exists only as a value:
// a wire under fault injection snapshots it at transmit time and re-verifies
// at delivery, detecting and discarding frames corrupted in flight.
func FCS(frame []byte) uint32 { return crc32.ChecksumIEEE(frame) }

// MinMTU and MaxMTU bound the payload per frame. 9000 is the maximal jumbo
// frame; the paper deliberately uses 8100 (see package tso).
const (
	MinMTU = 64
	MaxMTU = 9000
)

// Frame is one Ethernet frame.
type Frame struct {
	Dst       MAC
	Src       MAC
	EtherType uint16
	Payload   []byte
}

// Errors returned by the codec.
var (
	ErrShortFrame = errors.New("ethernet: frame shorter than header")
	ErrOversize   = errors.New("ethernet: payload exceeds MTU")
)

// Encode serializes the frame. If mtu > 0 the payload length is validated
// against it.
func (f *Frame) Encode(mtu int) ([]byte, error) {
	if mtu > 0 && len(f.Payload) > mtu {
		return nil, fmt.Errorf("%w: %d > %d", ErrOversize, len(f.Payload), mtu)
	}
	b := make([]byte, HeaderSize+len(f.Payload))
	PutHeader(b, f.Dst, f.Src, f.EtherType)
	copy(b[HeaderSize:], f.Payload)
	return b, nil
}

// EncodePooled serializes the frame into a slab drawn from pool. The caller
// owns the slab and returns it with pool.PutRaw (or hands it to a consumer
// that does); f.Payload is only read during the call. Every simulated
// tenant-frame transmit encodes through here.
func (f *Frame) EncodePooled(pool *bufpool.Pool) []byte {
	b := pool.GetRaw(HeaderSize + len(f.Payload))
	PutHeader(b, f.Dst, f.Src, f.EtherType)
	copy(b[HeaderSize:], f.Payload)
	return b
}

// PutHeader writes the 14-byte Ethernet header into b, which must be at
// least HeaderSize long. The TSO send path uses it to build header,
// encapsulation, and payload inside one pooled buffer.
func PutHeader(b []byte, dst, src MAC, etherType uint16) {
	copy(b[0:6], dst[:])
	copy(b[6:12], src[:])
	binary.BigEndian.PutUint16(b[12:14], etherType)
}

// Decode parses a serialized frame. The returned payload aliases b.
func Decode(b []byte) (Frame, error) {
	if len(b) < HeaderSize {
		return Frame{}, ErrShortFrame
	}
	var f Frame
	copy(f.Dst[:], b[0:6])
	copy(f.Src[:], b[6:12])
	f.EtherType = binary.BigEndian.Uint16(b[12:14])
	f.Payload = b[HeaderSize:]
	return f, nil
}

// WireSize reports the on-the-wire size of the frame including header and a
// fixed 24 bytes of preamble/FCS/inter-frame gap, used for serialization
// delay on links.
func (f *Frame) WireSize() int {
	return HeaderSize + len(f.Payload) + 24
}
