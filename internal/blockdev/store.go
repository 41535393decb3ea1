// Package blockdev implements the storage substrate: an in-memory sector
// store (the ramdisk of §5 "Making a Local Device Remote"), latency-modelled
// devices (ramdisk and SATA-SSD profiles), the §4.4 sector-alignment
// zero-copy accounting, and the guest disk scheduler that guarantees at most
// one outstanding request per block — the property §4.5's retransmission
// correctness argument rests on.
package blockdev

import (
	"errors"
	"fmt"
)

// Store is an in-memory sector-addressed disk. Unwritten sectors read as
// zeros. The zero value is not usable; call NewStore.
type Store struct {
	sectorSize int
	capacity   uint64 // in sectors
	data       map[uint64][]byte
}

// Errors returned by Store.
var (
	ErrUnaligned    = errors.New("blockdev: buffer not a multiple of the sector size")
	ErrOutOfRange   = errors.New("blockdev: access beyond device capacity")
	ErrBadOp        = errors.New("blockdev: unknown operation")
	ErrZeroSectors  = errors.New("blockdev: zero-length access")
	ErrDeviceFailed = errors.New("blockdev: injected device failure")
)

// NewStore builds a store of capacitySectors sectors of sectorSize bytes.
func NewStore(sectorSize int, capacitySectors uint64) *Store {
	if sectorSize <= 0 || sectorSize&(sectorSize-1) != 0 {
		panic(fmt.Sprintf("blockdev: sector size %d must be a positive power of two", sectorSize))
	}
	if capacitySectors == 0 {
		panic("blockdev: zero capacity")
	}
	return &Store{
		sectorSize: sectorSize,
		capacity:   capacitySectors,
		data:       make(map[uint64][]byte),
	}
}

// SectorSize reports the sector size in bytes.
func (s *Store) SectorSize() int { return s.sectorSize }

// Capacity reports the device size in sectors.
func (s *Store) Capacity() uint64 { return s.capacity }

// Write stores data (a whole number of sectors) starting at sector. A sector
// written before is overwritten in place; the store never keeps a reference
// to data.
func (s *Store) Write(sector uint64, data []byte) error {
	n, err := s.span(sector, len(data))
	if err != nil {
		return err
	}
	for i := uint64(0); i < n; i++ {
		src := data[int(i)*s.sectorSize : int(i+1)*s.sectorSize]
		if sec, ok := s.data[sector+i]; ok {
			copy(sec, src)
		} else {
			s.data[sector+i] = append([]byte(nil), src...)
		}
	}
	return nil
}

// Read returns n sectors starting at sector, in a fresh buffer the caller
// owns. It is ReadInto on a buffer of its own.
func (s *Store) Read(sector uint64, n int) ([]byte, error) {
	// Validate before allocating: n may come from the wire.
	if _, err := s.span(sector, n*s.sectorSize); err != nil {
		return nil, err
	}
	out := make([]byte, n*s.sectorSize)
	return out, s.ReadInto(sector, out)
}

// ReadInto fills dst, a whole number of sectors, with the sectors starting
// at sector. Sectors never written read as zeros, so dst may be a recycled
// buffer holding anything.
func (s *Store) ReadInto(sector uint64, dst []byte) error {
	n, err := s.span(sector, len(dst))
	if err != nil {
		return err
	}
	for i := uint64(0); i < n; i++ {
		out := dst[int(i)*s.sectorSize : int(i+1)*s.sectorSize]
		if sec, ok := s.data[sector+i]; ok {
			copy(out, sec)
		} else {
			clear(out)
		}
	}
	return nil
}

// span validates an access of length bytes at sector and returns its length
// in sectors.
func (s *Store) span(sector uint64, length int) (uint64, error) {
	if length <= 0 {
		return 0, ErrZeroSectors
	}
	if length%s.sectorSize != 0 {
		return 0, fmt.Errorf("%w: %d bytes", ErrUnaligned, length)
	}
	n := uint64(length / s.sectorSize)
	if sector+n > s.capacity {
		return 0, fmt.Errorf("%w: sector %d + %d > %d", ErrOutOfRange, sector, n, s.capacity)
	}
	return n, nil
}

// AlignmentCopy reports how many bytes of a write buffer must be copied
// (rather than zero-copied) because they are not sector aligned: §4.4's
// "the worker uses for zero copy inner portions of the buffer that are
// aligned, while copying the buffer edges". bufOffset is the buffer's byte
// offset within its containing page/DMA area.
func AlignmentCopy(bufOffset, length, sectorSize int) int {
	if length <= 0 {
		return 0
	}
	head := 0
	if mis := bufOffset % sectorSize; mis != 0 {
		head = sectorSize - mis
		if head > length {
			return length // entire buffer inside one misaligned sector
		}
	}
	tail := (bufOffset + length) % sectorSize
	if head+tail > length {
		return length
	}
	return head + tail
}
