// Package virtio reimplements the virtio virtqueue — the shared-memory ring
// protocol that the baseline, Elvis, and vRIO I/O models all speak (§4.1:
// "We directly reuse the virtio protocol"). The ring is laid out in a byte
// slab exactly like guest shared memory (little-endian descriptor table,
// avail ring, used ring), so the driver and device sides genuinely
// communicate through encoded bytes rather than Go object graphs.
package virtio

import (
	"encoding/binary"
	"errors"
	"fmt"

	"vrio/internal/trace"
)

// Descriptor flags, as in the virtio spec.
const (
	descFlagNext  = 0x1 // continues via the next field
	descFlagWrite = 0x2 // device-writable (driver-readable) buffer
)

const (
	descSize      = 16 // u64 addr, u32 len, u16 flags, u16 next
	usedElemSize  = 8  // u32 id, u32 len
	ringHdrSize   = 4  // u16 flags, u16 idx
	maxQueueSize  = 32768
	minQueueSize  = 2
	minSegmentLen = 64
)

// Errors returned by ring operations.
var (
	ErrRingFull     = errors.New("virtio: not enough free descriptors")
	ErrBadChain     = errors.New("virtio: corrupt descriptor chain")
	ErrTooLarge     = errors.New("virtio: buffer exceeds ring capacity")
	ErrEmptyRequest = errors.New("virtio: request has no segments")
)

// Ring is one virtqueue. The driver side (guest) posts buffers with Add and
// reaps completions with Reap; the device side (host/sidecore/IOhost) polls
// with Pop and completes with Push. A Ring is not safe for concurrent use;
// the simulation is single-threaded by design.
//
// Descriptor i owns payload slot i, which is backed on first touch: a ring
// that only ever cycles a few descriptors (the free list is LIFO) never
// pays for the rest, and an untouched slot reads as zeros exactly as a
// zeroed slab would.
type Ring struct {
	qsize   int
	segSize int

	// Shared memory regions, all living in one slab like guest RAM.
	desc  []byte // descriptor table: qsize * descSize
	avail []byte // avail ring: hdr + qsize * 2
	used  []byte // used ring: hdr + qsize * usedElemSize
	// segs are the payload slots, segSize bytes each (descriptor i owns
	// segs[i]); nil until slot(i) first touches one.
	segs [][]byte

	// Driver-private state.
	freeHead    uint16
	numFree     int
	lastUsedIdx uint16
	pending     map[uint16]*token // head -> in-flight request bookkeeping
	tokFree     []*token          // recycled tokens: Add/Reap do not allocate in steady state

	// Device-private state.
	lastAvailIdx uint16

	// Statistics.
	kicks       uint64
	completions uint64

	// Tracer, when non-nil, records a guest_ring span per request from Add
	// to Reap, named SpanName with the chain head as the correlation arg.
	// Rings owned by the baseline/Elvis hosts leave this nil; the vRIO
	// model's ring-equivalent submission point is the transport driver,
	// which does its own tracing.
	Tracer   *trace.Tracer
	SpanName string
}

type token struct {
	inDescs  []uint16 // device-writable descriptors in chain order
	outDescs []uint16
	span     trace.SpanID
}

// getToken returns a recycled (or fresh) token with empty descriptor lists.
func (r *Ring) getToken() *token {
	if n := len(r.tokFree); n > 0 {
		t := r.tokFree[n-1]
		r.tokFree[n-1] = nil
		r.tokFree = r.tokFree[:n-1]
		t.outDescs = t.outDescs[:0]
		t.inDescs = t.inDescs[:0]
		t.span = 0
		return t
	}
	return &token{}
}

// NewRing builds a virtqueue with qsize descriptors of segSize bytes each.
// qsize must be a power of two in [2, 32768], matching hardware virtio.
func NewRing(qsize, segSize int) (*Ring, error) {
	if qsize < minQueueSize || qsize > maxQueueSize || qsize&(qsize-1) != 0 {
		return nil, fmt.Errorf("virtio: queue size %d must be a power of two in [%d, %d]",
			qsize, minQueueSize, maxQueueSize)
	}
	if segSize < minSegmentLen {
		return nil, fmt.Errorf("virtio: segment size %d below minimum %d", segSize, minSegmentLen)
	}
	r := &Ring{
		qsize:   qsize,
		segSize: segSize,
		desc:    make([]byte, qsize*descSize),
		avail:   make([]byte, ringHdrSize+qsize*2),
		used:    make([]byte, ringHdrSize+qsize*usedElemSize),
		segs:    make([][]byte, qsize),
		numFree: qsize,
		pending: make(map[uint16]*token),
	}
	// Chain all descriptors into the free list.
	for i := 0; i < qsize; i++ {
		r.writeDesc(uint16(i), 0, 0, uint16(i+1))
	}
	return r, nil
}

// QueueSize reports the number of descriptors.
func (r *Ring) QueueSize() int { return r.qsize }

// SegmentSize reports the per-descriptor buffer size.
func (r *Ring) SegmentSize() int { return r.segSize }

// FreeDescriptors reports how many descriptors are currently free.
func (r *Ring) FreeDescriptors() int { return r.numFree }

// Kicks reports how many times the driver published new buffers.
func (r *Ring) Kicks() uint64 { return r.kicks }

// Completions reports how many buffers the device has pushed used.
func (r *Ring) Completions() uint64 { return r.completions }

// --- raw shared-memory accessors ---

func (r *Ring) writeDesc(i uint16, length uint32, flags, next uint16) {
	off := int(i) * descSize
	binary.LittleEndian.PutUint64(r.desc[off:], uint64(int(i)*r.segSize)) // addr = slot offset
	binary.LittleEndian.PutUint32(r.desc[off+8:], length)
	binary.LittleEndian.PutUint16(r.desc[off+12:], flags)
	binary.LittleEndian.PutUint16(r.desc[off+14:], next)
}

func (r *Ring) readDesc(i uint16) (addr uint64, length uint32, flags, next uint16) {
	off := int(i) * descSize
	addr = binary.LittleEndian.Uint64(r.desc[off:])
	length = binary.LittleEndian.Uint32(r.desc[off+8:])
	flags = binary.LittleEndian.Uint16(r.desc[off+12:])
	next = binary.LittleEndian.Uint16(r.desc[off+14:])
	return
}

func (r *Ring) availIdx() uint16 { return binary.LittleEndian.Uint16(r.avail[2:]) }
func (r *Ring) setAvailIdx(v uint16) {
	binary.LittleEndian.PutUint16(r.avail[2:], v)
}
func (r *Ring) availEntry(slot uint16) uint16 {
	return binary.LittleEndian.Uint16(r.avail[ringHdrSize+2*int(slot%uint16(r.qsize)):])
}
func (r *Ring) setAvailEntry(slot, head uint16) {
	binary.LittleEndian.PutUint16(r.avail[ringHdrSize+2*int(slot%uint16(r.qsize)):], head)
}

func (r *Ring) usedIdx() uint16 { return binary.LittleEndian.Uint16(r.used[2:]) }
func (r *Ring) setUsedIdx(v uint16) {
	binary.LittleEndian.PutUint16(r.used[2:], v)
}
func (r *Ring) usedEntry(slot uint16) (id, length uint32) {
	off := ringHdrSize + usedElemSize*int(slot%uint16(r.qsize))
	return binary.LittleEndian.Uint32(r.used[off:]), binary.LittleEndian.Uint32(r.used[off+4:])
}
func (r *Ring) setUsedEntry(slot uint16, id, length uint32) {
	off := ringHdrSize + usedElemSize*int(slot%uint16(r.qsize))
	binary.LittleEndian.PutUint32(r.used[off:], id)
	binary.LittleEndian.PutUint32(r.used[off+4:], length)
}

func (r *Ring) slot(i uint16) []byte {
	if r.segs[i] == nil {
		r.segs[i] = make([]byte, r.segSize)
	}
	return r.segs[i]
}

// --- driver (guest) side ---

// segsNeeded reports how many descriptors a byte count occupies.
func (r *Ring) segsNeeded(n int) int {
	if n == 0 {
		return 0
	}
	return (n + r.segSize - 1) / r.segSize
}

// Add posts one request: out is driver-provided data the device reads;
// inLen is the number of device-writable bytes reserved for the response.
// It returns the chain head, which identifies the request at completion.
func (r *Ring) Add(out []byte, inLen int) (uint16, error) {
	nOut := r.segsNeeded(len(out))
	nIn := r.segsNeeded(inLen)
	total := nOut + nIn
	if total == 0 {
		return 0, ErrEmptyRequest
	}
	if total > r.qsize {
		return 0, ErrTooLarge
	}
	if total > r.numFree {
		return 0, ErrRingFull
	}

	tok := r.getToken()
	head := r.freeHead
	cur := head
	remaining := out
	for i := 0; i < total; i++ {
		_, _, _, next := r.readDesc(cur)
		var flags uint16
		var l uint32
		if i < nOut {
			n := copy(r.slot(cur), remaining)
			remaining = remaining[n:]
			l = uint32(n)
			tok.outDescs = append(tok.outDescs, cur)
		} else {
			flags = descFlagWrite
			want := inLen - (i-nOut)*r.segSize
			if want > r.segSize {
				want = r.segSize
			}
			l = uint32(want)
			tok.inDescs = append(tok.inDescs, cur)
		}
		if i < total-1 {
			flags |= descFlagNext
			r.writeDesc(cur, l, flags, next)
			cur = next
		} else {
			r.freeHead = next
			r.writeDesc(cur, l, flags, 0)
		}
	}
	r.numFree -= total
	if r.Tracer.Enabled() {
		tok.span = r.Tracer.BeginArg(trace.CatGuestRing, r.SpanName, 0, uint64(head))
	}
	r.pending[head] = tok

	// Publish: write head into the avail ring, then bump idx (the memory
	// barrier in real hardware; ordering is trivially preserved here).
	idx := r.availIdx()
	r.setAvailEntry(idx, head)
	r.setAvailIdx(idx + 1)
	r.kicks++
	return head, nil
}

// Completion is one finished request as seen by the driver.
type Completion struct {
	Head uint16
	// In holds the device-written response bytes (length as reported by the
	// device), copied out of the descriptor slots into a per-batch-slot
	// buffer — valid until the batch slot is reused by the next ReapInto.
	In []byte
}

// ReapBatch is a reusable harvest: ReapInto refills Completions in place,
// reusing each slot's In capacity, so a steady-state reap loop does not
// allocate. One batch per reaping loop; its contents are invalidated by the
// next ReapInto.
type ReapBatch struct {
	Completions []Completion
}

// next extends the batch by one slot, resurrecting a previously used
// element (and its In capacity) when possible.
func (b *ReapBatch) next() *Completion {
	if len(b.Completions) < cap(b.Completions) {
		b.Completions = b.Completions[:len(b.Completions)+1]
	} else {
		b.Completions = append(b.Completions, Completion{})
	}
	return &b.Completions[len(b.Completions)-1]
}

// Reap collects at most max completed requests (all of them if max <= 0),
// freeing their descriptors. Each call allocates a fresh result; hot loops
// use ReapInto with a reused batch.
func (r *Ring) Reap(max int) []Completion {
	var b ReapBatch
	r.ReapInto(&b, max)
	if len(b.Completions) == 0 {
		return nil
	}
	return b.Completions
}

// ReapInto harvests at most max completed requests (all if max <= 0) into
// b, resetting it first, and returns how many were reaped. Descriptors are
// freed; response bytes are copied into b's reusable slot buffers.
func (r *Ring) ReapInto(b *ReapBatch, max int) int {
	b.Completions = b.Completions[:0]
	for r.lastUsedIdx != r.usedIdx() {
		if max > 0 && len(b.Completions) >= max {
			break
		}
		id, length := r.usedEntry(r.lastUsedIdx)
		r.lastUsedIdx++
		head := uint16(id)
		tok := r.pending[head]
		if tok == nil {
			// The device completed something we never posted: protocol bug.
			panic(fmt.Sprintf("virtio: used entry for unknown head %d", head))
		}
		delete(r.pending, head)
		r.Tracer.End(tok.span)
		c := b.next()
		c.Head = head
		c.In = c.In[:0]
		n := int(length)
		for _, d := range tok.inDescs {
			if n <= 0 {
				break
			}
			take := n
			if take > r.segSize {
				take = r.segSize
			}
			c.In = append(c.In, r.slot(d)[:take]...)
			n -= take
		}
		r.freeChain(tok)
	}
	return len(b.Completions)
}

// InFlight reports the number of posted-but-not-reaped requests.
func (r *Ring) InFlight() int { return len(r.pending) }

func (r *Ring) freeChain(tok *token) {
	for _, d := range tok.outDescs {
		r.writeDesc(d, 0, 0, r.freeHead)
		r.freeHead = d
		r.numFree++
	}
	for _, d := range tok.inDescs {
		r.writeDesc(d, 0, 0, r.freeHead)
		r.freeHead = d
		r.numFree++
	}
	r.tokFree = append(r.tokFree, tok)
}

// --- device (host / sidecore / IOhost worker) side ---

// Chain is one request as seen by the device.
type Chain struct {
	Head uint16
	// Out is the driver-provided request data, concatenated.
	Out []byte
	// inDescs are the writable slots; the device responds via ring.Push.
	inDescs []uint16
	inLens  []uint32
	ring    *Ring
}

// InCapacity reports how many response bytes the driver reserved.
func (c *Chain) InCapacity() int {
	total := 0
	for _, l := range c.inLens {
		total += int(l)
	}
	return total
}

// Pop takes the next available chain, or ok=false when the ring is empty —
// this is exactly what a sidecore's poll loop checks. Each call allocates a
// fresh chain; hot loops that Push immediately use PopInto with a reused
// scratch chain instead. (A chain held across an asynchronous completion —
// e.g. a block request awaiting its backend — must NOT be a reused scratch
// chain.)
func (r *Ring) Pop() (Chain, bool, error) {
	var c Chain
	ok, err := r.PopInto(&c)
	return c, ok, err
}

// PopInto fills c with the next available chain, reusing c's slice
// capacity, and reports whether one was available. The chain's Out bytes
// are copied out of the descriptor slots, so they remain valid until c is
// reused.
func (r *Ring) PopInto(c *Chain) (bool, error) {
	if r.lastAvailIdx == r.availIdx() {
		return false, nil
	}
	head := r.availEntry(r.lastAvailIdx)
	r.lastAvailIdx++
	c.Head = head
	c.ring = r
	c.Out = c.Out[:0]
	c.inDescs = c.inDescs[:0]
	c.inLens = c.inLens[:0]
	cur := head
	for hops := 0; ; hops++ {
		if hops > r.qsize {
			return false, ErrBadChain
		}
		_, length, flags, next := r.readDesc(cur)
		if flags&descFlagWrite != 0 {
			c.inDescs = append(c.inDescs, cur)
			c.inLens = append(c.inLens, length)
		} else {
			c.Out = append(c.Out, r.slot(cur)[:length]...)
		}
		if flags&descFlagNext == 0 {
			break
		}
		cur = next
	}
	return true, nil
}

// HasAvail reports whether a Pop would find work (the poll predicate).
func (r *Ring) HasAvail() bool { return r.lastAvailIdx != r.availIdx() }

// Push completes a chain, writing data into its device-writable descriptors
// and publishing a used-ring entry. It returns the number of bytes written
// (truncated to the driver's reserved capacity).
func (r *Ring) Push(c Chain, data []byte) int {
	written := 0
	remaining := data
	for i, d := range c.inDescs {
		if len(remaining) == 0 {
			break
		}
		capHere := int(c.inLens[i])
		n := copy(r.slot(d)[:capHere], remaining)
		remaining = remaining[n:]
		written += n
	}
	idx := r.usedIdx()
	r.setUsedEntry(idx, uint32(c.Head), uint32(written))
	r.setUsedIdx(idx + 1)
	r.completions++
	return written
}
