package core

import (
	"encoding/binary"

	"vrio/internal/bufpool"
	"vrio/internal/ethernet"
	"vrio/internal/interpose"
	"vrio/internal/nic"
	"vrio/internal/sim"
	"vrio/internal/virtio"
)

// Queue geometry for the paravirtual devices. 256 descriptors of 2 KiB
// cover plain Ethernet frames in one segment and 4 KiB block payloads in a
// short chain.
const (
	queueSize   = 256
	segmentSize = 2048
	rxBuffers   = 128
	rxBufferLen = 2048
)

// netQueues is the guest/host shared-memory state of one paravirtual net
// device: a TX virtqueue carrying guest frames out, and an RX virtqueue the
// guest stocks with empty buffers for the host to fill — both real
// byte-level rings (package virtio), exactly the structures Elvis polls and
// the baseline kicks.
//
// Frames crossing between the rings and the host NIC live in slabs of the
// host NIC's pool: the guest's encoded frame until the TX ring has copied
// it, each popped TX frame until the host has re-encoded it for the VF, and
// each received VF frame until it is copied into a guest rx buffer.
type netQueues struct {
	tx   *virtio.Ring
	rx   *virtio.Ring
	pool *bufpool.Pool
	// rxFree are host-side pre-popped guest buffers awaiting frames.
	rxFree []virtio.Chain
	// RxDrops counts frames dropped for want of guest rx buffers.
	RxDrops uint64
	// reap is the reusable completion batch (TX and RX reaps are fully
	// consumed before returning, so one batch serves both); pop is the
	// scratch chain for the immediate-push TX drain.
	reap virtio.ReapBatch
	pop  virtio.Chain
}

func newNetQueues(pool *bufpool.Pool) *netQueues {
	tx, err := virtio.NewRing(queueSize, segmentSize)
	if err != nil {
		panic(err)
	}
	rx, err := virtio.NewRing(queueSize, segmentSize)
	if err != nil {
		panic(err)
	}
	q := &netQueues{tx: tx, rx: rx, pool: pool}
	q.stockRx(rxBuffers)
	return q
}

// stockRx posts n empty receive buffers (guest side) and pre-pops them
// (host side) so the host can fill them on frame arrival.
func (q *netQueues) stockRx(n int) {
	for i := 0; i < n; i++ {
		if _, err := q.rx.Add(nil, rxBufferLen); err != nil {
			break // ring full: stop stocking
		}
	}
	for {
		c, ok, err := q.rx.Pop()
		if err != nil || !ok {
			break
		}
		q.rxFree = append(q.rxFree, c)
	}
}

// guestSend places an encoded pooled frame on the TX ring. The ring copies
// it, so on success the slab goes back to the pool. It reports whether the
// ring had room; on a full ring the caller keeps the frame and retries, as
// a guest blocked on virtio backpressure does.
func (q *netQueues) guestSend(frame []byte) bool {
	if _, err := q.tx.Add(frame, 0); err != nil {
		return false
	}
	q.pool.PutRaw(frame)
	return true
}

// hostPopTx drains up to max pending TX frames (host side) into pool slabs,
// which the caller owns (hostEgress recycles them). The scratch chain is
// reusable because each chain is pushed back before the next pop.
func (q *netQueues) hostPopTx(max int) [][]byte {
	var out [][]byte
	for max <= 0 || len(out) < max {
		ok, err := q.tx.PopInto(&q.pop)
		if err != nil || !ok {
			break
		}
		frame := q.pool.GetRaw(len(q.pop.Out))
		copy(frame, q.pop.Out)
		q.tx.Push(q.pop, nil)
		out = append(out, frame)
	}
	return out
}

// hostEgress runs one popped TX frame through the interposition chain
// toward the device and encodes the result for vf, recycling raw. The
// caller owns the encoded slab until it hands it to vf.SendEncoded. ok is
// false when the frame does not decode or the chain rejects it.
func (q *netQueues) hostEgress(vf *nic.VF, chain *interpose.Chain, id int, raw []byte) (enc []byte, icost sim.Time, ok bool) {
	defer q.pool.PutRaw(raw)
	f, err := ethernet.Decode(raw)
	if err != nil {
		return nil, 0, false
	}
	f.Payload, icost, err = chain.Process(interpose.ToDevice, uint16(id), f.Payload)
	if err != nil {
		return nil, 0, false
	}
	return vf.EncodeFrame(f), icost, true
}

// guestReapTx frees completed TX descriptors (guest side).
func (q *netQueues) guestReapTx() int {
	return q.tx.ReapInto(&q.reap, 0)
}

// hostDeliver runs one frame received on the host VF through the
// interposition chain toward the guest and copies the result into a guest
// rx buffer (host side), recycling raw. False means the frame was dropped:
// undecodable, rejected by the chain, or no rx buffer was available.
func (q *netQueues) hostDeliver(chain *interpose.Chain, id int, raw []byte) bool {
	defer q.pool.PutRaw(raw)
	f, err := ethernet.Decode(raw)
	if err != nil {
		return false
	}
	f.Payload, _, err = chain.Process(interpose.ToGuest, uint16(id), f.Payload)
	if err != nil {
		return false
	}
	if len(q.rxFree) == 0 {
		q.RxDrops++
		return false
	}
	c := q.rxFree[0]
	q.rxFree = q.rxFree[1:]
	enc := f.EncodePooled(q.pool)
	q.rx.Push(c, enc) // copies into the guest's buffer
	q.pool.PutRaw(enc)
	return true
}

// guestReapRx collects received frames and restocks the buffers. Frames are
// copied out of the reusable batch into fresh, garbage-collected buffers:
// they escape into the guest stack, whose net-rx frames a workload may
// retain (DESIGN §10).
func (q *netQueues) guestReapRx() [][]byte {
	n := q.rx.ReapInto(&q.reap, 0)
	if n == 0 {
		return nil
	}
	frames := make([][]byte, 0, n)
	for i := range q.reap.Completions {
		frames = append(frames, append([]byte{}, q.reap.Completions[i].In...))
	}
	q.stockRx(n)
	return frames
}

// txPending reports whether the TX ring has unpopped requests (the Elvis
// sidecore's poll predicate).
func (q *netQueues) txPending() bool { return q.tx.HasAvail() }

// blkQueue is the shared-memory state of one paravirtual block device: a
// single virtqueue whose chains carry a virtio-blk header plus data out,
// and reserve in-space for status (+ read data).
//
// Block payloads on either side of the ring live in slabs of the host
// NIC's pool (DESIGN §10): the guest's encoded request until the ring has
// copied it, and each read's status+data completion — which the backend
// fills in place — until the ring has copied that back.
type blkQueue struct {
	ring *virtio.Ring
	pool *bufpool.Pool
	// reap is the reusable completion batch for guestReap.
	reap virtio.ReapBatch
}

func newBlkQueue(pool *bufpool.Pool) *blkQueue {
	// Block chains move 4 KiB payloads: 2 KiB segments chain fine, but a
	// larger ring keeps many requests in flight.
	ring, err := virtio.NewRing(queueSize, segmentSize)
	if err != nil {
		panic(err)
	}
	return &blkQueue{ring: ring, pool: pool}
}

// Status-only block completions. Ring.Push copies a completion, so these
// shared bytes are only ever read.
var (
	respBlkOK     = []byte{virtio.BlkOK}
	respBlkIOErr  = []byte{virtio.BlkIOErr}
	respBlkUnsupp = []byte{virtio.BlkUnsupp}
)

// blkStatus is the status-only completion for a backend result.
func blkStatus(err error) []byte {
	if err != nil {
		return respBlkIOErr
	}
	return respBlkOK
}

// encodeBlkReq encodes a virtio-blk request — header, then body (write
// data, or a read's 4-byte sector count) — into a slab from pool, which the
// caller owns.
func encodeBlkReq(pool *bufpool.Pool, typ uint32, sector uint64, body []byte) []byte {
	req := pool.GetRaw(virtio.BlkHdrSize + len(body))
	virtio.BlkHdr{Type: typ, Sector: sector}.Encode(req[:0])
	copy(req[virtio.BlkHdrSize:], body)
	return req
}

// encodeBlkRead encodes a read request with encodeBlkReq. Its body is the
// sector count, 4 bytes little-endian.
func encodeBlkRead(pool *bufpool.Pool, sector uint64, sectors int) []byte {
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(sectors))
	return encodeBlkReq(pool, virtio.BlkIn, sector, n[:])
}

// guestSubmit posts one block request from encodeBlkReq; respCap
// reserves room for the response (1 status byte, plus data for reads). The
// ring copies req, so its slab goes back to the pool either way. It reports
// ring-full.
func (q *blkQueue) guestSubmit(req []byte, respCap int) (uint16, bool) {
	head, err := q.ring.Add(req, respCap)
	q.pool.PutRaw(req)
	return head, err == nil
}

// readSectors parses a read chain's sector count and checks that the data
// fits the chain's writable space behind the status byte. ok is false for a
// body too short to hold the count or a count the chain cannot carry: a
// corrupt guest chain, which the host answers with BlkIOErr before it takes
// a buffer for the read.
func readSectors(c *virtio.Chain, body []byte, sectorSize int) (n int, ok bool) {
	if len(body) < 4 {
		return 0, false
	}
	n = int(binary.LittleEndian.Uint32(body))
	return n, n <= (c.InCapacity()-1)/sectorSize
}

// hostPop takes the next request (host side). It deliberately uses the
// allocating Pop: block chains are retained across asynchronous backend
// completions, so a reusable scratch chain would be clobbered while still
// referenced.
func (q *blkQueue) hostPop() (virtio.Chain, bool) {
	c, ok, err := q.ring.Pop()
	if err != nil {
		return virtio.Chain{}, false
	}
	return c, ok
}

// hostComplete pushes the response for a chain.
func (q *blkQueue) hostComplete(c virtio.Chain, resp []byte) {
	q.ring.Push(c, resp)
}

// guestReap collects completed requests. The returned slice and each
// completion's In data are valid until the next guestReap on this queue;
// callers consume them synchronously.
func (q *blkQueue) guestReap() []virtio.Completion {
	q.ring.ReapInto(&q.reap, 0)
	return q.reap.Completions
}

// pending reports whether requests await the host (poll predicate).
func (q *blkQueue) pending() bool { return q.ring.HasAvail() }
