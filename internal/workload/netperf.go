package workload

import (
	"vrio/internal/ethernet"
	"vrio/internal/sim"
)

// RR is the Netperf UDP request-response benchmark (§5): the generator
// sends one small request and waits for the one-byte-class response,
// measuring round-trip latency in closed loop.
type RR struct {
	Results Results

	station *Station
	target  ethernet.MAC
	seq     uint64
	sentAt  map[uint64]sim.Time
	size    int
	stopped bool
	buf     []byte // request payload, reused across sends
}

// NewRR wires a generator station against a server endpoint (install the
// server with InstallRRServer first). size is the request/response payload
// size (Netperf RR uses 1 byte; we carry 16 bytes of framing).
func NewRR(station *Station, target ethernet.MAC, size int) *RR {
	rr := &RR{station: station, target: target, size: size, sentAt: make(map[uint64]sim.Time)}
	station.Subscribe(target, func(f ethernet.Frame) { rr.handleResponse(f) })
	return rr
}

// rrTimeout is the generator's per-transaction loss timer: UDP RR has no
// transport-level recovery, so a request lost on the wire (or during a
// migration blackout) would otherwise wedge the closed loop.
const rrTimeout = 30 * sim.Millisecond

// Start begins the closed loop.
func (rr *RR) Start() { rr.sendNext() }

// Stop ends the loop after the in-flight transaction.
func (rr *RR) Stop() { rr.stopped = true }

func (rr *RR) sendNext() {
	if rr.stopped {
		return
	}
	rr.seq++
	seq := rr.seq
	rr.sentAt[seq] = rr.station.eng.Now()
	rr.station.Send(ethernet.Frame{
		Dst:       rr.target,
		EtherType: ethernet.EtherTypePlain,
		Payload:   seqPayload(&rr.buf, seq, rr.station.eng.Now(), rr.size),
	}, nil)
	rr.station.eng.After(rrTimeout, func() { rr.expire(seq) })
}

// expire abandons a presumably lost transaction and restarts the loop.
func (rr *RR) expire(seq uint64) {
	if _, outstanding := rr.sentAt[seq]; !outstanding {
		return
	}
	delete(rr.sentAt, seq)
	rr.Results.record(0, 0, true)
	rr.sendNext()
}

func (rr *RR) handleResponse(f ethernet.Frame) {
	seq, _, ok := parseSeqPayload(f.Payload)
	if !ok {
		return
	}
	sent, known := rr.sentAt[seq]
	if !known {
		return
	}
	delete(rr.sentAt, seq)
	rr.Results.record(rr.station.eng.Now()-sent, len(f.Payload), false)
	rr.sendNext()
}

// InstallRRServer makes a guest echo RR requests after serviceCost of
// guest CPU (the netperf server loop).
func InstallRRServer(g netServer, serviceCost sim.Time) {
	g.OnNetRx(func(f ethernet.Frame) {
		g.Compute(serviceCost, func() {
			g.SendNet(ethernet.Frame{
				Dst:       f.Src,
				EtherType: ethernet.EtherTypePlain,
				Payload:   f.Payload,
			})
		})
	})
}

// Stream is the Netperf TCP stream benchmark (§5): the guest pushes a
// sustained byte stream toward the generator. The guest stack aggregates
// the benchmark's 64 B sends into TSO-sized chunks; flow control is modeled
// with a fixed window of unacknowledged chunks, as TCP would provide.
type Stream struct {
	Results Results

	guest     netServer
	station   *Station
	chunkSize int
	perChunk  sim.Time
	window    int

	inFlight int
	seq      uint64
	sentAt   map[uint64]sim.Time
	acked    map[uint64]struct{}
	stopped  bool
	// chunk and ack are the payload buffers of the guest's chunks and the
	// station's acks, reused across sends.
	chunk, ack []byte

	// Lost counts chunks presumed lost and recovered by timeout.
	Lost uint64
}

// NewStream wires a guest transmitting to a generator station.
func NewStream(guest netServer, station *Station, chunkSize int, perChunk sim.Time, window int) *Stream {
	if window < 1 {
		window = 1
	}
	st := &Stream{
		guest: guest, station: station, chunkSize: chunkSize,
		perChunk: perChunk, window: window,
		sentAt: make(map[uint64]sim.Time),
		acked:  make(map[uint64]struct{}),
	}
	// The station acks every chunk (a tiny frame back to the guest).
	station.Subscribe(guest.MAC(), func(f ethernet.Frame) {
		seq, _, ok := parseSeqPayload(f.Payload)
		if !ok {
			return
		}
		// Ack without the generator service cost: acks ride for free with
		// real TCP; count the chunk on arrival.
		if sent, known := st.sentAt[seq]; known {
			delete(st.sentAt, seq)
			st.Results.record(station.eng.Now()-sent, len(f.Payload), false)
		} else {
			// Arrived after its loss timer fired: the bytes still count.
			st.Results.record(0, len(f.Payload), false)
		}
		if err := station.vf.SendFrame(ethernet.Frame{
			Dst:       guest.MAC(),
			EtherType: ethernet.EtherTypePlain,
			Payload:   seqPayload(&st.ack, seq, station.eng.Now(), 16),
		}); err != nil {
			panic(err)
		}
	})
	// The guest treats incoming acks as window openers.
	guest.OnNetRx(func(f ethernet.Frame) {
		seq, _, ok := parseSeqPayload(f.Payload)
		if !ok {
			return
		}
		if _, live := st.acked[seq]; live {
			return // duplicate ack after a timeout-based retransmission
		}
		st.acked[seq] = struct{}{}
		st.inFlight--
		st.pump()
	})
	return st
}

// chunkTimeout is the stream's loss-recovery timer: a chunk unacked for
// this long is considered lost (TCP above the vRIO channel would
// retransmit; we re-open the window and count the loss). It sits well above
// the worst ring-bounded queueing delay so it only fires on true loss.
const chunkTimeout = 100 * sim.Millisecond

// Start begins streaming.
func (st *Stream) Start() { st.pump() }

// Stop halts after in-flight chunks drain.
func (st *Stream) Stop() { st.stopped = true }

func (st *Stream) pump() {
	for !st.stopped && st.inFlight < st.window {
		st.inFlight++
		st.seq++
		seq := st.seq
		st.sentAt[seq] = st.station.eng.Now()
		st.guest.Compute(st.perChunk, func() {
			st.guest.SendNet(ethernet.Frame{
				Dst:       st.station.MAC(),
				EtherType: ethernet.EtherTypePlain,
				Payload:   seqPayload(&st.chunk, seq, st.station.eng.Now(), st.chunkSize),
			})
			st.station.eng.After(chunkTimeout, func() { st.expire(seq) })
		})
	}
}

// expire recovers the window when a chunk is presumed lost (e.g. dropped by
// a full virtio TX ring under overload).
func (st *Stream) expire(seq uint64) {
	if _, done := st.acked[seq]; done {
		return
	}
	if _, live := st.sentAt[seq]; !live {
		return
	}
	delete(st.sentAt, seq)
	st.acked[seq] = struct{}{}
	st.Lost++
	st.inFlight--
	st.pump()
}
