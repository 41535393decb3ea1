package transport

import (
	"fmt"

	"vrio/internal/bufpool"
	"vrio/internal/ethernet"
	"vrio/internal/sim"
	"vrio/internal/stats"
	"vrio/internal/trace"
)

// Endpoint is the IOhost-side transport peer: it reassembles chunked block
// requests, dispatches messages to the I/O hypervisor, sends (possibly
// chunked) responses, and pushes control commands to IOclients with a small
// ack/retry protocol.
//
// Buffer ownership: Deliver takes ownership of each incoming message buffer
// and recycles it to the pool once consumed. Block requests are handed to
// the BlkReq handler as a leased *bufpool.Frame — a single-chunk request
// wraps the message buffer itself (zero copy); a multi-chunk request wraps
// the pooled reassembly buffer. The handler Releases the frame when the
// request's payload is no longer needed.
type Endpoint struct {
	clk  sim.Clock
	port Port
	cfg  Config

	reqAsm map[endpointKey]*chunkAsm
	// asmSeq orders partial assemblies for eviction: a retransmission uses
	// a fresh ReqID, so a superseded attempt's partial assembly would
	// otherwise linger forever.
	asmSeq uint64
	maxAsm int
	// Evictions counts abandoned partial assemblies.
	Evictions uint64

	bp      *bufpool.Pool
	asmFree []*chunkAsm

	// NetTx is invoked when an IOclient's net front-end transmits a frame.
	// The frame is only valid for the duration of the call (its buffer is
	// recycled afterwards); a handler that needs it later must copy.
	NetTx func(src ethernet.MAC, deviceID uint16, frame []byte)
	// BlkReq is invoked with a fully reassembled block request, leased as a
	// pooled frame the handler must Release. The I/O hypervisor responds
	// via RespondBlk with the same header. Duplicate executions due to
	// retransmission are safe by §4.5's argument (the guest disk scheduler
	// guarantees one outstanding request per block).
	BlkReq func(src ethernet.MAC, h Header, req *bufpool.Frame)

	nextID  uint64
	ctrl    map[uint64]*pendingCtrl
	noRetry bool // tests can disable control retries

	// Counters: "net_tx", "blk_req", "blk_resp", "ctrl_sent", "ctrl_acked",
	// "ctrl_retries", "bad_msgs".
	Counters stats.Counters

	// Tracer records completion spans for the return path (blk-resp and
	// net-rx leaving the IOhost until the client driver delivers them). Nil
	// is the zero-cost disabled tracer.
	Tracer *trace.Tracer
}

type endpointKey struct {
	src   ethernet.MAC
	reqID uint64
}

type pendingCtrl struct {
	reqID   uint64
	msg     []byte
	dst     ethernet.MAC
	timeout sim.Time
	retries int
	timer   sim.TimerID
	done    func(acked bool)
}

// NewEndpoint builds the IOhost transport peer. clk is the timer service —
// the simulation engine or a real-wire wall clock (see NewDriver).
func NewEndpoint(clk sim.Clock, port Port, cfg Config) *Endpoint {
	if cfg.InitialTimeout <= 0 {
		cfg.InitialTimeout = DefaultConfig().InitialTimeout
	}
	if cfg.MaxRetransmits <= 0 {
		cfg.MaxRetransmits = DefaultConfig().MaxRetransmits
	}
	if cfg.MaxChunk <= 0 {
		cfg.MaxChunk = DefaultConfig().MaxChunk
	}
	if cfg.MaxReassembly <= 0 {
		cfg.MaxReassembly = DefaultConfig().MaxReassembly
	}
	return &Endpoint{
		clk:    clk,
		port:   port,
		cfg:    cfg,
		reqAsm: make(map[endpointKey]*chunkAsm),
		maxAsm: 1024,
		ctrl:   make(map[uint64]*pendingCtrl),
	}
}

// pool returns the endpoint's buffer pool: the port's shared pool when it
// has one, else a private pool.
func (e *Endpoint) pool() *bufpool.Pool {
	if e.bp == nil {
		if pp, ok := e.port.(Pooler); ok {
			e.bp = pp.BufPool()
		} else {
			e.bp = bufpool.New()
		}
	}
	return e.bp
}

func (e *Endpoint) getAsm(count int) *chunkAsm {
	var a *chunkAsm
	if n := len(e.asmFree); n > 0 {
		a = e.asmFree[n-1]
		e.asmFree[n-1] = nil
		e.asmFree = e.asmFree[:n-1]
	} else {
		a = &chunkAsm{}
	}
	e.asmSeq++
	a.reset(count, e.asmSeq, e.cfg.MaxReassembly)
	return a
}

func (e *Endpoint) recycleAsm(a *chunkAsm) {
	a.release(e.pool())
	e.asmFree = append(e.asmFree, a)
}

// sendEncoded encodes h+payload into a pooled buffer, transmits it, and
// recycles the buffer (Port.Send only borrows it).
func (e *Endpoint) sendEncoded(dst ethernet.MAC, h Header, payload []byte) {
	pool := e.pool()
	buf := pool.GetRaw(EncodedSize(len(payload)))
	EncodeInto(buf, h, payload)
	e.port.Send(dst, buf)
	pool.PutRaw(buf)
}

// Deliver ingests one transport message arriving from an IOclient, taking
// ownership of payload (it is recycled once consumed; a single-chunk block
// request's buffer lives on inside the leased frame until Released).
func (e *Endpoint) Deliver(src ethernet.MAC, payload []byte) error {
	h, body, err := Decode(payload)
	if err != nil {
		e.Counters.Inc("bad_msgs", 1)
		e.pool().PutRaw(payload)
		return err
	}
	switch h.Type {
	case MsgNetTx:
		e.Counters.Inc("net_tx", 1)
		if e.NetTx != nil {
			e.NetTx(src, h.DeviceID, body)
		}
		e.pool().PutRaw(payload)
	case MsgBlkReq:
		e.deliverBlkReq(src, h, payload, body)
	case MsgCtrlAck:
		e.ackCtrl(h.ReqID)
		e.pool().PutRaw(payload)
	default:
		e.Counters.Inc("bad_msgs", 1)
		e.pool().PutRaw(payload)
		return fmt.Errorf("transport: endpoint received unexpected %v", h.Type)
	}
	return nil
}

// deliverBlkReq handles one blk-req message. payload is the whole owned
// message buffer; body is its payload view.
func (e *Endpoint) deliverBlkReq(src ethernet.MAC, h Header, payload, body []byte) {
	if h.ChunkCount <= 1 {
		e.Counters.Inc("blk_req", 1)
		if e.BlkReq != nil {
			// Zero copy: lease the message buffer itself; the slab recycles
			// when the handler Releases the frame.
			e.BlkReq(src, h, e.pool().Wrap(payload, body))
		} else {
			e.pool().PutRaw(payload)
		}
		return
	}
	if int(h.ChunkCount) > e.cfg.maxChunks() {
		// No legitimate MaxChunk stride yields this many chunks within the
		// reassembly cap — an untrusted peer probing for an allocation DoS.
		e.Counters.Inc("bad_msgs", 1)
		e.pool().PutRaw(payload)
		return
	}
	key := endpointKey{src, h.ReqID}
	asm := e.reqAsm[key]
	if asm == nil {
		if len(e.reqAsm) >= e.maxAsm {
			e.evictOldestAsm()
		}
		asm = e.getAsm(int(h.ChunkCount))
		e.reqAsm[key] = asm
	}
	if int(h.Chunk) >= asm.count || asm.count != int(h.ChunkCount) {
		e.Counters.Inc("bad_msgs", 1)
		e.pool().PutRaw(payload)
		return
	}
	complete := asm.add(e.pool(), int(h.Chunk), body)
	e.pool().PutRaw(payload) // body copied (or ignored); buffer is free
	if !complete {
		return
	}
	delete(e.reqAsm, key)
	req := asm.assembled()
	buf := asm.take()
	e.recycleAsm(asm)
	e.Counters.Inc("blk_req", 1)
	if e.BlkReq != nil {
		e.BlkReq(src, h, e.pool().Wrap(buf, req))
	} else {
		e.pool().PutRaw(buf)
	}
}

// PendingRequests reports block requests still being reassembled.
func (e *Endpoint) PendingRequests() int { return len(e.reqAsm) }

// MaxReassembly reports the largest message the transport reassembles
// (Config.MaxReassembly after defaults): a block response longer than this
// can never reach the client driver.
func (e *Endpoint) MaxReassembly() int { return e.cfg.MaxReassembly }

func (e *Endpoint) evictOldestAsm() {
	var oldestKey endpointKey
	var oldest *chunkAsm
	for k, a := range e.reqAsm {
		if oldest == nil || a.seq < oldest.seq {
			oldest = a
			oldestKey = k
		}
	}
	if oldest != nil {
		delete(e.reqAsm, oldestKey)
		e.recycleAsm(oldest)
		e.Evictions++
	}
}

// SendNetRx delivers a network frame to an IOclient front-end. The frame is
// only borrowed for the duration of the call.
func (e *Endpoint) SendNetRx(dst ethernet.MAC, deviceID uint16, frame []byte) {
	e.nextID++
	if e.Tracer.Enabled() {
		// Flow-key the completion by the inner frame's destination F-MAC —
		// the same key the fabric hops recorded — so a cross-rack request's
		// final delivery joins its hops in the merged export.
		comp := e.Tracer.BeginFlow(trace.CatCompletion, "net-rx", 0, e.nextID, NetFlow(frame))
		e.Tracer.Link(trace.FlowKey{Kind: FlowNetRx, A: trace.Key48(dst), B: e.nextID}, comp)
	}
	e.sendEncoded(dst, Header{
		Type:       MsgNetRx,
		DeviceID:   deviceID,
		ReqID:      e.nextID,
		ChunkCount: 1,
	}, frame)
}

// RespondBlk sends a (possibly chunked) block response, echoing the
// request's ReqID/OrigID so the client can match and de-duplicate it. resp
// is only borrowed for the duration of the call.
func (e *Endpoint) RespondBlk(dst ethernet.MAC, req Header, resp []byte) {
	e.Counters.Inc("blk_resp", 1)
	if e.Tracer.Enabled() {
		// Parent the completion under the request's guest_ring root so the
		// whole round trip renders on one track.
		mac := trace.Key48(dst)
		root := e.Tracer.Lookup(trace.FlowKey{Kind: FlowBlkRoot, A: mac, B: req.OrigID})
		comp := e.Tracer.BeginArg(trace.CatCompletion, "blk-resp", root, req.OrigID)
		e.Tracer.Link(trace.FlowKey{Kind: FlowBlkComp, A: mac, B: req.OrigID}, comp)
	}
	count := 1
	if len(resp) > e.cfg.MaxChunk {
		count = (len(resp) + e.cfg.MaxChunk - 1) / e.cfg.MaxChunk
	}
	for i := 0; i < count; i++ {
		off := i * e.cfg.MaxChunk
		end := off + e.cfg.MaxChunk
		if end > len(resp) {
			end = len(resp)
		}
		e.sendEncoded(dst, Header{
			Type:       MsgBlkResp,
			DeviceType: req.DeviceType,
			DeviceID:   req.DeviceID,
			ReqID:      req.ReqID,
			OrigID:     req.OrigID,
			Chunk:      uint16(i),
			ChunkCount: uint16(count),
		}, resp[off:end])
	}
}

// CreateDevice instructs an IOclient to instantiate a paravirtual front-end
// (§4.1: device creation is done via the I/O hypervisor). done, if non-nil,
// reports whether the client acked within the retry budget.
func (e *Endpoint) CreateDevice(dst ethernet.MAC, devType uint8, deviceID uint16, done func(acked bool)) {
	e.sendCtrl(dst, MsgCtrlCreateDev, devType, deviceID, done)
}

// DestroyDevice instructs an IOclient to tear a front-end down.
func (e *Endpoint) DestroyDevice(dst ethernet.MAC, deviceID uint16, done func(acked bool)) {
	e.sendCtrl(dst, MsgCtrlDestroyDev, 0, deviceID, done)
}

func (e *Endpoint) sendCtrl(dst ethernet.MAC, t MsgType, devType uint8, deviceID uint16, done func(acked bool)) {
	e.nextID++
	p := &pendingCtrl{
		reqID: e.nextID,
		msg: Encode(Header{
			Type:       t,
			DeviceType: devType,
			DeviceID:   deviceID,
			ReqID:      e.nextID,
			ChunkCount: 1,
		}, nil),
		dst:     dst,
		timeout: e.cfg.InitialTimeout,
		done:    done,
	}
	e.ctrl[p.reqID] = p
	e.Counters.Inc("ctrl_sent", 1)
	e.transmitCtrl(p)
}

func (e *Endpoint) transmitCtrl(p *pendingCtrl) {
	e.port.Send(p.dst, p.msg)
	p.timer = e.clk.AfterFunc(p.timeout, func() { e.expireCtrl(p) })
}

func (e *Endpoint) expireCtrl(p *pendingCtrl) {
	if e.ctrl[p.reqID] != p {
		return
	}
	if p.retries >= e.cfg.MaxRetransmits {
		delete(e.ctrl, p.reqID)
		if p.done != nil {
			p.done(false)
		}
		return
	}
	p.retries++
	p.timeout *= 2
	e.Counters.Inc("ctrl_retries", 1)
	e.transmitCtrl(p)
}

func (e *Endpoint) ackCtrl(reqID uint64) {
	p := e.ctrl[reqID]
	if p == nil {
		return // duplicate ack
	}
	delete(e.ctrl, reqID)
	e.clk.CancelTimer(p.timer)
	e.Counters.Inc("ctrl_acked", 1)
	if p.done != nil {
		p.done(true)
	}
}
