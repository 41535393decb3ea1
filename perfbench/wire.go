package main

import (
	"bytes"
	"crypto/sha256"
	"crypto/tls"
	"encoding/binary"
	"fmt"
	"net/netip"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"vrio/internal/bufpool"
	"vrio/internal/ethernet"
	"vrio/internal/netwire"
	"vrio/internal/sim"
	"vrio/internal/transport"
)

// wireSpec is one real-wire workload: closed-loop requesters on one
// transport.Driver loop against one transport.Endpoint loop, over loopback.
type wireSpec struct {
	tls        bool
	requesters int
	blkSize    int     // block echo payload bytes
	netSize    int     // net-frame echo bytes (seq, requester index, random fill)
	netFrac    float64 // share of requests that are unreliable net echoes
	batch      int     // requests per session, the wire workloads' pass
	maxChunk   int     // transport MaxChunk; 0 keeps the transport default
}

var (
	// wireUDP: the smallest messages, on the reliable and unreliable paths.
	// The UDP chunk keeps header plus chunk inside one datagram.
	wireUDP = wireSpec{requesters: 8, blkSize: 4096, netSize: 64, netFrac: 0.5, batch: 40000, maxChunk: 32 << 10}
	// wireTLS: 64 KiB block echoes, two transport chunks each way, over one
	// TCP+TLS 1.3 stream.
	wireTLS = wireSpec{tls: true, requesters: 4, blkSize: 64 << 10, batch: 2000}
)

// The device-type convention of vrio-loadgen and the simulated stack.
const (
	devTypeNet = 1
	devTypeBlk = 2
)

const (
	rto            = 20 * time.Millisecond  // first §4.5 retransmission timeout, as vrio-loadgen
	maxRetransmits = 8                      // as vrio-loadgen
	netTimeout     = 250 * time.Millisecond // a net echo later than this is lost
	helloRetry     = 100 * time.Millisecond
	sessionLimit   = 60 * time.Second
)

var (
	serverMAC = ethernet.NewMAC(0xF0F0)
	clientMAC = ethernet.NewMAC(0x1000)
)

func transportConfig(spec wireSpec) transport.Config {
	return transport.Config{
		InitialTimeout: sim.Time(rto),
		MaxRetransmits: maxRetransmits,
		MaxChunk:       spec.maxChunk,
	}
}

// server is the IOhost side: one loop, one socket, one Endpoint. Block
// requests and net frames are echoed back behind their SHA-256 digest.
type server struct {
	loop      *netwire.Loop
	pool      *bufpool.Pool
	ep        *transport.Endpoint
	port      *spanPort
	udp       *netwire.UDPCarrier
	tcp       *netwire.TCPServer
	addr      netip.AddrPort
	clientTLS *tls.Config
	done      chan struct{}
	spans     *spans // loop goroutine only
}

func startServer(spec wireSpec) (*server, error) {
	s := &server{loop: netwire.NewLoop(), pool: bufpool.New(), done: make(chan struct{})}
	s.port = &spanPort{pool: s.pool}
	deliver := func(src ethernet.MAC, msg []byte) {
		if s.spans != nil {
			s.spans.enter(stEpDeliver, pathOf(msg))
			_ = s.ep.Deliver(src, msg)
			s.spans.exit()
			return
		}
		_ = s.ep.Deliver(src, msg)
	}
	if spec.tls {
		certPEM, keyPEM, err := netwire.SelfSignedCert()
		if err != nil {
			return nil, err
		}
		srvConf, err := netwire.ServerTLSConfig(certPEM, keyPEM)
		if err != nil {
			return nil, err
		}
		if s.clientTLS, err = netwire.ClientTLSConfig(certPEM, "127.0.0.1"); err != nil {
			return nil, err
		}
		ln, err := netwire.ListenTCP(s.loop, s.pool, serverMAC, "127.0.0.1:0", srvConf)
		if err != nil {
			return nil, err
		}
		ln.OnMessage = deliver
		s.tcp, s.port.inner, s.addr = ln, ln, ln.LocalAddrPort()
	} else {
		c, err := netwire.ListenUDP(s.loop, s.pool, serverMAC, "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		c.OnMessage = deliver
		s.udp, s.port.inner, s.addr = c, c, c.LocalAddrPort()
	}
	s.ep = transport.NewEndpoint(s.loop, s.port, transportConfig(spec))
	s.ep.BlkReq = s.blkReq
	s.ep.NetTx = s.netTx
	go func() {
		s.loop.Run()
		close(s.done)
	}()
	return s, nil
}

func (s *server) blkReq(src ethernet.MAC, h transport.Header, req *bufpool.Frame) {
	resp := s.echo(pathBlk, req.B)
	s.spans.enter(stEpRespond, pathBlk)
	s.ep.RespondBlk(src, h, resp)
	s.spans.exit()
	s.pool.PutRaw(resp)
	req.Release()
}

func (s *server) netTx(src ethernet.MAC, deviceID uint16, frame []byte) {
	resp := s.echo(pathNet, frame)
	s.spans.enter(stEpRespond, pathNet)
	s.ep.SendNetRx(src, deviceID, resp)
	s.spans.exit()
	s.pool.PutRaw(resp)
}

// echo builds digest || data in a pooled buffer.
func (s *server) echo(path int, data []byte) []byte {
	s.spans.enter(stVerify, path)
	sum := sha256.Sum256(data)
	resp := s.pool.GetRaw(sha256.Size + len(data))
	copy(resp, sum[:])
	copy(resp[sha256.Size:], data)
	s.spans.exit()
	return resp
}

// serverCounts is a snapshot of the server's counters.
type serverCounts struct {
	sent, frames, drops, badMsgs, poolMisses uint64
}

// do runs fn on the server loop and waits for it.
func (s *server) do(fn func()) {
	ran := make(chan struct{})
	if s.loop.Post(func() { fn(); close(ran) }) {
		<-ran
	}
}

func (s *server) counts() serverCounts {
	var c serverCounts
	s.do(func() {
		if s.udp != nil {
			c.sent, c.frames, c.drops = s.udp.Sent, s.udp.Frames, s.udp.Drops.Total()
		} else {
			c.sent, c.frames, c.drops = s.tcp.Sent, s.tcp.Frames, s.tcp.Drops.Total()
		}
		c.badMsgs = s.ep.Counters.Get("bad_msgs")
		c.poolMisses = s.pool.Stats.Misses
	})
	return c
}

func (s *server) close() {
	s.loop.Close()
	<-s.done
	if s.udp != nil {
		s.udp.Close()
	} else {
		s.tcp.Close()
	}
}

// wireRun is one benchmark run of a wire workload. Its requesters keep
// their RNG streams across sessions, so every request draws fresh bytes.
type wireRun struct {
	spec wireSpec
	res  *result
	reqs []*requester
	// lat holds the current session's round-trip samples in ns, by path.
	lat [nPaths][]int64
}

// requester is one closed-loop guest queue: one request in flight, the next
// submitted from the completion of the last. Buffers and callbacks are
// allocated once, so submitting allocates nothing.
type requester struct {
	s       *session
	idx     int
	rng     *sim.RNG
	blkReq  []byte
	netBuf  []byte
	want    [sha256.Size]byte
	started int64
	blkDone transport.BlkCallback

	netSeq     uint64
	netPending bool
	netTimer   sim.TimerID
	expireFn   func()
}

// session is one client connection: dial, hello, a batch of requests,
// drain. It is the wire workloads' pass.
type session struct {
	run    *wireRun
	loop   *netwire.Loop
	pool   *bufpool.Pool
	drv    *transport.Driver
	port   *spanPort
	udp    *netwire.UDPCarrier
	tcp    *netwire.TCPCarrier
	spans  *spans
	target int

	ready, stopping bool
	active, done    int
	netSeq          uint64
	firstOK         time.Time // first verified completion
	finished        chan struct{}
	helloFn         func()

	blkOK, netOK, mismatches, devErrors, netLost int
}

// sessionStats is what one session measured.
type sessionStats struct {
	wall        float64         // s, dial to drain
	p50, p90    [nPaths]float64 // us, round trips by path
	p99         [nPaths]float64
	firstOK     time.Time // first verified completion
	ok, failed  int
	blkOK       int
	framesSent  uint64 // both sides
	framesIn    uint64 // both sides, handed to the loops
	drops       uint64
	badMsgs     uint64
	poolMisses  uint64
	retransmits uint64
	stale       uint64
	blkSent     uint64
	blkDone     uint64
	devErrors   uint64
	allocMB     float64
	mallocs     uint64
	gcs         uint32
	events      uint64
	spans       [nPaths][nStages]int64 // self ns, both loops
	wait        [][]int64              // driver loop, endpoint loop
	cpu         map[string]float64
}

func newWireRun(spec wireSpec, seed uint64, res *result) *wireRun {
	w := &wireRun{spec: spec, res: res}
	for p := range w.lat {
		w.lat[p] = make([]int64, 0, spec.batch+spec.requesters)
	}
	for i := 0; i < spec.requesters; i++ {
		r := &requester{
			idx:    i,
			rng:    sim.NewRNG(seed ^ uint64(i+1)*0x9e3779b97f4a7c15),
			blkReq: make([]byte, spec.blkSize),
			netBuf: make([]byte, spec.netSize),
		}
		r.blkDone = r.onBlk
		r.expireFn = r.expire
		w.reqs = append(w.reqs, r)
	}
	return w
}

// session runs one client session of target requests against srv.
func (w *wireRun) session(srv *server, target int, traced bool) (sessionStats, error) {
	var st sessionStats
	s := &session{run: w, target: target, finished: make(chan struct{})}
	s.helloFn = s.hello
	if traced {
		s.spans = &spans{}
		srv.do(func() { srv.spans = &spans{}; srv.port.spans = srv.spans })
	}
	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return st, err
		}
	}
	before := srv.counts()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	ev0 := sim.TotalExecuted()

	t0 := time.Now()
	s.loop = netwire.NewLoop()
	s.pool = bufpool.New()
	s.port = &spanPort{pool: s.pool, spans: s.spans}
	onMsg := func(_ ethernet.MAC, msg []byte) {
		if s.spans != nil {
			s.spans.enter(stDrvDeliver, pathOf(msg))
			_ = s.drv.Deliver(msg)
			s.spans.exit()
			return
		}
		_ = s.drv.Deliver(msg)
	}
	var closeCarrier func() error
	if w.spec.tls {
		c, err := netwire.DialTCP(s.loop, s.pool, clientMAC, srv.addr.String(), srv.clientTLS)
		if err != nil {
			if traced {
				pprof.StopCPUProfile()
			}
			return st, err
		}
		c.OnMessage = onMsg
		c.OnReady = func(ethernet.MAC) { s.onReady() }
		s.tcp, s.port.inner, closeCarrier = c, c, c.Close
	} else {
		c, err := netwire.ListenUDP(s.loop, s.pool, clientMAC, "127.0.0.1:0")
		if err != nil {
			if traced {
				pprof.StopCPUProfile()
			}
			return st, err
		}
		c.AddPeer(serverMAC, srv.addr)
		c.OnMessage = onMsg
		c.OnReady = func(ethernet.MAC) { s.onReady() }
		s.udp, s.port.inner, closeCarrier = c, c, c.Close
	}
	s.drv = transport.NewDriver(s.loop, s.port, serverMAC, transportConfig(w.spec))
	s.drv.NetRx = s.netRx
	s.drv.RecycleNetRx = true
	for _, r := range w.reqs {
		r.s = s
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.loop.Run()
	}()
	var pr *prober
	if traced {
		pr = startProber(s.loop, srv.loop)
	}
	s.loop.Post(s.hello)
	var err error
	select {
	case <-s.finished:
	case <-time.After(sessionLimit):
		if traced {
			pprof.StopCPUProfile()
		}
		err = fmt.Errorf("session stalled: %d of %d requests done after %v", s.doneCount(), target, sessionLimit)
	}
	end := time.Now()
	if pr != nil {
		st.wait = pr.halt()
	}
	s.loop.Close()
	wg.Wait()
	closeCarrier()
	if err != nil {
		return st, err
	}

	if traced {
		pprof.StopCPUProfile()
		cpu, perr := cpuByModule(prof.Bytes())
		if perr != nil {
			return st, perr
		}
		st.cpu = cpu
		srv.do(func() {
			st.spans = srv.spans.self
			srv.spans, srv.port.spans = nil, nil
		})
		for p := range st.spans {
			for i := range st.spans[p] {
				st.spans[p][i] += s.spans.self[p][i]
			}
		}
	}
	after := srv.counts()
	runtime.ReadMemStats(&ms1)

	st.wall = end.Sub(t0).Seconds()
	st.firstOK = s.firstOK
	for p := range w.lat {
		sort.Slice(w.lat[p], func(i, j int) bool { return w.lat[p][i] < w.lat[p][j] })
		st.p50[p] = float64(percentile(w.lat[p], 50)) / 1e3
		st.p90[p] = float64(percentile(w.lat[p], 90)) / 1e3
		st.p99[p] = float64(percentile(w.lat[p], 99)) / 1e3
		w.lat[p] = w.lat[p][:0]
	}
	st.ok = s.blkOK + s.netOK
	st.blkOK = s.blkOK
	st.failed = s.mismatches + s.devErrors + s.netLost
	var sent, frames, drops uint64
	if s.udp != nil {
		sent, frames, drops = s.udp.Sent, s.udp.Frames, s.udp.Drops.Total()
	} else {
		sent, frames, drops = s.tcp.Sent, s.tcp.Frames, s.tcp.Drops.Total()
	}
	st.framesSent = sent + after.sent - before.sent
	st.framesIn = frames + after.frames - before.frames
	st.drops = drops + after.drops - before.drops
	st.badMsgs = after.badMsgs - before.badMsgs
	st.poolMisses = s.pool.Stats.Misses + after.poolMisses - before.poolMisses
	ctr := &s.drv.Counters
	st.retransmits = ctr.Get("retransmits")
	st.stale = ctr.Get("stale")
	st.blkSent = ctr.Get("blk_sent")
	st.blkDone = ctr.Get("blk_completed")
	st.devErrors = ctr.Get("device_errors")
	st.allocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6
	st.mallocs = ms1.Mallocs - ms0.Mallocs
	st.gcs = ms1.NumGC - ms0.NumGC
	st.events = sim.TotalExecuted() - ev0

	res := w.res
	res.attempted += st.ok + st.failed
	if s.mismatches > 0 {
		res.fail(s.mismatches, true, "%d responses failed digest or byte verification", s.mismatches)
	}
	if s.devErrors > 0 {
		res.fail(s.devErrors, false, "%d block requests ended in a device error", s.devErrors)
	}
	if s.netLost > 0 {
		res.fail(s.netLost, false, "%d net echoes lost or later than %v", s.netLost, netTimeout)
	}
	return st, nil
}

func (s *session) doneCount() int {
	n := make(chan int, 1)
	if !s.loop.Post(func() { n <- s.done }) {
		return -1
	}
	select {
	case v := <-n:
		return v
	case <-time.After(time.Second):
		return -1
	}
}

// hello announces the client and re-arms until the server acks.
func (s *session) hello() {
	if s.ready {
		return
	}
	if s.udp != nil {
		s.udp.SendHello(serverMAC)
	} else {
		s.tcp.SendHello(serverMAC)
	}
	s.loop.AfterFunc(sim.Time(helloRetry), s.helloFn)
}

func (s *session) onReady() {
	if s.ready {
		return
	}
	s.ready = true
	for _, r := range s.run.reqs {
		s.active++
		r.next()
	}
}

// completed accounts one finished request and starts the drain once the
// session's target is reached.
func (s *session) completed(ok bool) {
	s.done++
	if ok && s.firstOK.IsZero() {
		s.firstOK = time.Now()
	}
	if s.done >= s.target {
		s.stopping = true
	}
}

func (r *requester) next() {
	s := r.s
	if s.stopping {
		s.active--
		if s.active == 0 {
			close(s.finished)
		}
		return
	}
	if s.run.spec.netFrac > 0 && r.rng.Float64() < s.run.spec.netFrac {
		r.sendNet()
	} else {
		r.sendBlk()
	}
}

func (r *requester) sendBlk() {
	s := r.s
	fillPayload(r.rng, r.blkReq)
	r.want = sha256.Sum256(r.blkReq)
	r.started = nowNs()
	s.spans.enter(stSubmit, pathBlk)
	s.drv.SendBlkQ(devTypeBlk, uint16(r.idx+1), 0, r.blkReq, r.blkDone)
	s.spans.exit()
}

func (r *requester) onBlk(resp []byte, err error) {
	s := r.s
	switch {
	case err != nil:
		s.devErrors++
	case !r.verify(pathBlk, resp, r.blkReq):
		s.mismatches++
	default:
		s.blkOK++
		s.run.record(pathBlk, nowNs()-r.started)
	}
	s.completed(err == nil)
	r.next()
}

// verify checks an echo: the digest of what was sent, then the bytes.
func (r *requester) verify(path int, resp, sent []byte) bool {
	s := r.s
	s.spans.enter(stVerify, path)
	ok := len(resp) == sha256.Size+len(sent) &&
		bytes.Equal(resp[:sha256.Size], r.want[:]) &&
		bytes.Equal(resp[sha256.Size:], sent)
	s.spans.exit()
	return ok
}

// sendNet sends one unreliable net frame: seq, requester index, random
// fill. Its echo must arrive before the loss timer fires.
func (r *requester) sendNet() {
	s := r.s
	s.netSeq++
	r.netSeq = s.netSeq
	binary.LittleEndian.PutUint64(r.netBuf, r.netSeq)
	binary.LittleEndian.PutUint16(r.netBuf[8:], uint16(r.idx))
	fillPayload(r.rng, r.netBuf[10:])
	r.want = sha256.Sum256(r.netBuf)
	r.netPending = true
	r.started = nowNs()
	r.netTimer = s.loop.AfterFunc(sim.Time(netTimeout), r.expireFn)
	s.spans.enter(stSubmit, pathNet)
	s.drv.SendNet(devTypeNet, uint16(r.idx+1), r.netBuf)
	s.spans.exit()
}

func (r *requester) expire() {
	if !r.netPending {
		return
	}
	r.netPending = false
	r.s.netLost++
	r.s.completed(false)
	r.next()
}

// netRx matches a net echo to its requester by the index and sequence
// number it carries.
func (s *session) netRx(_ uint16, frame []byte) {
	if len(frame) < sha256.Size+10 {
		s.mismatches++
		return
	}
	seq := binary.LittleEndian.Uint64(frame[sha256.Size:])
	idx := int(binary.LittleEndian.Uint16(frame[sha256.Size+8:]))
	if idx >= len(s.run.reqs) {
		s.mismatches++
		return
	}
	r := s.run.reqs[idx]
	if !r.netPending || r.netSeq != seq {
		return // its loss timer already fired and counted it lost
	}
	r.netPending = false
	s.loop.CancelTimer(r.netTimer)
	if r.verify(pathNet, frame, r.netBuf) {
		s.netOK++
		s.run.record(pathNet, nowNs()-r.started)
	} else {
		s.mismatches++
	}
	s.completed(true)
	r.next()
}

func (w *wireRun) record(path int, ns int64) {
	if len(w.lat[path]) < cap(w.lat[path]) {
		w.lat[path] = append(w.lat[path], ns)
	}
}

// fillPayload fills b with pseudo-random bytes from rng.
func fillPayload(rng *sim.RNG, b []byte) {
	i := 0
	for ; i+8 <= len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], rng.Uint64())
	}
	if i < len(b) {
		var tail [8]byte
		binary.LittleEndian.PutUint64(tail[:], rng.Uint64())
		copy(b[i:], tail[:])
	}
}

// runWire measures a wire workload: set-up probes, a warm-up session, then
// sessions of spec.batch requests until the time is up. A traced run
// alternates untraced and traced sessions.
func runWire(c config, spec wireSpec) (*result, error) {
	res := newResult()
	w := newWireRun(spec, c.seed, res)

	// Set-up: listen (and mint the certificate), dial, handshake and hello,
	// up to the first verified completion.
	var setups []float64
	for i := 0; i < setupProbes; i++ {
		t0 := time.Now()
		srv, err := startServer(spec)
		if err != nil {
			return nil, err
		}
		st, err := w.session(srv, 1, false)
		srv.close()
		if err != nil {
			return nil, err
		}
		if st.firstOK.IsZero() {
			return nil, fmt.Errorf("set-up session completed no request")
		}
		setups = append(setups, st.firstOK.Sub(t0).Seconds())
	}

	srv, err := startServer(spec)
	if err != nil {
		return nil, err
	}
	defer srv.close()
	if _, err := w.session(srv, spec.batch, false); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(time.Duration(c.seconds * float64(time.Second)))
	var sessions []sessionStats
	for {
		traced := c.trace && len(sessions)%2 == 1
		runtime.GC() // as between sim passes
		st, err := w.session(srv, spec.batch, traced)
		if err != nil {
			return nil, err
		}
		sessions = append(sessions, st)
		enough := len(sessions) >= 1 && (!c.trace || len(sessions) >= 2)
		if enough && time.Now().Add(time.Duration(st.wall*float64(time.Second))).After(deadline) {
			break
		}
	}

	var walls, evps, allocs, rps, p50s, p90s, p99s []float64
	for i, st := range sessions {
		if c.trace && i%2 == 1 {
			continue
		}
		walls = append(walls, st.wall)
		evps = append(evps, float64(st.framesSent)/st.wall)
		allocs = append(allocs, st.allocMB)
		rps = append(rps, float64(st.ok)/st.wall)
		p50s = append(p50s, st.p50[pathBlk])
		p90s = append(p90s, st.p90[pathBlk])
		p99s = append(p99s, st.p99[pathBlk])
	}
	res.record["p50_us_passes"] = p50s
	res.record["p90_us_passes"] = p90s
	res.record["p99_us_passes"] = p99s
	res.record["sessions"] = len(sessions)
	res.record["wall_s_passes"] = walls
	m := res.metrics
	m["wall_s"] = median(walls)
	m["events_per_s"] = median(evps)
	m["alloc_mb"] = median(allocs)
	m["req_per_s"] = median(rps)
	m["p50_us"] = median(p50s)
	m["p90_us"] = median(p90s)
	m["ok_frac"] = float64(res.attempted-res.failed) / float64(res.attempted)
	m["setup_s"] = median(setups)
	res.record["setup_s_probes"] = setups
	if c.trace {
		wireLayers(res, w, sessions)
	}
	return res, nil
}

// wireLayers fills the per-layer metrics of a traced wire run. Sessions
// alternate: even ones untraced, odd ones traced.
func wireLayers(res *result, w *wireRun, sessions []sessionStats) {
	m := res.metrics
	for _, id := range allExperimentIDs() {
		m["exp."+id+".wall_s"] = 0
	}
	var self [nPaths][nStages]int64
	var sum sessionStats
	var tracedW, untracedW, events, gcs, misses, tracedP50, blkP99, netP50, netP99 []float64
	var waits [2][]int64
	var untracedMallocs uint64
	var untracedOK, tracedBlkOK, nTraced int
	cpu := map[string]float64{}
	for i, st := range sessions {
		sum.ok += st.ok
		sum.framesIn += st.framesIn
		sum.drops += st.drops
		sum.retransmits += st.retransmits
		sum.stale += st.stale
		sum.devErrors += st.devErrors
		sum.blkSent += st.blkSent
		sum.blkDone += st.blkDone
		sum.badMsgs += st.badMsgs
		events = append(events, float64(st.events))
		gcs = append(gcs, float64(st.gcs))
		misses = append(misses, float64(st.poolMisses))
		if i%2 == 0 {
			untracedW = append(untracedW, st.wall)
			blkP99 = append(blkP99, st.p99[pathBlk])
			netP50 = append(netP50, st.p50[pathNet])
			netP99 = append(netP99, st.p99[pathNet])
			untracedMallocs += st.mallocs
			untracedOK += st.ok
			continue
		}
		nTraced++
		tracedW = append(tracedW, st.wall)
		tracedP50 = append(tracedP50, st.p50[pathBlk])
		tracedBlkOK += st.blkOK
		for p := range self {
			for s := range self[p] {
				self[p][s] += st.spans[p][s]
			}
		}
		for l := range waits {
			waits[l] = append(waits[l], st.wait[l]...)
		}
		for mod, s := range st.cpu {
			cpu[mod] += s
		}
	}
	m["sim.events"] = median(events)
	m["gc.cycles"] = median(gcs)
	moduleMetrics(m, cpu, nTraced)

	p50 := median(tracedP50)
	stages := map[string]float64{}
	residual := p50
	for s, name := range wireStages {
		v := 0.0
		if tracedBlkOK > 0 {
			v = float64(self[pathBlk][s]) / float64(tracedBlkOK) / 1e3
		}
		m[name] = v
		stages[name] = v
		residual -= v
	}
	m["residual_us"] = residual
	m["trace.blk_p50_us"] = p50
	m["blk_p99_us"] = median(blkP99)
	m["net_p50_us"] = median(netP50)
	m["net_p99_us"] = median(netP99)
	for l, name := range []string{"drv", "ep"} {
		ws := sortInt64(waits[l])
		m["netwire."+name+"_wait_p50_us"] = float64(percentile(ws, 50)) / 1e3
		m["netwire."+name+"_wait_p99_us"] = float64(percentile(ws, 99)) / 1e3
	}
	m["netwire.frames_per_req"] = float64(sum.framesIn) / float64(sum.ok)
	m["netwire.drops"] = float64(sum.drops)
	m["transport.retransmits"] = float64(sum.retransmits)
	m["transport.stale"] = float64(sum.stale)
	m["transport.device_errors"] = float64(sum.devErrors)
	m["transport.useful_ratio"] = float64(sum.blkDone) / float64(sum.blkSent+sum.retransmits)
	m["endpoint.bad_msgs"] = float64(sum.badMsgs)
	m["bufpool.misses"] = median(misses)
	m["allocs_per_req"] = float64(untracedMallocs) / float64(untracedOK)
	m["trace.overhead_pct"] = 100 * (median(tracedW)/median(untracedW) - 1)

	stages["residual_us"] = residual
	printTable(fmt.Sprintf("block path per request, traced sessions (self time; sums to trace.blk_p50_us = %.2f us)", p50), "us", stages, p50)
	printTable(fmt.Sprintf("module CPU per session (%d profiled sessions)", nTraced), "s", perPass(cpu, nTraced), sumValues(perPass(cpu, nTraced)))
	fmt.Printf("wasted work: %d retransmits, %d stale responses, useful ratio %.6f (%d completed of %d sent + retransmits)\n",
		sum.retransmits, sum.stale, m["transport.useful_ratio"], sum.blkDone, sum.blkSent+sum.retransmits)
	fmt.Printf("tracing overhead: session wall %.4f s untraced, %.4f s traced (%+.1f%%)\n",
		median(untracedW), median(tracedW), m["trace.overhead_pct"])
}

func sumValues(m map[string]float64) float64 {
	t := 0.0
	for _, v := range m {
		t += v
	}
	return t
}

func sortInt64(v []int64) []int64 {
	s := append([]int64(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// zeroWireLayers reports the wire-only layers as 0 for a workload that does
// not reach them.
func zeroWireLayers(m map[string]float64) {
	for _, l := range wireLayerMetrics() {
		m[l.name] = 0
	}
}
