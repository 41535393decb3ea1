package main

import (
	"sync"
	"sync/atomic"
	"time"

	"vrio/internal/bufpool"
	"vrio/internal/ethernet"
	"vrio/internal/netwire"
	"vrio/internal/transport"
)

// stage is one layer call the wire workloads time from outside. The order
// matches wireStages.
type stage int

const (
	stSubmit     stage = iota // Driver.SendBlkQ / SendNet, minus the sends inside
	stSend                    // Port.Send: netwire seal, TLS record, syscall
	stEpDeliver               // Endpoint.Deliver, minus the request handler
	stVerify                  // the benchmark's SHA-256 digest and byte checks
	stEpRespond               // Endpoint.RespondBlk / SendNetRx, minus the sends
	stDrvDeliver              // Driver.Deliver, minus the completion callback
	nStages
)

// Request paths a span is charged to.
const (
	pathBlk = iota
	pathNet
	nPaths
	pathInherit = -1
)

var clockBase = time.Now()

func nowNs() int64 { return int64(time.Since(clockBase)) }

// spans accumulates self time per (path, stage) for one loop goroutine. A
// span's self time is its duration minus that of the spans nested in it.
// A nil *spans records nothing, which is how untraced sessions run.
type spans struct {
	stack [16]struct {
		st          stage
		path        int
		start, kids int64
	}
	depth int
	self  [nPaths][nStages]int64
}

// enter opens a span. pathInherit charges it to the enclosing span's path;
// a send with no enclosing span is a retransmission, a block-path send.
func (t *spans) enter(st stage, path int) {
	if t == nil {
		return
	}
	if path == pathInherit {
		path = pathBlk
		if t.depth > 0 {
			path = t.stack[t.depth-1].path
		}
	}
	f := &t.stack[t.depth]
	f.st, f.path, f.kids = st, path, 0
	t.depth++
	f.start = nowNs()
}

// exit closes the innermost open span.
func (t *spans) exit() {
	if t == nil {
		return
	}
	now := nowNs()
	t.depth--
	f := &t.stack[t.depth]
	d := now - f.start
	t.self[f.path][f.st] += d - f.kids
	if t.depth > 0 {
		t.stack[t.depth-1].kids += d
	}
}

// pathOf classifies a transport message by its header.
func pathOf(msg []byte) int {
	h, _, err := transport.Decode(msg)
	if err == nil && (h.Type == transport.MsgBlkReq || h.Type == transport.MsgBlkResp) {
		return pathBlk
	}
	return pathNet
}

// spanPort is the transport.Port both sides run over: it forwards to the
// netwire carrier and, when traced, times each send.
type spanPort struct {
	inner transport.Port
	pool  *bufpool.Pool
	spans *spans
}

func (p *spanPort) Send(dst ethernet.MAC, payload []byte) {
	p.spans.enter(stSend, pathInherit)
	p.inner.Send(dst, payload)
	p.spans.exit()
}

func (p *spanPort) LocalMAC() ethernet.MAC { return p.inner.LocalMAC() }

// BufPool keeps the transport on the carrier's pool, as it would be without
// the wrapper.
func (p *spanPort) BufPool() *bufpool.Pool { return p.pool }

// prober measures how long work posted to a loop waits before it runs: every
// millisecond it posts a timestamped probe to each loop.
type prober struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	wait [][]int64 // per loop, ns
}

const probeRing = 64

func startProber(loops ...*netwire.Loop) *prober {
	p := &prober{stop: make(chan struct{}), done: make(chan struct{}), wait: make([][]int64, len(loops))}
	type probe struct {
		posted atomic.Int64
		fn     func()
	}
	rings := make([][probeRing]*probe, len(loops))
	for i := range loops {
		for j := range rings[i] {
			pr := &probe{}
			pr.fn = func() {
				d := nowNs() - pr.posted.Load()
				p.mu.Lock()
				p.wait[i] = append(p.wait[i], d)
				p.mu.Unlock()
			}
			rings[i][j] = pr
		}
	}
	go func() {
		defer close(p.done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for n := 0; ; n++ {
			select {
			case <-p.stop:
				return
			case <-tick.C:
			}
			for i, l := range loops {
				pr := rings[i][n%probeRing]
				pr.posted.Store(nowNs())
				l.Post(pr.fn)
			}
		}
	}()
	return p
}

// halt stops the prober and returns a copy of each loop's wait samples; a
// probe still queued on a loop may run later.
func (p *prober) halt() [][]int64 {
	close(p.stop)
	<-p.done
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([][]int64, len(p.wait))
	for i, w := range p.wait {
		out[i] = append([]int64(nil), w...)
	}
	return out
}
