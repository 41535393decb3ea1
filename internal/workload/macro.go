package workload

import (
	"vrio/internal/ethernet"
	"vrio/internal/sim"
)

// Macro is a closed-loop request/response generator with concurrency — the
// shape of ApacheBench driving Apache and Memslap driving Memcached (§5).
// The generator keeps Concurrency requests outstanding; the server burns
// ServerCost of guest CPU per request and answers with RespSize bytes.
type Macro struct {
	Results Results

	station *Station
	target  ethernet.MAC
	cfg     MacroConfig

	seq     uint64
	sentAt  map[uint64]sim.Time
	stopped bool
	buf     []byte // request payload, reused across sends
}

// MacroConfig parameterizes a macrobenchmark.
type MacroConfig struct {
	// Concurrency is the number of outstanding requests (ApacheBench -c).
	Concurrency int
	// ReqSize / RespSize are the request and response payload sizes.
	ReqSize  int
	RespSize int
}

// ApacheConfig mirrors the paper's ApacheBench setup: a handful of
// concurrent HTTP fetches of small pages.
func ApacheConfig() MacroConfig {
	return MacroConfig{Concurrency: 4, ReqSize: 128, RespSize: 8192}
}

// MemcachedConfig mirrors Memslap: deep concurrency, small values.
func MemcachedConfig() MacroConfig {
	return MacroConfig{Concurrency: 8, ReqSize: 64, RespSize: 1024}
}

// NewMacro wires a generator station against a server guest.
func NewMacro(station *Station, target ethernet.MAC, cfg MacroConfig) *Macro {
	if cfg.Concurrency < 1 {
		cfg.Concurrency = 1
	}
	m := &Macro{station: station, target: target, cfg: cfg, sentAt: make(map[uint64]sim.Time)}
	station.Subscribe(target, func(f ethernet.Frame) { m.handleResponse(f) })
	return m
}

// Start launches the concurrent request loops.
func (m *Macro) Start() {
	for i := 0; i < m.cfg.Concurrency; i++ {
		m.sendNext()
	}
}

// Stop winds the loops down.
func (m *Macro) Stop() { m.stopped = true }

func (m *Macro) sendNext() {
	if m.stopped {
		return
	}
	m.seq++
	seq := m.seq
	m.sentAt[seq] = m.station.eng.Now()
	m.station.Send(ethernet.Frame{
		Dst:       m.target,
		EtherType: ethernet.EtherTypePlain,
		Payload:   seqPayload(&m.buf, seq, m.station.eng.Now(), m.cfg.ReqSize),
	}, nil)
}

func (m *Macro) handleResponse(f ethernet.Frame) {
	seq, _, ok := parseSeqPayload(f.Payload)
	if !ok {
		return
	}
	sent, known := m.sentAt[seq]
	if !known {
		return
	}
	delete(m.sentAt, seq)
	m.Results.record(m.station.eng.Now()-sent, len(f.Payload), false)
	m.sendNext()
}

// InstallMacroServer makes a guest serve macro requests: serviceCost of
// CPU, then a respSize response echoing the sequence number.
func InstallMacroServer(g netServer, serviceCost sim.Time, respSize int) {
	var buf []byte // response payload, reused across sends
	g.OnNetRx(func(f ethernet.Frame) {
		seq, _, ok := parseSeqPayload(f.Payload)
		if !ok {
			return
		}
		src := f.Src
		g.Compute(serviceCost, func() {
			g.SendNet(ethernet.Frame{
				Dst:       src,
				EtherType: ethernet.EtherTypePlain,
				Payload:   seqPayload(&buf, seq, 0, respSize),
			})
		})
	})
}
