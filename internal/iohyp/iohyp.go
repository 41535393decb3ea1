// Package iohyp implements the vRIO I/O hypervisor — the software that
// controls the IOhost (§4.1). Workers run on dedicated sidecores; an idle
// worker takes a batch of frames off a NIC receive ring, reassembles
// transport messages, and steers each virtual device's requests so that one
// worker owns a device for as long as it has unprocessed requests,
// preserving per-device ordering. Requests then flow through the device's
// interposition chain into its backend (the network uplink or a block
// device), and responses return to the IOclient over the dedicated channel.
package iohyp

import (
	"encoding/binary"
	"errors"
	"fmt"

	"vrio/internal/blockdev"
	"vrio/internal/bufpool"
	"vrio/internal/cpu"
	"vrio/internal/ethernet"
	"vrio/internal/interpose"
	"vrio/internal/nic"
	"vrio/internal/params"
	"vrio/internal/sim"
	"vrio/internal/stats"
	"vrio/internal/trace"
	"vrio/internal/transport"
	"vrio/internal/virtio"
)

// Mode selects the IOhost NIC handling discipline.
type Mode int

// Modes.
const (
	// ModePolling is normal vRIO: workers poll the NICs, no interrupts.
	ModePolling Mode = iota
	// ModeInterrupt is the "vrio w/o poll" ablation of §4.2/Figure 5:
	// NIC interrupts drive the IOhost, costing 4 extra interrupts per
	// request-response.
	ModeInterrupt
)

// devKey identifies a front-end device: the client's transport MAC plus the
// device id. For multi-queue block devices the submission queue joins the
// key, so each queue pair carries its own steering state; single-queue
// devices (and the registration maps, which are per-device) keep q at 0 and
// behave exactly as before.
type devKey struct {
	client ethernet.MAC
	id     uint16
	q      uint8
}

// netDevice is a registered paravirtual net front-end.
type netDevice struct {
	key   devKey
	fMAC  ethernet.MAC // the front-end's outward-facing MAC (§4.6: "F")
	chain *interpose.Chain
}

// blkDevice is a registered paravirtual block front-end. A multi-queue
// device (queues > 1) gets NVMe-style queue-pair passthrough: each
// submission queue is pinned at registration time to one worker (qworker),
// its requests never migrate workers mid-flight, and a per-queue in-flight
// table replaces the old single completion slot so any number of requests
// per queue can be outstanding at the backend.
type blkDevice struct {
	key     devKey
	backend blockdev.Backend
	chain   *interpose.Chain

	queues int
	// qworker pins each queue to a worker; nil for single-queue devices,
	// which keep the legacy least-loaded/device-owner steering.
	qworker []*Worker
	// inflight counts outstanding backend executions per queue by OrigID.
	// Values are counts, not booleans: a retransmitted request can be at
	// the backend twice under the same OrigID.
	inflight []map[uint64]int
	// qdepth is the per-queue total of in-flight executions (the gauge the
	// metrics registry reads without walking the maps).
	qdepth []int
	// vol marks a volume-replica registration: only these serve the
	// versioned BlkVolOut/BlkVolIn ops (plain devices answer BlkUnsupp).
	vol bool
}

// blkQueue resolves the submission queue of a block id on this device,
// clamping out-of-range ids to queue 0 so a malformed header can never
// index past the tables.
func (d *blkDevice) blkQueue(origID uint64) int {
	if d.queues <= 1 {
		return 0
	}
	q := int(transport.QueueOf(origID))
	if q >= d.queues {
		return 0
	}
	return q
}

// track records one backend execution entering queue q.
func (d *blkDevice) track(q int, origID uint64) {
	d.qdepth[q]++
	d.inflight[q][origID]++
}

// untrack records one backend execution completing on queue q.
func (d *blkDevice) untrack(q int, origID uint64) {
	d.qdepth[q]--
	if n := d.inflight[q][origID]; n <= 1 {
		delete(d.inflight[q], origID)
	} else {
		d.inflight[q][origID] = n - 1
	}
}

// IOHypervisor is the remote half of the split hypervisor.
type IOHypervisor struct {
	eng  *sim.Engine
	p    *params.P
	mode Mode
	rng  *sim.RNG

	workers []*Worker

	// Channel plumbing: one MessagePort per channel NIC; clients are
	// routed to the port their VMhost is cabled to.
	ports      []*nic.MessagePort
	clientPort map[ethernet.MAC]*nic.MessagePort
	endpoint   *transport.Endpoint

	// Uplink is the NIC VF facing the rack switch for external traffic;
	// nil when all traffic is client-to-client.
	uplink *nic.VF

	netDevs   map[devKey]*netDevice
	blkDevs   map[devKey]*blkDevice
	fib       map[ethernet.MAC]*netDevice // F MAC -> device, for local delivery
	defaultCh *interpose.Chain

	// Steering state (§4.1's ordering policy).
	devOwner   map[devKey]*Worker
	devPending map[devKey]int
	rrIdx      int

	// bp is the IOhost-side buffer pool (normally the first channel NIC's,
	// so wire buffers circulate IOhost-wide); steerFree recycles steered
	// work items so the steady-state ingress path does not allocate.
	bp        *bufpool.Pool
	steerFree []*steerItem

	// txBatch/txPend implement TX-interrupt coalescing: while a steered work
	// item runs, txInterrupt calls are latched and at most one interrupt
	// fires when the item completes.
	txBatch bool
	txPend  int

	// failed marks a crashed IOhost (§4.6 fault tolerance): everything it
	// would receive or send is silently lost.
	failed bool

	// stallUntil is the end of the latest injected worker stall; while the
	// stall runs, every sidecore is pinned and ring traffic waits.
	stallUntil sim.Time

	// Counters: "msgs", "net_fwd_local", "net_fwd_uplink", "net_in",
	// "blk_reqs", "iohost_irqs", "interpose_drops", "copy_bytes",
	// "oversize_reads".
	Counters stats.Counters

	// Tracer records iohyp_worker and blockdev spans, picking up the flow
	// keys the client driver linked. Nil is the zero-cost disabled tracer.
	Tracer *trace.Tracer
}

// Worker is one sidecore worker.
type Worker struct {
	hyp  *IOHypervisor
	Core *cpu.Core
	// scanArmed marks a scheduled ring scan.
	scanArmed bool
	// scratch is the reused frame batch for ring harvesting (PollInto).
	scratch [][]byte
	// scanFn is the prebound poll-timer callback (at most one in flight per
	// worker, guarded by scanArmed).
	scanFn func()
	// Processed counts messages this worker handled.
	Processed uint64
}

// Config assembles an I/O hypervisor.
type Config struct {
	Params *params.P
	Mode   Mode
	// Sidecores are the worker cores (one worker per core).
	Sidecores []*cpu.Core
	// Seed feeds poll-delay jitter.
	Seed uint64
	// Tracer, when non-nil, records datapath spans (shared with the
	// testbed's clients so flow keys hand spans across components).
	Tracer *trace.Tracer
}

// New builds the I/O hypervisor. Channel NICs and devices are attached
// afterwards.
func New(eng *sim.Engine, cfg Config) *IOHypervisor {
	if len(cfg.Sidecores) == 0 {
		panic("iohyp: need at least one sidecore")
	}
	h := &IOHypervisor{
		eng:        eng,
		p:          cfg.Params,
		mode:       cfg.Mode,
		rng:        sim.NewRNG(cfg.Seed ^ 0x10457),
		clientPort: make(map[ethernet.MAC]*nic.MessagePort),
		netDevs:    make(map[devKey]*netDevice),
		blkDevs:    make(map[devKey]*blkDevice),
		fib:        make(map[ethernet.MAC]*netDevice),
		devOwner:   make(map[devKey]*Worker),
		devPending: make(map[devKey]int),
		defaultCh:  interpose.NewChain(),
		Tracer:     cfg.Tracer,
	}
	for _, core := range cfg.Sidecores {
		if cfg.Mode == ModePolling {
			core.Polling = true
			// Whenever a sidecore drains, it returns to its poll loop.
			core.OnIdle = func() { h.armScan() }
		}
		w := &Worker{hyp: h, Core: core}
		w.scanFn = func() {
			w.scanArmed = false
			w.scan()
		}
		h.workers = append(h.workers, w)
	}
	h.endpoint = transport.NewEndpoint(eng, routerPort{h}, transport.Config{
		InitialTimeout: cfg.Params.RetransmitTimeout,
		MaxRetransmits: cfg.Params.MaxRetransmits,
	})
	h.endpoint.Tracer = cfg.Tracer
	h.endpoint.NetTx = h.handleNetTx
	h.endpoint.BlkReq = h.handleBlkReq
	return h
}

// Endpoint exposes the transport endpoint (for device control commands).
func (h *IOHypervisor) Endpoint() *transport.Endpoint { return h.endpoint }

// Workers exposes the worker list (for utilization reporting).
func (h *IOHypervisor) Workers() []*Worker { return h.workers }

// BusyTime totals productive sidecore time across this IOhost's workers —
// the §5 "Load Imbalance" signal. Poll-loop spinning is excluded, so an idle
// polling IOhost reads ~0; metrics gauges and the rack rebalancer both read
// load through this one implementation.
func (h *IOHypervisor) BusyTime() sim.Time {
	var total sim.Time
	for _, w := range h.workers {
		total += w.Core.BusyTime()
	}
	return total
}

// Utilization is this worker's sidecore busy fraction since t=0.
func (w *Worker) Utilization() float64 { return w.Core.Utilization() }

// Utilization averages the worker utilizations — the IOhost's sidecore busy
// fraction.
func (h *IOHypervisor) Utilization() float64 {
	if len(h.workers) == 0 {
		return 0
	}
	var sum float64
	for _, w := range h.workers {
		sum += w.Utilization()
	}
	return sum / float64(len(h.workers))
}

// Fail crashes the IOhost (§4.6 "Fault Tolerance"): its sidecores stop
// serving and all traffic through it is lost. IOclients recover by
// re-attaching to a fallback IOhost; their §4.5 retransmission machinery
// carries in-flight block requests across.
func (h *IOHypervisor) Fail() { h.failed = true }

// Failed reports the crash state.
func (h *IOHypervisor) Failed() bool { return h.failed }

// StallWorkers freezes every sidecore worker for d, modelling host-side
// hiccups — memory pressure, SMIs, a hypervisor-level pause. The stall is
// charged as wasted (poll-kind) core time, so it pins the cores without
// inflating the BusyTime load signal the rebalancer reads; queued work and
// ring traffic wait, and squeezed receive rings may overflow. On a busy
// core the stall queues behind the in-flight work item, like a real
// preemption would. Overlapping stalls extend the window, not stack it.
func (h *IOHypervisor) StallWorkers(d sim.Time) {
	if h.failed || d <= 0 {
		return
	}
	if until := h.eng.Now() + d; until > h.stallUntil {
		h.stallUntil = until
	}
	for _, w := range h.workers {
		w.Core.Exec(cpu.NoOwner, cpu.KindPoll, d, nil)
	}
	h.Counters.Inc("stalls", 1)
}

// Stalled reports whether the workers are inside an injected stall window.
// The rack heartbeat treats a stalled IOhost as unresponsive: short stalls
// stay under the miss threshold, long ones get the host declared dead —
// the classic false-positive trade-off of timeout failure detectors.
func (h *IOHypervisor) Stalled() bool { return h.eng.Now() < h.stallUntil }

// AnnounceAddresses broadcasts one gratuitous frame per registered F
// address out the uplink, so the rack switch re-learns that this IOhost
// now speaks for them — the standard takeover announcement after a
// failover or migration.
func (h *IOHypervisor) AnnounceAddresses() {
	if h.uplink == nil || h.failed {
		return
	}
	for fMAC := range h.fib {
		_ = h.uplink.SendFrame(ethernet.Frame{
			Dst:       ethernet.Broadcast,
			Src:       fMAC,
			EtherType: ethernet.EtherTypePlain,
		})
	}
	h.Counters.Inc("announcements", uint64(len(h.fib)))
}

// ChannelDrops totals frames lost to full receive rings on the channel
// NICs (§4.5's failure mode).
func (h *IOHypervisor) ChannelDrops() uint64 {
	var total uint64
	for _, p := range h.ports {
		total += p.VF().Drops
	}
	return total
}

// routerPort routes transport sends to the channel port of the destination
// client.
type routerPort struct{ h *IOHypervisor }

// LocalMAC implements transport.Port. The IOhost speaks through many ports;
// the first port's MAC is the canonical identity.
func (r routerPort) LocalMAC() ethernet.MAC {
	if len(r.h.ports) == 0 {
		return ethernet.MAC{}
	}
	return r.h.ports[0].LocalMAC()
}

// BufPool implements transport.Pooler: the endpoint draws wire buffers from
// the channel NICs' shared pool so they circulate IOhost-wide.
func (r routerPort) BufPool() *bufpool.Pool { return r.h.bufPool() }

// bufPool resolves the IOhost buffer pool: the first channel port's NIC
// pool, or a private one when no NIC is attached (tests).
func (h *IOHypervisor) bufPool() *bufpool.Pool {
	if h.bp == nil {
		if len(h.ports) > 0 {
			h.bp = h.ports[0].BufPool()
		} else {
			h.bp = bufpool.New()
		}
	}
	return h.bp
}

// Send implements transport.Port.
func (r routerPort) Send(dst ethernet.MAC, payload []byte) {
	if r.h.failed {
		return // a crashed IOhost sends nothing
	}
	port := r.h.clientPort[dst]
	if port == nil {
		// Unknown client: nothing to do; the retransmission machinery (for
		// control traffic) will give up eventually.
		return
	}
	port.Send(dst, payload)
}

// AttachChannelNIC registers a channel-facing VF. Frames arriving on it are
// picked up by workers (polling) or delivered by interrupts (the ablation).
func (h *IOHypervisor) AttachChannelNIC(vf *nic.VF) *nic.MessagePort {
	port := nic.NewMessagePort(vf, h.p.MTU)
	port.OnMessage = func(src ethernet.MAC, msg []byte, zeroCopy bool, fragments int) {
		h.ingressMessage(src, msg, zeroCopy)
	}
	h.ports = append(h.ports, port)
	switch h.mode {
	case ModePolling:
		vf.SetMode(nic.ModePoll)
		vf.NotifyRx = func() { h.armScan() }
	case ModeInterrupt:
		vf.SetMode(nic.ModeInterrupt)
		vf.OnInterrupt(func(frames [][]byte) {
			// The interrupt itself costs a worker core.
			w := h.pickWorker()
			h.Counters.Inc("iohost_irqs", 1)
			w.Core.Exec(cpu.NoOwner, cpu.KindIRQ, h.p.HostIRQCost, func() {
				port.HandleBatch(frames)
			})
		})
	}
	return port
}

// AttachUplink registers the switch-facing VF for external traffic.
func (h *IOHypervisor) AttachUplink(vf *nic.VF) {
	h.uplink = vf
	switch h.mode {
	case ModePolling:
		vf.SetMode(nic.ModePoll)
		vf.NotifyRx = func() { h.armScan() }
	case ModeInterrupt:
		vf.SetMode(nic.ModeInterrupt)
		vf.OnInterrupt(func(frames [][]byte) {
			w := h.pickWorker()
			h.Counters.Inc("iohost_irqs", 1)
			w.Core.Exec(cpu.NoOwner, cpu.KindIRQ, h.p.HostIRQCost, func() {
				for _, fr := range frames {
					h.ingressPlain(fr)
				}
			})
		})
	}
}

// BindClient routes a client's transport MAC to a channel port (its cabled
// NIC).
func (h *IOHypervisor) BindClient(client ethernet.MAC, port *nic.MessagePort) {
	h.clientPort[client] = port
}

// RebindClient moves an IOclient to a new transport address and channel
// port — the IOhost side of a live migration between VMhosts that share
// this IOhost (§4.6). All the client's device registrations, the F-address
// forwarding table, and any steering state follow. The client should be
// paused while this runs.
func (h *IOHypervisor) RebindClient(oldMAC, newMAC ethernet.MAC, port *nic.MessagePort) {
	delete(h.clientPort, oldMAC)
	h.clientPort[newMAC] = port
	rekeyDev := func(old devKey) devKey { return devKey{newMAC, old.id, old.q} }
	for k, d := range h.netDevs {
		if k.client == oldMAC {
			delete(h.netDevs, k)
			d.key = rekeyDev(k)
			h.netDevs[d.key] = d
			h.fib[d.fMAC] = d
		}
	}
	for k, d := range h.blkDevs {
		if k.client == oldMAC {
			delete(h.blkDevs, k)
			d.key = rekeyDev(k)
			h.blkDevs[d.key] = d
		}
	}
	for k, w := range h.devOwner {
		if k.client == oldMAC {
			delete(h.devOwner, k)
			h.devOwner[rekeyDev(k)] = w
		}
	}
	for k, n := range h.devPending {
		if k.client == oldMAC {
			delete(h.devPending, k)
			h.devPending[rekeyDev(k)] = n
		}
	}
	h.Counters.Inc("migrations", 1)
}

// UnregisterClient drops every binding and device registration for a
// client's transport MAC — the source side of a re-home onto another IOhost
// (§4.6). The F addresses leave the forwarding table so this IOhost stops
// claiming them; queued steered work still executes (steer tolerates the
// cleared pending counts). Safe to call on a crashed IOhost.
func (h *IOHypervisor) UnregisterClient(client ethernet.MAC) {
	delete(h.clientPort, client)
	for k, d := range h.netDevs {
		if k.client != client {
			continue
		}
		delete(h.netDevs, k)
		if h.fib[d.fMAC] == d {
			delete(h.fib, d.fMAC)
		}
	}
	for k := range h.blkDevs {
		if k.client == client {
			delete(h.blkDevs, k)
		}
	}
	for k := range h.devOwner {
		if k.client == client {
			delete(h.devOwner, k)
		}
	}
	for k := range h.devPending {
		if k.client == client {
			delete(h.devPending, k)
		}
	}
	h.Counters.Inc("unregisters", 1)
}

// RegisterNetDevice creates a net front-end: fMAC is the device's
// outward-facing address. A nil chain means no interposition.
func (h *IOHypervisor) RegisterNetDevice(client ethernet.MAC, id uint16, fMAC ethernet.MAC, chain *interpose.Chain) {
	if chain == nil {
		chain = h.defaultCh
	}
	d := &netDevice{key: devKey{client: client, id: id}, fMAC: fMAC, chain: chain}
	h.netDevs[d.key] = d
	h.fib[fMAC] = d
}

// RegisterBlkDevice creates a single-queue block front-end served by backend.
func (h *IOHypervisor) RegisterBlkDevice(client ethernet.MAC, id uint16, backend blockdev.Backend, chain *interpose.Chain) {
	h.RegisterBlkDeviceMQ(client, id, backend, chain, 1)
}

// RegisterBlkDeviceMQ creates a block front-end with `queues` submission
// queues. Each queue is bound round-robin to a worker at registration time
// and keeps that affinity for the device's lifetime (queue-pair passthrough:
// a queue's requests never migrate workers mid-flight, so the worker's FIFO
// core preserves per-queue submission order). With queues > 1 the caller's
// backend must arbitrate range conflicts itself (wrap it in a
// blockdev.Scheduler): the guest-side one-outstanding-per-range guarantee no
// longer holds across queues. queues <= 1 is exactly RegisterBlkDevice.
func (h *IOHypervisor) RegisterBlkDeviceMQ(client ethernet.MAC, id uint16, backend blockdev.Backend, chain *interpose.Chain, queues int) {
	if chain == nil {
		chain = h.defaultCh
	}
	if queues < 1 {
		queues = 1
	}
	if queues > 256 {
		panic("iohyp: queue id is one byte; at most 256 queues per device")
	}
	d := &blkDevice{
		key:      devKey{client: client, id: id},
		backend:  backend,
		chain:    chain,
		queues:   queues,
		inflight: make([]map[uint64]int, queues),
		qdepth:   make([]int, queues),
	}
	for q := range d.inflight {
		d.inflight[q] = make(map[uint64]int)
	}
	if queues > 1 {
		d.qworker = make([]*Worker, queues)
		for q := range d.qworker {
			d.qworker[q] = h.workers[q%len(h.workers)]
		}
	}
	h.blkDevs[d.key] = d
}

// RegisterVolReplica creates a volume-replica block front-end: a multi-queue
// block device (see RegisterBlkDeviceMQ) that additionally serves the
// versioned BlkVolOut/BlkVolIn ops. backend must resolve to a Device with a
// ReplicaState attached (directly or through a blockdev.Scheduler); the
// version checks themselves run in the device. Rebuild source reads arrive
// through the same registration — they are ordinary BlkVolIn requests whose
// VolHdr demands the router's committed version.
func (h *IOHypervisor) RegisterVolReplica(client ethernet.MAC, id uint16, backend blockdev.Backend, chain *interpose.Chain, queues int) {
	h.RegisterBlkDeviceMQ(client, id, backend, chain, queues)
	h.blkDevs[devKey{client: client, id: id}].vol = true
}

// workerIndex resolves a worker's position in the sidecore list (-1 when
// unknown); gauges report queue→worker affinity through it.
func (h *IOHypervisor) workerIndex(w *Worker) int {
	for i, cand := range h.workers {
		if cand == w {
			return i
		}
	}
	return -1
}

// BlkQueues reports the submission-queue count of a registered block device
// (0 when unregistered).
func (h *IOHypervisor) BlkQueues(client ethernet.MAC, id uint16) int {
	d := h.blkDevs[devKey{client: client, id: id}]
	if d == nil {
		return 0
	}
	return d.queues
}

// BlkQueueDepth reports the in-flight backend executions on queue q of a
// client's block device (0 when unregistered or out of range).
func (h *IOHypervisor) BlkQueueDepth(client ethernet.MAC, id uint16, q int) int {
	d := h.blkDevs[devKey{client: client, id: id}]
	if d == nil || q < 0 || q >= d.queues {
		return 0
	}
	return d.qdepth[q]
}

// BlkQueueWorker reports the sidecore index queue q is pinned to, or -1 for
// single-queue devices (whose steering is dynamic).
func (h *IOHypervisor) BlkQueueWorker(client ethernet.MAC, id uint16, q int) int {
	d := h.blkDevs[devKey{client: client, id: id}]
	if d == nil || d.qworker == nil || q < 0 || q >= d.queues {
		return -1
	}
	return h.workerIndex(d.qworker[q])
}

// BlkInFlight totals in-flight backend executions across every registered
// block device and queue. Fault tests assert it returns to zero after a
// drain: stalls and crashes must empty the per-queue tables exactly once.
func (h *IOHypervisor) BlkInFlight() int {
	total := 0
	for _, d := range h.blkDevs {
		for _, n := range d.qdepth {
			total += n
		}
	}
	return total
}

// --- polling pickup ---

// armScan schedules an idle worker to take a batch after the mean poll
// detection delay. If every worker is busy, the batch waits until one
// drains (workers re-scan after each work item).
func (h *IOHypervisor) armScan() {
	if h.failed {
		return
	}
	w := h.idleWorker()
	if w == nil || w.scanArmed {
		return
	}
	w.scanArmed = true
	delay := h.rng.Range(1, h.p.PollInterval)
	if h.p.MwaitEnabled {
		// §4.6 "Energy": the sidecore waits in a low-power state via
		// monitor/mwait and pays the wake-up latency on new work.
		delay += h.p.MwaitWakeLatency
	}
	h.eng.After(delay, w.scanFn)
}

func (h *IOHypervisor) idleWorker() *Worker {
	for _, w := range h.workers {
		if !w.Core.Busy() && !w.scanArmed {
			return w
		}
	}
	return nil
}

// pickWorker returns the least-loaded worker, breaking ties round-robin so
// steady light load still spreads across the sidecores.
func (h *IOHypervisor) pickWorker() *Worker {
	n := len(h.workers)
	h.rrIdx++
	best := h.workers[h.rrIdx%n]
	for i := 1; i < n; i++ {
		w := h.workers[(h.rrIdx+i)%n]
		if w.Core.QueueLen() < best.Core.QueueLen() {
			best = w
		}
	}
	return best
}

// scan is the worker poll loop body: drain every ring in batches into the
// worker's reusable scratch, handing frames to the reassembly ports;
// complete messages are steered as work items. The scratch batch is safe to
// reuse across rings because HandleBatch/ingressPlain fully consume each
// frame before returning (fragments are copied into reassembly buffers and
// recycled; plain frames are re-encoded into pooled slabs and recycled).
func (w *Worker) scan() {
	h := w.hyp
	found := false
	for _, port := range h.ports {
		w.scratch = w.scratch[:0]
		if port.VF().PollInto(&w.scratch, 64) > 0 {
			found = true
			port.HandleBatch(w.scratch)
		}
	}
	if h.uplink != nil {
		w.scratch = w.scratch[:0]
		if h.uplink.PollInto(&w.scratch, 64) > 0 {
			found = true
			for _, fr := range w.scratch {
				h.ingressPlain(fr)
			}
		}
	}
	if found {
		// More may have arrived while we processed; re-arm.
		h.armScan()
	}
}

// --- ingress paths ---

// ingressMessage handles a reassembled transport message from a client.
func (h *IOHypervisor) ingressMessage(src ethernet.MAC, msg []byte, zeroCopy bool) {
	if h.failed {
		return
	}
	h.Counters.Inc("msgs", 1)
	cost := h.p.WorkerServiceCost + sim.Time(h.p.WorkerPerByte*float64(len(msg)))
	if !zeroCopy {
		cost += sim.Time(h.p.CopyPenaltyPerByte * float64(len(msg)))
		h.Counters.Inc("copy_bytes", uint64(len(msg)))
	}
	// Peek at the device to steer before charging the worker.
	hdr, body, err := transport.Decode(msg)
	key := devKey{client: src}
	if err == nil {
		key.id = hdr.DeviceID
	}
	// Multi-queue block requests steer by (device, queue) to the queue's
	// pinned worker — passthrough affinity, decided before any worker is
	// charged. Everything else keeps the legacy device-owner steering.
	var pinned *Worker
	if err == nil && hdr.Type == transport.MsgBlkReq {
		if dev := h.blkDevs[key]; dev != nil && dev.qworker != nil {
			q := dev.blkQueue(hdr.OrigID)
			key.q = uint8(q)
			pinned = dev.qworker[q]
		}
	}
	// Pick up the trace context the client driver linked: the wire span ends
	// here (message picked up off the channel); the worker span the steered
	// work item opens is parented under the request's guest_ring root. Net-tx
	// roots measure submission-to-forwarded, so the root is taken and ended
	// once the worker is done with the frame.
	var parent, netRoot trace.SpanID
	var flow uint64
	name := "msg"
	if h.Tracer.Enabled() && err == nil {
		mac := trace.Key48(src)
		switch hdr.Type {
		case transport.MsgBlkReq:
			h.Tracer.End(h.Tracer.Take(trace.FlowKey{Kind: transport.FlowBlkWire, A: mac, B: hdr.ReqID}))
			parent = h.Tracer.Lookup(trace.FlowKey{Kind: transport.FlowBlkRoot, A: mac, B: hdr.OrigID})
			name = "blk-req"
		case transport.MsgNetTx:
			h.Tracer.End(h.Tracer.Take(trace.FlowKey{Kind: transport.FlowNetWire, A: mac, B: hdr.ReqID}))
			netRoot = h.Tracer.Take(trace.FlowKey{Kind: transport.FlowNetRoot, A: mac, B: hdr.ReqID})
			parent = netRoot
			name = "net-tx"
			// The message payload is the guest's ethernet frame; keying the
			// worker span by its destination F-MAC joins the egress worker to
			// the frame's fabric hops in a merged export.
			flow = transport.NetFlow(body)
		}
	}
	it := h.getSteer()
	it.op = steerOpDeliver
	it.key = key
	it.pinned = pinned
	it.cost = cost
	it.parent = parent
	it.flow = flow
	it.name = name
	it.src = src
	it.msg = msg
	it.netRoot = netRoot
	h.steer(it)
}

// ingressPlain handles a frame from the uplink (external party -> some VM's
// F address). The frame is consumed here and recycled on return; what the
// client gets is re-encoded into a pooled slab the steered item owns.
func (h *IOHypervisor) ingressPlain(frame []byte) {
	defer h.bufPool().PutRaw(frame)
	if h.failed {
		return
	}
	f, err := ethernet.Decode(frame)
	if err != nil {
		return
	}
	dev := h.fib[f.Dst]
	if dev == nil {
		h.Counters.Inc("unknown_dst", 1)
		return
	}
	h.Counters.Inc("net_in", 1)
	payload, icost, err := dev.chain.Process(interpose.ToGuest, dev.key.id, f.Payload)
	if err != nil {
		h.Counters.Inc("interpose_drops", 1)
		return
	}
	f.Payload = payload
	raw := f.EncodePooled(h.bufPool())
	cost := h.p.WorkerServiceCost + h.p.EncapCost + icost
	it := h.getSteer()
	it.op = steerOpNetIn
	it.key = dev.key
	it.cost = cost
	it.name = "net-in"
	if h.Tracer.Enabled() {
		// Inbound uplink frames are how cross-rack requests arrive; keying
		// the worker span by the destination F-MAC joins it to the request's
		// fabric hops in a merged export.
		it.flow = trace.Key48(f.Dst)
	}
	it.dev = dev
	it.raw = raw
	h.steer(it)
}

// txInterrupt charges the transmit-side interrupt in the no-poll ablation.
// Inside a steered work item (beginTxBatch/endTxBatch bracket) the interrupt
// is latched: however many responses the item emits, the client is
// interrupted at most once when the item completes.
func (h *IOHypervisor) txInterrupt() {
	if h.mode != ModeInterrupt {
		return
	}
	if h.txBatch {
		h.txPend++
		return
	}
	h.fireTxIRQ()
}

func (h *IOHypervisor) fireTxIRQ() {
	w := h.pickWorker()
	h.Counters.Inc("iohost_irqs", 1)
	w.Core.Exec(cpu.NoOwner, cpu.KindIRQ, h.p.HostIRQCost, nil)
}

// beginTxBatch opens a TX-interrupt coalescing window. Windows do not nest:
// steered items run as top-level events.
func (h *IOHypervisor) beginTxBatch() {
	h.txBatch = true
	h.txPend = 0
}

// endTxBatch closes the window, firing the single coalesced interrupt if any
// response was emitted inside it.
func (h *IOHypervisor) endTxBatch() {
	h.txBatch = false
	if h.txPend > 0 {
		h.txPend = 0
		h.fireTxIRQ()
	}
}

// Steered work item kinds.
const (
	steerOpDeliver = iota // hand a reassembled transport message to the endpoint
	steerOpNetIn          // push an uplink frame to a client as net-rx
)

// steerItem is one steered unit of work. Items are recycled through
// IOHypervisor.steerFree with a prebound run callback, so steady-state
// steering does not allocate.
type steerItem struct {
	h      *IOHypervisor
	w      *Worker
	op     int
	key    devKey
	pinned *Worker // queue-pair affinity; overrides device-owner steering
	cost   sim.Time
	parent trace.SpanID
	name   string
	flow   uint64 // fabric-global flow key for the worker span (0 = none)
	fn     func()

	// steerOpDeliver state.
	src     ethernet.MAC
	msg     []byte
	netRoot trace.SpanID

	// steerOpNetIn state.
	dev *netDevice
	raw []byte
}

// getSteer returns a recycled (or fresh) steered work item.
func (h *IOHypervisor) getSteer() *steerItem {
	if n := len(h.steerFree); n > 0 {
		it := h.steerFree[n-1]
		h.steerFree[n-1] = nil
		h.steerFree = h.steerFree[:n-1]
		return it
	}
	it := &steerItem{h: h}
	it.fn = it.run
	return it
}

// steer assigns a work item's device to its owning worker, or to the least
// loaded worker when unowned, holding ownership until the device's queue
// drains (§4.1: order-preserving steering). it.parent/it.name describe the
// iohyp_worker span recorded around the work item when tracing is on; the
// span is backdated by cost from inside the completion callback, so it
// covers exactly the service window (queueing excluded).
func (h *IOHypervisor) steer(it *steerItem) {
	w := it.pinned
	if w == nil {
		w = h.devOwner[it.key]
		if w == nil {
			w = h.pickWorker()
			h.devOwner[it.key] = w
		}
	}
	it.w = w
	h.devPending[it.key]++
	w.Core.Exec(cpu.NoOwner, cpu.KindBusy, it.cost, it.fn)
}

// run executes a steered work item on its worker and recycles it.
func (it *steerItem) run() {
	h := it.h
	if h.Tracer.Enabled() {
		// The span arg packs the submission queue above the device id, so
		// per-queue worker occupancy is visible in exports (0 for
		// single-queue devices, leaving legacy traces untouched).
		arg := uint64(it.key.id) | uint64(it.key.q)<<32
		span := h.Tracer.BeginFlowAt(trace.CatWorker, it.name, it.parent, arg, it.flow, h.eng.Now()-it.cost)
		defer h.Tracer.End(span)
	}
	it.w.Processed++
	h.devPending[it.key]--
	// <= 0 rather than == 0: UnregisterClient may have cleared the
	// steering maps while this item was queued, recreating the entry at
	// zero — don't let it stick at a negative count forever.
	if h.devPending[it.key] <= 0 {
		delete(h.devOwner, it.key)
		delete(h.devPending, it.key)
	}
	if !h.failed { // a crashed host executes nothing, even queued work
		h.beginTxBatch()
		switch it.op {
		case steerOpDeliver:
			if err := h.endpoint.Deliver(it.src, it.msg); err != nil {
				h.Counters.Inc("bad_msgs", 1)
			}
			h.Tracer.End(it.netRoot)
		case steerOpNetIn:
			h.endpoint.SendNetRx(it.dev.key.client, it.dev.key.id, it.raw)
			h.txInterrupt()
		}
		h.endTxBatch()
	}
	if it.raw != nil { // SendNetRx copied it, or the host died first
		h.bufPool().PutRaw(it.raw)
	}
	*it = steerItem{h: it.h, fn: it.fn}
	h.steerFree = append(h.steerFree, it)
}

// --- transport-level handlers (run inside steered work items) ---

// handleNetTx forwards a guest-transmitted frame: locally to another
// IOclient device, or out the uplink.
func (h *IOHypervisor) handleNetTx(src ethernet.MAC, deviceID uint16, frame []byte) {
	if h.failed {
		return
	}
	dev := h.netDevs[devKey{client: src, id: deviceID}]
	chain := h.defaultCh
	if dev != nil {
		chain = dev.chain
	}
	f, err := ethernet.Decode(frame)
	if err != nil {
		h.Counters.Inc("bad_msgs", 1)
		return
	}
	payload, icost, err := chain.Process(interpose.ToDevice, deviceID, f.Payload)
	if err != nil {
		h.Counters.Inc("interpose_drops", 1)
		return
	}
	// Interposition cost is charged to the current worker asynchronously
	// (the message's service cost was charged at steer time; chain cost is
	// charged now on the least loaded worker to keep the model simple).
	if icost > 0 {
		h.pickWorker().Core.Exec(cpu.NoOwner, cpu.KindBusy, icost, nil)
	}
	out := ethernet.Frame{Dst: f.Dst, Src: f.Src, EtherType: f.EtherType, Payload: payload}

	if local := h.fib[f.Dst]; local != nil {
		// VM-to-VM through the IOhost: deliver to the destination device.
		h.Counters.Inc("net_fwd_local", 1)
		inPayload, inCost, err := local.chain.Process(interpose.ToGuest, local.key.id, out.Payload)
		if err != nil {
			h.Counters.Inc("interpose_drops", 1)
			return
		}
		if inCost > 0 {
			h.pickWorker().Core.Exec(cpu.NoOwner, cpu.KindBusy, inCost, nil)
		}
		final := out
		final.Payload = inPayload
		raw := final.EncodePooled(h.bufPool())
		h.endpoint.SendNetRx(local.key.client, local.key.id, raw)
		h.bufPool().PutRaw(raw)
		h.txInterrupt()
		return
	}
	if h.uplink == nil {
		h.Counters.Inc("unknown_dst", 1)
		return
	}
	h.Counters.Inc("net_fwd_uplink", 1)
	// Transmit with the device's F MAC as source so replies route back.
	if dev != nil {
		out.Src = dev.fMAC
	}
	if err := h.uplink.SendFrame(out); err != nil {
		h.Counters.Inc("bad_msgs", 1)
	}
	h.txInterrupt()
}

// Shared status-only block responses (RespondBlk borrows and copies, so
// these read-only singletons are safe to reuse).
var (
	respBlkOK     = []byte{virtio.BlkOK}
	respBlkIOErr  = []byte{virtio.BlkIOErr}
	respBlkUnsupp = []byte{virtio.BlkUnsupp}
	respBlkStale  = []byte{virtio.BlkStale}
	respBlkGap    = []byte{virtio.BlkGap}
)

func statusResp(err error) []byte {
	if err != nil {
		return respBlkIOErr
	}
	return respBlkOK
}

// volStatusResp maps a replica completion to a status byte: version fencing
// (a stale writer, or a replica behind the reader's committed minimum)
// answers BlkStale, and a replica that provably missed an earlier write
// answers BlkGap — so the router can distinguish "retry elsewhere / give up
// cleanly" and "heal this replica" from a real I/O failure.
func volStatusResp(err error) []byte {
	switch {
	case err == nil:
		return respBlkOK
	case errors.Is(err, blockdev.ErrStaleWrite), errors.Is(err, blockdev.ErrStaleReplica):
		return respBlkStale
	case errors.Is(err, blockdev.ErrVersionGap):
		return respBlkGap
	default:
		return respBlkIOErr
	}
}

// handleBlkReq decodes a virtio-blk request, interposes, executes it on the
// backend, and responds. req is a leased buffer: this handler releases it on
// every path — immediately once the payload has been consumed (reads,
// flushes, errors), or from the backend completion for writes, whose
// interposed payload may alias the lease.
func (h *IOHypervisor) handleBlkReq(src ethernet.MAC, hdr transport.Header, req *bufpool.Frame) {
	dev := h.blkDevs[devKey{client: src, id: hdr.DeviceID}]
	if dev == nil {
		h.Counters.Inc("unknown_dev", 1)
		h.endpoint.RespondBlk(src, hdr, respBlkUnsupp)
		req.Release()
		return
	}
	bh, body, err := virtio.DecodeBlkHdr(req.B)
	if err != nil {
		h.Counters.Inc("bad_msgs", 1)
		h.endpoint.RespondBlk(src, hdr, respBlkIOErr)
		req.Release()
		return
	}
	h.Counters.Inc("blk_reqs", 1)
	// Backend stages of a multi-queue request run on the queue's pinned
	// worker (passthrough affinity end to end); single-queue devices keep
	// the legacy least-loaded pick.
	q := dev.blkQueue(hdr.OrigID)
	execWorker := func() *Worker {
		if dev.qworker != nil {
			return dev.qworker[q]
		}
		return h.pickWorker()
	}
	// Blockdev spans cover handoff-to-backend through backend completion,
	// parented under the request's guest_ring root (left linked until the
	// driver consumes the completion).
	root := h.Tracer.Lookup(trace.FlowKey{
		Kind: transport.FlowBlkRoot, A: trace.Key48(src), B: hdr.OrigID,
	})

	switch bh.Type {
	case virtio.BlkOut: // write
		payload, icost, err := dev.chain.Process(interpose.ToDevice, hdr.DeviceID, body)
		if err != nil {
			h.Counters.Inc("interpose_drops", 1)
			h.endpoint.RespondBlk(src, hdr, respBlkIOErr)
			req.Release()
			return
		}
		// §4.4: aligned inner portions are zero-copied; edges are copied.
		copied := copiedEdgeBytes(len(payload), h.p.SectorSize)
		cost := h.p.BlockServiceCost + icost + sim.Time(h.p.CopyPenaltyPerByte*float64(copied))
		if copied > 0 {
			h.Counters.Inc("copy_bytes", uint64(copied))
		}
		bd := h.Tracer.BeginArg(trace.CatBlockdev, "write", root, hdr.OrigID)
		// The interposed payload may alias the leased request buffer, and the
		// backend holds it until completion — the lease is released from the
		// completion callback. The in-flight table entry lives from here to
		// backend completion; the completion always runs (even on a crashed
		// host, where only the response is suppressed), so tables drain
		// exactly once.
		dev.track(q, hdr.OrigID)
		execWorker().Core.Exec(cpu.NoOwner, cpu.KindBusy, cost, func() {
			dev.backend.Submit(blockdev.Request{Op: blockdev.OpWrite, Sector: bh.Sector, Data: payload}, func(resp blockdev.Response) {
				dev.untrack(q, hdr.OrigID)
				h.Tracer.End(bd)
				req.Release()
				h.respondBlk(src, hdr, statusResp(resp.Err))
			})
		})
	case virtio.BlkIn:
		// Read length travels as the body: a 4-byte little-endian sector
		// count (the front-end convention; see the core package).
		n := 0
		if len(body) >= 4 {
			n = int(binary.LittleEndian.Uint32(body))
		}
		// The body is fully consumed (bh.Sector and n are values now); the
		// lease can go back to the pool before the backend runs.
		req.Release()
		if n <= 0 || !h.readFits(1, n) {
			h.endpoint.RespondBlk(src, hdr, respBlkIOErr)
			return
		}
		bd := h.Tracer.BeginArg(trace.CatBlockdev, "read", root, hdr.OrigID)
		dev.track(q, hdr.OrigID)
		execWorker().Core.Exec(cpu.NoOwner, cpu.KindBusy, h.p.BlockServiceCost, func() {
			// The backend reads straight into the response slab, behind the
			// status byte; every path below returns the slab.
			out := h.bufPool().GetRaw(1 + n*h.p.SectorSize)
			dev.backend.Submit(blockdev.Request{Op: blockdev.OpRead, Sector: bh.Sector, Sectors: n, Data: out[1:]}, func(resp blockdev.Response) {
				dev.untrack(q, hdr.OrigID)
				h.Tracer.End(bd)
				if resp.Err != nil {
					h.bufPool().PutRaw(out)
					h.respondBlk(src, hdr, respBlkIOErr)
					return
				}
				// §4.4: reads cannot zero-copy at the IOhost.
				data, icost, err := dev.chain.Process(interpose.ToGuest, hdr.DeviceID, resp.Data)
				if err != nil {
					h.bufPool().PutRaw(out)
					h.respondBlk(src, hdr, respBlkIOErr)
					return
				}
				copyCost := sim.Time(h.p.CopyPenaltyPerByte * float64(len(data)))
				h.Counters.Inc("copy_bytes", uint64(len(data)))
				execWorker().Core.Exec(cpu.NoOwner, cpu.KindBusy, icost+copyCost, func() {
					// RespondBlk borrows the response, so the slab goes
					// back right after the call.
					out = h.bufPool().Place(out, 1, data)
					out[0] = virtio.BlkOK
					h.respondBlk(src, hdr, out)
					h.bufPool().PutRaw(out)
				})
			})
		})
	case virtio.BlkVolOut: // versioned replica write
		if !dev.vol {
			h.endpoint.RespondBlk(src, hdr, respBlkUnsupp)
			req.Release()
			return
		}
		vh, volBody, err := virtio.DecodeVolHdr(body)
		if err != nil {
			h.Counters.Inc("bad_msgs", 1)
			h.endpoint.RespondBlk(src, hdr, respBlkIOErr)
			req.Release()
			return
		}
		payload, icost, err := dev.chain.Process(interpose.ToDevice, hdr.DeviceID, volBody)
		if err != nil {
			h.Counters.Inc("interpose_drops", 1)
			h.endpoint.RespondBlk(src, hdr, respBlkIOErr)
			req.Release()
			return
		}
		copied := copiedEdgeBytes(len(payload), h.p.SectorSize)
		cost := h.p.BlockServiceCost + icost + sim.Time(h.p.CopyPenaltyPerByte*float64(copied))
		if copied > 0 {
			h.Counters.Inc("copy_bytes", uint64(copied))
		}
		bd := h.Tracer.BeginArg(trace.CatBlockdev, "vol-write", root, hdr.OrigID)
		// Same lifetime rules as BlkOut: payload may alias the lease, so the
		// release happens in the backend completion; the completion always
		// runs (response-only suppression on a crashed host), so the
		// in-flight tables drain exactly once.
		dev.track(q, hdr.OrigID)
		execWorker().Core.Exec(cpu.NoOwner, cpu.KindBusy, cost, func() {
			dev.backend.Submit(blockdev.Request{
				Op: blockdev.OpVolWrite, Sector: bh.Sector, Data: payload,
				Extent: vh.Extent, Version: vh.Version,
			}, func(resp blockdev.Response) {
				dev.untrack(q, hdr.OrigID)
				h.Tracer.End(bd)
				req.Release()
				h.respondBlk(src, hdr, volStatusResp(resp.Err))
			})
		})
	case virtio.BlkVolIn: // versioned replica read
		if !dev.vol {
			h.endpoint.RespondBlk(src, hdr, respBlkUnsupp)
			req.Release()
			return
		}
		vh, volBody, err := virtio.DecodeVolHdr(body)
		n := 0
		if err == nil && len(volBody) >= 4 {
			n = int(binary.LittleEndian.Uint32(volBody))
		}
		req.Release() // header and count are values now
		if err != nil || n <= 0 {
			h.Counters.Inc("bad_msgs", 1)
			h.endpoint.RespondBlk(src, hdr, respBlkIOErr)
			return
		}
		// Successful vol-reads answer [BlkOK][version:8][data]: the serving
		// replica's extent version lets rebuild and heal copies stamp their
		// target honestly.
		const volHdr = 1 + virtio.VolReadVerSize
		if !h.readFits(volHdr, n) {
			h.endpoint.RespondBlk(src, hdr, respBlkIOErr)
			return
		}
		bd := h.Tracer.BeginArg(trace.CatBlockdev, "vol-read", root, hdr.OrigID)
		dev.track(q, hdr.OrigID)
		execWorker().Core.Exec(cpu.NoOwner, cpu.KindBusy, h.p.BlockServiceCost, func() {
			out := h.bufPool().GetRaw(volHdr + n*h.p.SectorSize)
			dev.backend.Submit(blockdev.Request{
				Op: blockdev.OpVolRead, Sector: bh.Sector, Sectors: n, Data: out[volHdr:],
				Extent: vh.Extent, Version: vh.Version,
			}, func(resp blockdev.Response) {
				dev.untrack(q, hdr.OrigID)
				h.Tracer.End(bd)
				if resp.Err != nil {
					h.bufPool().PutRaw(out)
					h.respondBlk(src, hdr, volStatusResp(resp.Err))
					return
				}
				data, icost, err := dev.chain.Process(interpose.ToGuest, hdr.DeviceID, resp.Data)
				if err != nil {
					h.bufPool().PutRaw(out)
					h.respondBlk(src, hdr, respBlkIOErr)
					return
				}
				copyCost := sim.Time(h.p.CopyPenaltyPerByte * float64(len(data)))
				h.Counters.Inc("copy_bytes", uint64(len(data)))
				execWorker().Core.Exec(cpu.NoOwner, cpu.KindBusy, icost+copyCost, func() {
					out = h.bufPool().Place(out, volHdr, data)
					out[0] = virtio.BlkOK
					binary.LittleEndian.PutUint64(out[1:], resp.Version)
					h.respondBlk(src, hdr, out)
					h.bufPool().PutRaw(out)
				})
			})
		})
	case virtio.BlkFlush:
		req.Release() // flush carries no payload
		bd := h.Tracer.BeginArg(trace.CatBlockdev, "flush", root, hdr.OrigID)
		dev.track(q, hdr.OrigID)
		execWorker().Core.Exec(cpu.NoOwner, cpu.KindBusy, h.p.BlockServiceCost, func() {
			dev.backend.Submit(blockdev.Request{Op: blockdev.OpFlush}, func(resp blockdev.Response) {
				dev.untrack(q, hdr.OrigID)
				h.Tracer.End(bd)
				h.respondBlk(src, hdr, statusResp(resp.Err))
			})
		})
	default:
		h.endpoint.RespondBlk(src, hdr, respBlkUnsupp)
		req.Release()
	}
}

// readFits reports whether a read of n sectors answered behind an hdr-byte
// header fits in one transport message the client can reassemble, counting
// "oversize_reads" when it does not. n comes off the wire: checking it
// before the response slab is allocated keeps a hostile or corrupt count
// from costing more than the refusal.
func (h *IOHypervisor) readFits(hdr, n int) bool {
	if n <= (h.endpoint.MaxReassembly()-hdr)/h.p.SectorSize {
		return true
	}
	h.Counters.Inc("oversize_reads", 1)
	return false
}

func (h *IOHypervisor) respondBlk(src ethernet.MAC, hdr transport.Header, resp []byte) {
	if h.failed {
		return // completions from a crashed host never leave it
	}
	h.endpoint.RespondBlk(src, hdr, resp)
	h.txInterrupt()
}

// copiedEdgeBytes estimates the §4.4 edge copy for a write whose buffer
// arrived at an arbitrary offset in DMA memory: the head and tail partial
// sectors. A length that is an exact sector multiple still copies nothing
// only if the offset is aligned; we model the common case where the
// transport header shifts the payload off alignment.
func copiedEdgeBytes(length, sectorSize int) int {
	if length == 0 {
		return 0
	}
	if length < 2*sectorSize {
		return length
	}
	// Transport + virtio headers shift the payload by their combined size.
	offset := (transport.HeaderSize + virtio.BlkHdrSize) % sectorSize
	head := (sectorSize - offset) % sectorSize
	tail := (offset + length) % sectorSize
	return head + tail
}

func init() {
	// Assert the assumption copiedEdgeBytes builds on: header sizes are
	// stable. This breaks loudly if the wire format changes.
	if transport.HeaderSize+virtio.BlkHdrSize != 44 {
		panic(fmt.Sprintf("iohyp: unexpected header sizes: %d", transport.HeaderSize+virtio.BlkHdrSize))
	}
}
