package blockdev

import (
	"fmt"

	"vrio/internal/sim"
)

// Op is a block request operation.
type Op uint8

// Operations. OpVolWrite/OpVolRead are the distributed-volume variants of
// write/read: they carry an extent id and version and are only served by
// devices that have a ReplicaState attached (see AttachReplica).
const (
	OpRead Op = iota
	OpWrite
	OpFlush
	OpVolWrite
	OpVolRead
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpFlush:
		return "flush"
	case OpVolWrite:
		return "vol-write"
	case OpVolRead:
		return "vol-read"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Request is one block I/O request.
type Request struct {
	Op     Op
	Sector uint64
	// Data is the payload for writes. For OpRead/OpVolRead a non-nil Data
	// is the read's destination: exactly Sectors × SectorSize bytes, filled
	// in place and returned as Response.Data, so a caller can read straight
	// into a buffer it owns (a pooled response slab). A nil Data reads into
	// a fresh buffer.
	Data []byte
	// Sectors is the read length in sectors.
	Sectors int
	// Extent and Version qualify OpVolWrite/OpVolRead requests: Extent names
	// the stripe unit, Version the writer's per-extent counter (for reads,
	// the minimum committed version the replica must hold).
	Extent  uint64
	Version uint64
}

// Response is a completed request.
type Response struct {
	Err error
	// Data holds read results: the request's Data when it named a
	// destination, else a fresh buffer the caller owns.
	Data []byte
	// Version is the replica's extent version at serve time, set on
	// successful OpVolRead completions. Rebuild and heal copies stamp their
	// target with it — never with a version the served data might not hold.
	Version uint64
}

// Backend is anything that serves block requests asynchronously: a local
// Device, or a vRIO remote device behind the transport.
type Backend interface {
	Submit(req Request, done func(Response))
}

// Device serves requests from a Store after a per-request access latency,
// with bounded internal parallelism (channels/banks). A ramdisk profile has
// microsecond latency; an SSD profile tens of microseconds (§5 uses both).
type Device struct {
	eng     *sim.Engine
	store   *Store
	latency sim.Time
	ways    int // parallel banks

	busy    int
	waiting []queued
	// wHead indexes the front of waiting; popping advances it instead of
	// re-slicing, so the queue's capacity is reused across bursts.
	wHead int

	// replica, when non-nil, lets the device serve OpVolWrite/OpVolRead
	// with per-extent version checks (see AttachReplica).
	replica *ReplicaState

	// FailNext injects a failure into the next request (fault testing).
	FailNext bool

	// Served counts completed requests.
	Served uint64
}

type queued struct {
	req  Request
	done func(Response)
}

// NewDevice builds a device over store. ways is the internal parallelism
// (>=1); latency is per-request access time.
func NewDevice(eng *sim.Engine, store *Store, latency sim.Time, ways int) *Device {
	if ways < 1 {
		panic("blockdev: device needs at least one way")
	}
	if latency < 0 {
		panic("blockdev: negative latency")
	}
	return &Device{eng: eng, store: store, latency: latency, ways: ways}
}

// Store exposes the backing store (for test setup and verification).
func (d *Device) Store() *Store { return d.store }

// AttachReplica turns the device into a volume replica: OpVolWrite and
// OpVolRead become servable, gated by rs's per-extent version counters.
// Plain OpRead/OpWrite keep working (rebuild verification reads use them).
func (d *Device) AttachReplica(rs *ReplicaState) {
	if rs == nil {
		panic("blockdev: AttachReplica requires a ReplicaState")
	}
	d.replica = rs
}

// Replica exposes the attached replica state (nil for plain devices).
func (d *Device) Replica() *ReplicaState { return d.replica }

// QueueLen reports requests waiting for a free bank.
func (d *Device) QueueLen() int { return len(d.waiting) - d.wHead }

// InFlight reports requests currently occupying a bank. QueueLen alone
// under-reports device load: a device with every bank busy but an empty
// backlog shows 0 there, so rebalancers and the metrics rollup also need
// the in-service count.
func (d *Device) InFlight() int { return d.busy }

// Ways reports the device's internal parallelism.
func (d *Device) Ways() int { return d.ways }

// Submit implements Backend.
func (d *Device) Submit(req Request, done func(Response)) {
	if done == nil {
		panic("blockdev: Submit requires a completion callback")
	}
	if d.busy >= d.ways {
		d.waiting = append(d.waiting, queued{req, done})
		return
	}
	d.start(req, done)
}

func (d *Device) start(req Request, done func(Response)) {
	d.busy++
	d.eng.After(d.latency, func() {
		resp := d.execute(req)
		d.busy--
		d.Served++
		if d.QueueLen() > 0 {
			next := d.waiting[d.wHead]
			d.waiting[d.wHead] = queued{} // drop references for the collector
			d.wHead++
			if d.wHead == len(d.waiting) {
				d.waiting = d.waiting[:0]
				d.wHead = 0
			}
			d.start(next.req, next.done)
		}
		done(resp)
	})
}

func (d *Device) execute(req Request) Response {
	if d.FailNext {
		d.FailNext = false
		return Response{Err: ErrDeviceFailed}
	}
	switch req.Op {
	case OpWrite:
		return Response{Err: d.store.Write(req.Sector, req.Data)}
	case OpRead:
		data, err := d.read(req)
		return Response{Err: err, Data: data}
	case OpFlush:
		return Response{} // the in-memory store is always durable
	case OpVolWrite:
		if d.replica == nil {
			return Response{Err: ErrNotReplica}
		}
		cur := d.replica.Version(req.Extent)
		full := d.replica.CoversExtent(req.Extent, req.Sector, len(req.Data), d.store.SectorSize())
		switch {
		case req.Version < cur, !full && req.Version == cur:
			// Older than (or, for a partial write, a duplicate of) what the
			// replica holds: a stale writer (e.g. a rebuild copy outrun by
			// foreground writes). Accepting it would roll the extent back.
			return Response{Err: fmt.Errorf("%w: extent %d has v%d, write carries v%d",
				ErrStaleWrite, req.Extent, cur, req.Version)}
		case !full && req.Version > cur+1:
			// The replica missed version cur+1..req.Version-1. A sub-extent
			// write must not advance the fence past the gap — the missed
			// sectors would then read back stale with a clean status. Only a
			// full-extent write (rebuild/heal copy, or a whole-extent
			// overwrite), which replaces every byte, may jump.
			return Response{Err: fmt.Errorf("%w: extent %d has v%d, write carries v%d",
				ErrVersionGap, req.Extent, cur, req.Version)}
		}
		if err := d.store.Write(req.Sector, req.Data); err != nil {
			return Response{Err: err}
		}
		d.replica.Advance(req.Extent, req.Version)
		return Response{}
	case OpVolRead:
		if d.replica == nil {
			return Response{Err: ErrNotReplica}
		}
		// The reader demands at least the committed version it knows about;
		// a replica that missed a write (crash, rebuild copy in flight)
		// must refuse rather than serve stale sectors.
		if d.replica.Version(req.Extent) < req.Version {
			return Response{Err: fmt.Errorf("%w: extent %d has v%d, read demands v%d",
				ErrStaleReplica, req.Extent, d.replica.Version(req.Extent), req.Version)}
		}
		data, err := d.read(req)
		return Response{Err: err, Data: data, Version: d.replica.Version(req.Extent)}
	default:
		return Response{Err: fmt.Errorf("%w: %d", ErrBadOp, req.Op)}
	}
}

// read serves OpRead/OpVolRead into the request's destination, or into a
// fresh buffer when it names none.
func (d *Device) read(req Request) ([]byte, error) {
	if req.Data == nil {
		return d.store.Read(req.Sector, req.Sectors)
	}
	if want := req.Sectors * d.store.SectorSize(); len(req.Data) != want {
		return nil, fmt.Errorf("%w: %d-byte destination for %d sectors", ErrUnaligned, len(req.Data), req.Sectors)
	}
	if err := d.store.ReadInto(req.Sector, req.Data); err != nil {
		return nil, err
	}
	return req.Data, nil
}

// Scheduler is the guest OS disk scheduler (§4.5): it reorders requests so
// each sector range has at most one outstanding request, queueing
// conflicting requests until the outstanding one completes. This is what
// makes blind retransmission of block requests safe.
type Scheduler struct {
	backend    Backend
	sectorSize int
	// locked marks sectors with an outstanding request.
	locked  map[uint64]bool
	waiting []queued
	// blocked is drain's scratch set of ranges held back by an earlier
	// deferred request; kept across calls so draining never allocates.
	blocked map[uint64]bool

	// Deferred counts requests that had to wait for an overlapping range.
	Deferred uint64
}

// NewScheduler wraps a backend. sectorSize must match the backing device's.
func NewScheduler(backend Backend, sectorSize int) *Scheduler {
	if sectorSize <= 0 {
		panic("blockdev: scheduler needs a positive sector size")
	}
	return &Scheduler{backend: backend, sectorSize: sectorSize, locked: make(map[uint64]bool)}
}

func (s *Scheduler) span(req Request) (uint64, uint64) {
	n := uint64(req.Sectors)
	if req.Op == OpWrite || req.Op == OpVolWrite {
		n = uint64((len(req.Data) + s.sectorSize - 1) / s.sectorSize)
	}
	if req.Op == OpFlush || n == 0 {
		return req.Sector, 1
	}
	return req.Sector, n
}

// conflict reports whether any sector of [sector, sector+n) is locked.
func (s *Scheduler) conflict(sector, n uint64) bool {
	for i := uint64(0); i < n; i++ {
		if s.locked[sector+i] {
			return true
		}
	}
	return false
}

// Submit dispatches or defers the request.
func (s *Scheduler) Submit(req Request, done func(Response)) {
	sector, n := s.span(req)
	if s.conflict(sector, n) {
		s.Deferred++
		s.waiting = append(s.waiting, queued{req, done})
		return
	}
	s.dispatch(req, done, sector, n)
}

func (s *Scheduler) dispatch(req Request, done func(Response), sector, n uint64) {
	for i := uint64(0); i < n; i++ {
		s.locked[sector+i] = true
	}
	s.backend.Submit(req, func(resp Response) {
		for i := uint64(0); i < n; i++ {
			delete(s.locked, sector+i)
		}
		s.drain()
		done(resp)
	})
}

// drain re-attempts deferred requests in order, preserving per-range FIFO.
func (s *Scheduler) drain() {
	if len(s.waiting) == 0 {
		return
	}
	if s.blocked == nil {
		s.blocked = make(map[uint64]bool)
	}
	blockedRanges := s.blocked
	for k := range blockedRanges {
		delete(blockedRanges, k)
	}
	remaining := s.waiting[:0]
	for _, q := range s.waiting {
		sector, n := s.span(q.req)
		// Preserve ordering: if an earlier deferred request overlaps this
		// range, this one must keep waiting even if the lock cleared.
		blockedByEarlier := false
		for i := uint64(0); i < n; i++ {
			if blockedRanges[sector+i] {
				blockedByEarlier = true
				break
			}
		}
		if !blockedByEarlier && !s.conflict(sector, n) {
			s.dispatch(q.req, q.done, sector, n)
			continue
		}
		for i := uint64(0); i < n; i++ {
			blockedRanges[sector+i] = true
		}
		remaining = append(remaining, q)
	}
	s.waiting = remaining
}

// Outstanding reports requests currently locked at the backend.
func (s *Scheduler) Outstanding() int { return len(s.locked) }

// Waiting reports deferred requests.
func (s *Scheduler) Waiting() int { return len(s.waiting) }
