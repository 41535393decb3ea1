package core

import (
	"encoding/binary"
	"fmt"

	"vrio/internal/blockdev"
	"vrio/internal/sim"
	"vrio/internal/stats"
	"vrio/internal/transport"
	"vrio/internal/virtio"
)

// VolumeRouter is the guest-side half of distributed volumes (FlexBSO-style,
// arxiv 2409.02381; DESIGN.md §16). It owns one transport driver per stripe
// IOhost and steers sector I/O by extent:
//
//   - Writes fan out to every live replica of the extent and complete after
//     WriteQuorum acks; each write carries a fresh per-extent version, and a
//     replica that already holds a newer version answers BlkStale, so a
//     stale writer can never roll an extent back. A replica that missed an
//     earlier version answers BlkGap (the contiguous fence refuses to jump
//     a sub-extent write past a gap) and is queued for a heal.
//   - Reads go to the least-loaded live replica (outstanding-request count,
//     slot order breaking ties) and demand the extent's committed version;
//     a replica that missed a write answers BlkStale and the router retries
//     the next candidate.
//   - On IOhost death (OnHostDeath, wired from the rack controller's
//     heartbeat detector) a rebuild engine re-replicates every lost copy
//     onto survivors — reading each extent from a live replica and writing
//     it to the least-full survivor outside the replica set — while
//     foreground traffic keeps flowing. The same engine heals gap-nacked
//     live replicas with a full-extent copy, restoring their ability to
//     take sub-extent writes (without it, a W=R volume would lose its
//     quorum permanently after one missed write). Copies are stamped with
//     the source's reported version — never a version the copied bytes
//     might not hold — so the fence stays honest around racing writes.
//
// The router is single-goroutine (simulation event context) and its R=1
// write fast path is allocation-free: ops, request buffers, and callbacks
// are all recycled.
type VolumeRouter struct {
	eng      *sim.Engine
	spec     blockdev.VolumeSpec
	deviceID uint16
	drivers  []*transport.Driver
	alive    []bool
	emap     *blockdev.ExtentMap

	// committed is the highest version known quorum-durable per extent;
	// reads demand it. verAlloc hands out write versions (it can run ahead
	// of committed while writes are in flight).
	committed map[uint64]uint64
	verAlloc  map[uint64]uint64

	// loads counts outstanding router requests per host (read steering).
	loads []int
	// hostExtents counts replica cells per host (rebuild target choice).
	hostExtents []int

	writeFree []*volWriteOp
	readFree  []*volReadOp

	// Rebuild engine state: a FIFO of lost (extent, slot) cells and heal
	// jobs for gap-nacked live replicas, drained with bounded concurrency.
	// reserved holds per-extent bitmasks of hosts already chosen by
	// in-flight jobs, so two jobs rebuilding different slots of one extent
	// never pick the same survivor. healing holds per-extent bitmasks of
	// slots with a heal queued or in flight, so a storm of gap nacks on one
	// cell queues a single heal.
	rebuildQ      []rebuildJob
	rebuildActive int
	reserved      map[uint64]uint64
	healing       map[uint64]uint8

	// RebuildConcurrency bounds in-flight rebuild and heal copies
	// (default 2).
	RebuildConcurrency int

	// RebuildBytes totals payload bytes copied by completed rebuilds and
	// heals.
	RebuildBytes uint64

	// Counters: "vol_writes", "vol_reads", "quorum_losses", "write_nacks",
	// "gap_nacks", "stale_reads", "read_retries", "read_failures",
	// "host_deaths", "rebuild_extents", "rebuild_retargets", "rebuild_redo",
	// "rebuild_stuck", "extents_lost", "replica_heals", "heal_stuck".
	Counters stats.Counters
}

// maxVolReplicas bounds R so per-op replica state fits in fixed arrays (the
// write fast path must not allocate) and per-extent heal state fits a uint8
// slot bitmask.
const maxVolReplicas = 8

// maxVolStripes bounds N so the per-extent host bitmasks (reserved,
// FullyReplicated, pickRebuildTarget) fit a uint64.
const maxVolStripes = 64

// maxRebuildAttempts bounds failure-driven retries per rebuild job. A job
// whose only live source is version-fenced (it missed a write the dead host
// acked) can never complete until a foreground write heals the source, so
// after this many failed copies the job is dropped as "rebuild_stuck" rather
// than spinning. Redo passes (a foreground write outran the copy) reset the
// count — they are progress, not failure.
const maxRebuildAttempts = 6

type rebuildJob struct {
	extent   uint64
	slot     int
	attempts int
	// heal marks a copy onto the cell's own (live, gap-nacked) host rather
	// than a re-replication of a dead host's cell onto a fresh survivor.
	heal bool
}

// NewVolumeRouter builds a router for spec over one driver per stripe host
// (drivers[i] must reach the replica registration on IOhost i under
// deviceID). Spec must validate and Replicas must be at most maxVolReplicas.
func NewVolumeRouter(eng *sim.Engine, spec blockdev.VolumeSpec, deviceID uint16, drivers []*transport.Driver) *VolumeRouter {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	if spec.Replicas > maxVolReplicas {
		panic(fmt.Sprintf("core: at most %d replicas, got %d", maxVolReplicas, spec.Replicas))
	}
	if spec.Stripes > maxVolStripes {
		panic(fmt.Sprintf("core: at most %d stripes, got %d", maxVolStripes, spec.Stripes))
	}
	if len(drivers) != spec.Stripes {
		panic(fmt.Sprintf("core: volume needs %d drivers, got %d", spec.Stripes, len(drivers)))
	}
	r := &VolumeRouter{
		eng:                eng,
		spec:               spec,
		deviceID:           deviceID,
		drivers:            drivers,
		alive:              make([]bool, spec.Stripes),
		emap:               blockdev.NewExtentMap(spec),
		committed:          make(map[uint64]uint64),
		verAlloc:           make(map[uint64]uint64),
		loads:              make([]int, spec.Stripes),
		hostExtents:        make([]int, spec.Stripes),
		reserved:           make(map[uint64]uint64),
		healing:            make(map[uint64]uint8),
		RebuildConcurrency: 2,
	}
	for i := range r.alive {
		r.alive[i] = true
	}
	ne := spec.NumExtents()
	for e := uint64(0); e < ne; e++ {
		for slot := 0; slot < spec.Replicas; slot++ {
			r.hostExtents[r.emap.Replica(e, slot)]++
		}
	}
	return r
}

// Spec exposes the volume geometry.
func (r *VolumeRouter) Spec() blockdev.VolumeSpec { return r.spec }

// ExtentMap exposes the placement map (test verification).
func (r *VolumeRouter) ExtentMap() *blockdev.ExtentMap { return r.emap }

// Committed reports the quorum-durable version of extent e.
func (r *VolumeRouter) Committed(e uint64) uint64 { return r.committed[e] }

// --- writes ---

// volWriteOp is one in-flight quorum write. Recycled; cbs are prebound so
// the fan-out never allocates closures.
type volWriteOp struct {
	r       *VolumeRouter
	extent  uint64
	version uint64
	req     []byte // BlkHdr + VolHdr + data, reused across ops
	hosts   [maxVolReplicas]int
	cbs     [maxVolReplicas]transport.BlkCallback
	sent    int // replicas targeted
	pending int // callbacks still outstanding
	acks    int
	needed  int
	decided bool
	done    func(error)
}

func (r *VolumeRouter) getWriteOp() *volWriteOp {
	if n := len(r.writeFree); n > 0 {
		op := r.writeFree[n-1]
		r.writeFree = r.writeFree[:n-1]
		return op
	}
	op := &volWriteOp{r: r}
	for i := range op.cbs {
		slot := i
		op.cbs[i] = func(resp []byte, err error) { op.complete(slot, resp, err) }
	}
	return op
}

func (r *VolumeRouter) putWriteOp(op *volWriteOp) {
	op.done = nil
	op.acks, op.sent, op.pending, op.decided = 0, 0, 0, false
	r.writeFree = append(r.writeFree, op)
}

// Write stores data at sector, completing done after WriteQuorum replica
// acks. If fewer than WriteQuorum replicas of the sector's extent are live,
// done fires immediately with blockdev.ErrQuorumLost — a lost quorum is a
// clean error, never a hang. data is copied into the request buffer before
// Write returns.
func (r *VolumeRouter) Write(sector uint64, data []byte, done func(error)) {
	extent := r.spec.ExtentOf(sector)
	op := r.getWriteOp()
	op.extent = extent

	// Fan out only to live replicas: a send to a detected-dead host would
	// burn the full retransmission budget for a guaranteed nack.
	n := 0
	for slot := 0; slot < r.spec.Replicas; slot++ {
		h := r.emap.Replica(extent, slot)
		if r.alive[h] {
			op.hosts[n] = h
			n++
		}
	}
	if n < r.spec.WriteQuorum {
		r.Counters.Inc("quorum_losses", 1)
		r.putWriteOp(op)
		done(blockdev.ErrQuorumLost)
		return
	}
	// Allocate the version only once the write will actually be sent, so a
	// detected outage doesn't burn version numbers and widen the
	// committed/verAlloc gap the rebuild redo check reasons about.
	v := r.verAlloc[extent] + 1
	r.verAlloc[extent] = v
	op.version = v

	op.req = virtio.BlkHdr{Type: virtio.BlkVolOut, Sector: sector}.Encode(op.req[:0])
	op.req = virtio.VolHdr{Extent: extent, Version: v}.Encode(op.req)
	op.req = append(op.req, data...)
	op.sent, op.pending, op.needed = n, n, r.spec.WriteQuorum
	op.done = done
	r.Counters.Inc("vol_writes", 1)
	q := uint8(extent % uint64(r.spec.Queues))
	for i := 0; i < n; i++ {
		r.loads[op.hosts[i]]++
		r.drivers[op.hosts[i]].SendBlkQ(uint8(virtio.DeviceBlk), r.deviceID, q, op.req, op.cbs[i])
	}
}

func (op *volWriteOp) complete(slot int, resp []byte, err error) {
	r := op.r
	r.loads[op.hosts[slot]]--
	op.pending--
	if err == nil && len(resp) >= 1 && resp[0] == virtio.BlkOK {
		op.acks++
	} else {
		r.Counters.Inc("write_nacks", 1)
		if err == nil && len(resp) >= 1 && resp[0] == virtio.BlkGap {
			// The replica is live but missed an earlier version; it will
			// nack every sub-extent write until a full-extent copy heals
			// it, so queue that heal now.
			r.Counters.Inc("gap_nacks", 1)
			r.queueHeal(op.extent, op.hosts[slot])
		}
	}
	if !op.decided {
		if op.acks >= op.needed {
			op.decided = true
			if op.version > r.committed[op.extent] {
				r.committed[op.extent] = op.version
			}
			op.done(nil)
		} else if op.acks+op.pending < op.needed {
			// Even if every remaining replica acks, the quorum is out of
			// reach: fail now instead of waiting out retransmit budgets.
			op.decided = true
			r.Counters.Inc("quorum_losses", 1)
			op.done(blockdev.ErrQuorumLost)
		}
	}
	// The request buffer is aliased by in-flight transport chunks; the op
	// can only be recycled once every replica's send has resolved.
	if op.pending == 0 {
		r.putWriteOp(op)
	}
}

// --- reads ---

// volReadOp is one in-flight replica-steered read. Recycled; cb is prebound.
type volReadOp struct {
	r     *VolumeRouter
	req   []byte
	cand  [maxVolReplicas]int
	n     int // candidates
	next  int // next candidate index
	cur   int // host currently tried
	queue uint8
	cb    transport.BlkCallback
	done  func(data []byte, err error)
}

func (r *VolumeRouter) getReadOp() *volReadOp {
	if n := len(r.readFree); n > 0 {
		op := r.readFree[n-1]
		r.readFree = r.readFree[:n-1]
		return op
	}
	op := &volReadOp{r: r}
	op.cb = func(resp []byte, err error) { op.complete(resp, err) }
	return op
}

func (r *VolumeRouter) putReadOp(op *volReadOp) {
	op.done = nil
	op.n, op.next = 0, 0
	r.readFree = append(r.readFree, op)
}

// Read fetches sectors sectors starting at sector, steering to the
// least-loaded live replica and demanding the extent's committed version.
// Stale or failed replicas are retried in load order; when every candidate
// is exhausted done fires with blockdev.ErrNoReplica. The data slice passed
// to done is borrowed — it is only valid during the callback.
func (r *VolumeRouter) Read(sector uint64, sectors int, done func(data []byte, err error)) {
	extent := r.spec.ExtentOf(sector)
	op := r.getReadOp()

	// Candidates: live replicas, ascending outstanding-load, slot order
	// breaking ties (deterministic). Insertion sort over at most R entries.
	n := 0
	for slot := 0; slot < r.spec.Replicas; slot++ {
		h := r.emap.Replica(extent, slot)
		if !r.alive[h] {
			continue
		}
		i := n
		for i > 0 && r.loads[op.cand[i-1]] > r.loads[h] {
			op.cand[i] = op.cand[i-1]
			i--
		}
		op.cand[i] = h
		n++
	}
	if n == 0 {
		r.putReadOp(op)
		done(nil, blockdev.ErrNoReplica)
		return
	}
	op.n, op.next = n, 0
	op.done = done
	op.queue = uint8(extent % uint64(r.spec.Queues))

	op.req = virtio.BlkHdr{Type: virtio.BlkVolIn, Sector: sector}.Encode(op.req[:0])
	op.req = virtio.VolHdr{Extent: extent, Version: r.committed[extent]}.Encode(op.req)
	op.req = append(op.req,
		byte(sectors), byte(sectors>>8), byte(sectors>>16), byte(sectors>>24))
	r.Counters.Inc("vol_reads", 1)
	op.try()
}

func (op *volReadOp) try() {
	r := op.r
	if op.next >= op.n {
		r.Counters.Inc("read_failures", 1)
		done := op.done
		r.putReadOp(op)
		done(nil, blockdev.ErrNoReplica)
		return
	}
	op.cur = op.cand[op.next]
	op.next++
	r.loads[op.cur]++
	r.drivers[op.cur].SendBlkQ(uint8(virtio.DeviceBlk), r.deviceID, op.queue, op.req, op.cb)
}

func (op *volReadOp) complete(resp []byte, err error) {
	r := op.r
	r.loads[op.cur]--
	if err == nil && len(resp) >= 1+virtio.VolReadVerSize && resp[0] == virtio.BlkOK {
		done := op.done
		// Successful vol-reads are [BlkOK][replica version:8][data]; the
		// version matters to rebuild/heal copies, not foreground reads.
		data := resp[1+virtio.VolReadVerSize:]
		done(data, nil)
		r.putReadOp(op)
		return
	}
	if err == nil && len(resp) >= 1 && resp[0] == virtio.BlkStale {
		r.Counters.Inc("stale_reads", 1)
	}
	r.Counters.Inc("read_retries", 1)
	op.try()
}

// --- rebuild engine ---

// OnHostDeath marks host dead and queues a rebuild for every replica cell it
// held. The rack controller's heartbeat detector calls this (via
// cluster.Testbed.IOhostDied) the moment it declares the IOhost down;
// rebuild copies then proceed concurrently with foreground traffic, bounded
// by RebuildConcurrency.
func (r *VolumeRouter) OnHostDeath(host int) {
	if host < 0 || host >= len(r.alive) || !r.alive[host] {
		return
	}
	r.alive[host] = false
	r.Counters.Inc("host_deaths", 1)
	ne := r.spec.NumExtents()
	for e := uint64(0); e < ne; e++ {
		for slot := 0; slot < r.spec.Replicas; slot++ {
			if r.emap.Replica(e, slot) == host {
				r.rebuildQ = append(r.rebuildQ, rebuildJob{extent: e, slot: slot})
			}
		}
	}
	r.pumpRebuild()
}

// Rebuilding reports whether any rebuild work is queued or in flight.
func (r *VolumeRouter) Rebuilding() bool {
	return r.rebuildActive > 0 || len(r.rebuildQ) > 0
}

// FullyReplicated reports whether every extent has all Replicas copies on
// live, distinct hosts.
func (r *VolumeRouter) FullyReplicated() bool {
	ne := r.spec.NumExtents()
	for e := uint64(0); e < ne; e++ {
		var seen uint64
		for slot := 0; slot < r.spec.Replicas; slot++ {
			h := r.emap.Replica(e, slot)
			if !r.alive[h] || seen&(1<<uint(h)) != 0 {
				return false
			}
			seen |= 1 << uint(h)
		}
	}
	return true
}

func (r *VolumeRouter) pumpRebuild() {
	for r.rebuildActive < r.RebuildConcurrency && len(r.rebuildQ) > 0 {
		job := r.rebuildQ[0]
		r.rebuildQ = r.rebuildQ[1:]
		r.rebuildActive++
		r.startRebuild(job)
	}
}

// finishRebuild retires one in-flight job and pulls the next off the queue.
func (r *VolumeRouter) finishRebuild() {
	r.rebuildActive--
	r.pumpRebuild()
}

// requeueRebuild retries a job later (its source or target failed, or a
// concurrent foreground write outran the copy). Jobs that keep failing are
// dropped after maxRebuildAttempts — as "rebuild_stuck" (the cell stays
// degraded until a later host death re-queues it) or "heal_stuck" (the
// replica stays fenced until the next gap nack re-queues the heal).
func (r *VolumeRouter) requeueRebuild(job rebuildJob) {
	r.rebuildActive--
	job.attempts++
	if job.attempts >= maxRebuildAttempts {
		if job.heal {
			r.healing[job.extent] &^= 1 << uint(job.slot)
			r.Counters.Inc("heal_stuck", 1)
		} else {
			r.Counters.Inc("rebuild_stuck", 1)
		}
	} else {
		r.rebuildQ = append(r.rebuildQ, job)
	}
	r.pumpRebuild()
}

// queueHeal enqueues a full-extent copy onto a live replica that gap-nacked
// a write (it missed an earlier version and now refuses every sub-extent
// write to the extent). The healing bitmask collapses the storm of nacks a
// gapped replica produces under write load into one queued heal per cell.
func (r *VolumeRouter) queueHeal(e uint64, host int) {
	slot := r.emap.Slot(e, host)
	if slot < 0 {
		return // the cell moved off this host since the nack
	}
	bit := uint8(1) << uint(slot)
	if r.healing[e]&bit != 0 {
		return // a heal for this cell is already queued or in flight
	}
	r.healing[e] |= bit
	r.rebuildQ = append(r.rebuildQ, rebuildJob{extent: e, slot: slot, heal: true})
	r.pumpRebuild()
}

// pickRebuildTarget chooses the live host with the fewest replica cells that
// neither holds extent e already nor is reserved by another in-flight job
// for e. Lowest index breaks ties (deterministic). Returns -1 if no host
// qualifies (the volume stays degraded for this cell).
func (r *VolumeRouter) pickRebuildTarget(e uint64) int {
	best := -1
	for h := 0; h < r.spec.Stripes; h++ {
		if !r.alive[h] || r.emap.Slot(e, h) >= 0 || r.reserved[e]&(1<<uint(h)) != 0 {
			continue
		}
		if best < 0 || r.hostExtents[h] < r.hostExtents[best] {
			best = h
		}
	}
	return best
}

func (r *VolumeRouter) startRebuild(job rebuildJob) {
	e, slot := job.extent, job.slot
	cellHost := r.emap.Replica(e, slot)
	if job.heal {
		// A heal copies onto the cell's own live host. If that host has died
		// since the gap nack, the death path queued a regular rebuild for
		// the cell; this job is moot.
		if !r.alive[cellHost] {
			r.healing[e] &^= 1 << uint(slot)
			r.finishRebuild()
			return
		}
	} else if r.alive[cellHost] {
		// A requeued job may have been healed in the meantime (e.g. the cell
		// was retargeted while this copy of the job waited).
		r.finishRebuild()
		return
	}
	// Source: the first live replica of the extent on another slot.
	src := -1
	for s := 0; s < r.spec.Replicas; s++ {
		if s == slot {
			continue
		}
		if h := r.emap.Replica(e, s); r.alive[h] {
			src = h
			break
		}
	}
	if src < 0 {
		if job.heal {
			// The gapped copy is the extent's only live replica: the bytes
			// of the missed writes exist nowhere, so the cell stays fenced
			// until a full-extent foreground overwrite re-silvers it.
			r.healing[e] &^= 1 << uint(slot)
			r.Counters.Inc("heal_stuck", 1)
		} else {
			// Every copy of the extent died: data loss, nothing to rebuild
			// from.
			r.Counters.Inc("extents_lost", 1)
		}
		r.finishRebuild()
		return
	}
	target := cellHost
	if !job.heal {
		target = r.pickRebuildTarget(e)
		if target < 0 {
			r.Counters.Inc("rebuild_stuck", 1)
			r.finishRebuild()
			return
		}
		r.reserved[e] |= 1 << uint(target)
	}

	ver := r.committed[e]
	startAlloc := r.verAlloc[e]
	sector := e * r.spec.ExtentSectors
	sectors := r.spec.ExtentSectors
	if end := r.spec.CapacitySectors; sector+sectors > end {
		sectors = end - sector // final partial extent
	}
	q := uint8(e % uint64(r.spec.Queues))

	// Read the whole extent from the source at the committed version. The
	// rebuild path allocates freely — it runs only during recovery.
	req := virtio.BlkHdr{Type: virtio.BlkVolIn, Sector: sector}.Encode(nil)
	req = virtio.VolHdr{Extent: e, Version: ver}.Encode(req)
	req = append(req, byte(sectors), byte(sectors>>8), byte(sectors>>16), byte(sectors>>24))
	r.loads[src]++
	r.drivers[src].SendBlkQ(uint8(virtio.DeviceBlk), r.deviceID, q, req, func(resp []byte, err error) {
		r.loads[src]--
		if err != nil || len(resp) < 1+virtio.VolReadVerSize || resp[0] != virtio.BlkOK {
			// Source failed or fell stale mid-copy: release the target and
			// retry (the next attempt re-picks source and target).
			if !job.heal {
				r.reserved[e] &^= 1 << uint(target)
			}
			r.requeueRebuild(job)
			return
		}
		// Stamp the copy with the version the source actually served — at
		// least ver, possibly newer. Stamping anything the copied bytes
		// might not hold (e.g. assuming committed) would un-fence writes
		// the target never saw.
		vsrc := binary.LittleEndian.Uint64(resp[1:])
		data := resp[1+virtio.VolReadVerSize:] // borrowed: copied once, into wreq
		wreq := make([]byte, 0, virtio.BlkHdrSize+virtio.VolHdrSize+len(data))
		wreq = virtio.BlkHdr{Type: virtio.BlkVolOut, Sector: sector}.Encode(wreq)
		wreq = virtio.VolHdr{Extent: e, Version: vsrc}.Encode(wreq)
		wreq = append(wreq, data...)
		copied := uint64(len(data))
		r.loads[target]++
		r.drivers[target].SendBlkQ(uint8(virtio.DeviceBlk), r.deviceID, q, wreq, func(resp []byte, err error) {
			r.loads[target]--
			if !job.heal {
				r.reserved[e] &^= 1 << uint(target)
			}
			if err != nil || len(resp) < 1 || resp[0] != virtio.BlkOK {
				// Target died under us (crash during rebuild), or raced a
				// newer version: requeue; a rebuild retry picks a different
				// survivor, a heal retry re-reads the newer state.
				if !job.heal {
					r.Counters.Inc("rebuild_retargets", 1)
				}
				r.requeueRebuild(job)
				return
			}
			if job.heal {
				// Good enough even if a write raced the copy: the stamp is
				// the source's true version, so the target stays honestly
				// fenced for anything newer, and the next gap nack (if any)
				// queues a fresh heal.
				r.healing[e] &^= 1 << uint(slot)
				r.RebuildBytes += copied
				r.Counters.Inc("replica_heals", 1)
				r.finishRebuild()
				return
			}
			if r.verAlloc[e] != startAlloc || r.committed[e] != ver {
				// A foreground write was allocated or committed while the
				// copy was in flight; it fanned out before Retarget, so the
				// new target missed it. Copy again at the newer state (the
				// honest version stamp keeps the copy fenced in the
				// meantime). Comparing against the start-of-job snapshots —
				// not verAlloc vs committed — means a long-failed write
				// (verAlloc permanently ahead of committed) cannot wedge the
				// job in an endless redo loop. Redo is progress, not
				// failure: reset the attempt budget.
				r.Counters.Inc("rebuild_redo", 1)
				job.attempts = -1 // requeueRebuild increments; redo restarts at 0
				r.requeueRebuild(job)
				return
			}
			r.hostExtents[r.emap.Replica(e, slot)]--
			r.hostExtents[target]++
			r.emap.Retarget(e, slot, target)
			r.RebuildBytes += copied
			r.Counters.Inc("rebuild_extents", 1)
			r.finishRebuild()
		})
	})
}
