package cluster

import (
	"bytes"
	"testing"

	"vrio/internal/core"
	"vrio/internal/sim"
	"vrio/internal/workload"
)

// streamCell builds a one-guest testbed running the netperf stream: the
// guest pushes StreamChunk-byte chunks to its station, which acks each one.
func streamCell(model core.ModelName, window int) (*Testbed, *workload.Stream) {
	tb := Build(Spec{Model: model, VMHosts: 1, VMsPerHost: 1, NoJitter: true, Seed: 5})
	st := workload.NewStream(tb.Guests[0], tb.StationFor(0), tb.P.StreamChunk, tb.P.StreamPerChunkCost, window)
	st.Results.StartMeasuring()
	st.Start()
	return tb, st
}

// Once warm, the tenant stream must run out of the testbed pool: every
// buffer a chunk or its ack occupies on the way (guest encode, virtio
// clones, transport messages, TSO fragments, uplink and station frames) is
// recycled, so the pool stops missing. The one sanctioned escape is guest
// net-rx (DESIGN §10): vRIO's reassembled net-rx message and optimum's VF
// frame are handed to the guest stack and left to the garbage collector, so
// those models may miss once per ack the guest receives. Elvis and the
// baseline copy guest rx out of the virtio ring and must not miss at all.
func TestTenantStreamPoolSteadyState(t *testing.T) {
	const window = 16
	for _, tc := range []struct {
		model       core.ModelName
		rxEscapesGC bool
	}{
		{core.ModelVRIO, true},
		{core.ModelElvis, false},
		{core.ModelBaseline, false},
		{core.ModelOptimum, true},
	} {
		t.Run(string(tc.model), func(t *testing.T) {
			tb, st := streamCell(tc.model, window)
			g := tb.Guests[0]
			tb.Eng.RunUntil(40 * sim.Millisecond) // warm-up
			misses, rx, ops := tb.pool.Stats.Misses, g.RxFrames, st.Results.Ops
			tb.Eng.RunUntil(200 * sim.Millisecond)
			misses, rx, ops = tb.pool.Stats.Misses-misses, g.RxFrames-rx, st.Results.Ops-ops
			if ops < 100 {
				t.Fatalf("only %d chunks in the measured window", ops)
			}
			// An ack's buffer is drawn when the station sends it and counted
			// when the guest receives it, so up to a window of acks can be
			// in flight across either snapshot.
			allowed := uint64(0)
			if tc.rxEscapesGC {
				allowed = rx + window
			}
			if misses > allowed {
				t.Errorf("pool missed %d times over %d chunks (%d guest rx frames); allowed %d",
					misses, ops, rx, allowed)
			}
			if err := tb.pool.CheckFree(); err != nil {
				t.Error(err)
			}
		})
	}
}

// watchFree runs the pool's double-ownership check every simulated
// microsecond: a slab returned twice sits on the free list only until the
// next GetRaw of its class hands it out, so a check at the end of the run
// alone would miss most slips. It reports the first failure.
func watchFree(t *testing.T, tb *Testbed, until sim.Time) {
	t.Helper()
	var first error
	var at sim.Time
	stop := tb.Eng.Ticker(sim.Microsecond, func() {
		if first == nil {
			if first = tb.pool.CheckFree(); first != nil {
				at = tb.Eng.Now()
			}
		}
	})
	tb.Eng.RunUntil(until)
	stop()
	if first != nil {
		t.Fatalf("at %v: %v", at, first)
	}
}

// No slab may be owned twice. A flooded frame reaches several receivers,
// each of which recycles what it gets; without a private copy per egress
// port, one slab lands on the free list twice and two later sends share
// it. The failover cell floods: each RR station addresses its guest before
// the switch has learned it, and the fallback IOhost's announcements after
// each re-home are broadcasts.
func TestPoolNeverHoldsASlabTwice(t *testing.T) {
	t.Run("vrio-stream", func(t *testing.T) {
		tb, st := streamCell(core.ModelVRIO, 16)
		watchFree(t, tb, 50*sim.Millisecond)
		if st.Results.Ops == 0 {
			t.Fatal("stream moved nothing")
		}
	})
	t.Run("failover-flood", func(t *testing.T) {
		tb := buildWithFallback(t)
		var rrs []*workload.RR
		for i, g := range tb.Guests {
			workload.InstallRRServer(g, tb.P.NetperfRRProcessCost)
			rr := workload.NewRR(tb.StationFor(i), g.MAC(), 16)
			rr.Results.StartMeasuring()
			rr.Start()
			rrs = append(rrs, rr)
		}
		tb.Eng.At(20*sim.Millisecond, func() {
			tb.IOHyps[0].Fail()
			for vm := range tb.Guests {
				tb.RehomeClient(vm, 1)
			}
		})
		watchFree(t, tb, 100*sim.Millisecond)
		if tb.Switch.Flooded == 0 {
			t.Fatal("the cell never flooded a frame")
		}
		for i, rr := range rrs {
			if rr.Results.Ops == 0 {
				t.Fatalf("RR %d made no progress", i)
			}
		}
	})
	// Quorum writes and replica reads on a striped volume, then a crash:
	// the rebuild reads whole extents into IOhost response slabs and
	// writes them to a survivor.
	t.Run("volrebuild", func(t *testing.T) {
		tb := Build(Spec{
			Model: core.ModelVRIO, VMsPerHost: 2, NumIOhosts: 3,
			VolReplicas: 2, VolQuorum: 2, VolQueues: 2,
			NoJitter: true, Seed: 922,
		})
		for _, vol := range tb.Volumes {
			vol := vol
			buf := make([]byte, 4096)
			var issue func(i int)
			issue = func(i int) {
				sector := uint64(i*17%64) * 8
				vol.Write(sector, buf, func(error) {
					vol.Read(sector, 8, func([]byte, error) { issue(i + 8) })
				})
			}
			for i := 0; i < 8; i++ {
				issue(i)
			}
		}
		tb.Eng.At(5*sim.Millisecond, func() {
			tb.IOHyps[1].Fail()
			tb.IOhostDied(1)
		})
		watchFree(t, tb, 30*sim.Millisecond)
		for i, vol := range tb.Volumes {
			if vol.Counters.Get("rebuild_extents") == 0 {
				t.Fatalf("volume %d rebuilt nothing", i)
			}
		}
	})
	// Multi-queue writes at depth, with the hot shared region that
	// serializes conflicting queues in the scheduler.
	t.Run("mqscaling", func(t *testing.T) {
		tb := Build(Spec{
			Model: core.ModelVRIO, VMsPerHost: 2, WithBlock: true,
			BlkQueues: 4, IOhostSidecores: 2, NoJitter: true, Seed: 7,
		})
		var loads []*workload.MQBlock
		for _, g := range tb.Guests {
			m := workload.NewMQBlock(tb.Eng, g, 4, 8, 4096)
			m.Start()
			loads = append(loads, m)
		}
		watchFree(t, tb, 10*sim.Millisecond)
		for i, m := range loads {
			if m.Done() == 0 {
				t.Fatalf("guest %d completed no writes", i)
			}
		}
	})
}

// blkChunk is the payload size of the block-path pool tests: one full
// 64 KiB request, which the vRIO transport carries in two chunks.
const blkChunk = 64 << 10

// blkLoop is a closed block load on one guest: each of its slots writes a
// 64 KiB chunk to its own sectors, reads it back, checks the bytes and
// goes again.
type blkLoop struct {
	g    *core.Guest
	buf  []byte
	ops  int
	errs int
}

func newBlkLoop(g *core.Guest, slots int) *blkLoop {
	l := &blkLoop{g: g, buf: make([]byte, blkChunk)}
	for i := range l.buf {
		l.buf[i] = byte(i * 7)
	}
	for s := 0; s < slots; s++ {
		l.issue(uint64(s) * blkChunk / 512)
	}
	return l
}

func (l *blkLoop) issue(sector uint64) {
	l.g.WriteBlock(sector, l.buf, func(err error) {
		if err != nil {
			l.errs++
		}
		l.g.ReadBlock(sector, blkChunk/512, func(data []byte, err error) {
			if err != nil || !bytes.Equal(data, l.buf) {
				l.errs++
			}
			l.ops++
			l.issue(sector)
		})
	})
}

// blockCell builds a one-guest block testbed running slots concurrent
// write-then-read loops.
func blockCell(model core.ModelName, slots int) (*Testbed, *blkLoop) {
	tb := Build(Spec{Model: model, VMHosts: 1, VMsPerHost: 1, WithBlock: true, NoJitter: true, Seed: 5})
	return tb, newBlkLoop(tb.Guests[0], slots)
}

// Once warm, block payloads must run out of the testbed pool in every
// model with a block device (DESIGN §10, "Block payloads"): the guest's
// encoded request, the transport chunks and frames (vRIO), the read's
// status+data response slab the backend fills in place, and the completion
// the virtio ring copies back (elvis, baseline). Pool misses must not grow
// with requests.
func TestBlockPoolSteadyState(t *testing.T) {
	for _, model := range []core.ModelName{core.ModelVRIO, core.ModelElvis, core.ModelBaseline} {
		t.Run(string(model), func(t *testing.T) {
			tb, l := blockCell(model, 2)
			tb.Eng.RunUntil(5 * sim.Millisecond) // warm-up
			misses, ops := tb.pool.Stats.Misses, l.ops
			tb.Eng.RunUntil(30 * sim.Millisecond)
			misses, ops = tb.pool.Stats.Misses-misses, l.ops-ops
			if ops < 50 {
				t.Fatalf("only %d write+read pairs in the measured window", ops)
			}
			if l.errs != 0 {
				t.Fatalf("%d failed or corrupt operations", l.errs)
			}
			if misses != 0 {
				t.Errorf("pool missed %d times over %d write+read pairs; want 0", misses, ops)
			}
			if err := tb.pool.CheckFree(); err != nil {
				t.Error(err)
			}
		})
	}
}

// BenchmarkStreamChunk measures one 64 000-byte stream chunk crossing the
// vRIO datapath — guest encode, transport message, TSO fragments, IOhost
// reassembly and forwarding, uplink, station — plus the station's ack back
// to the guest. With a window of one chunk, each iteration is exactly one
// chunk-and-ack cycle, so allocs/op is the per-chunk allocation count.
func BenchmarkStreamChunk(b *testing.B) {
	tb, st := streamCell(core.ModelVRIO, 1)
	next := func() {
		ops := st.Results.Ops
		for st.Results.Ops == ops {
			tb.Eng.RunUntil(tb.Eng.Now() + 5*sim.Microsecond)
		}
	}
	for i := 0; i < 200; i++ {
		next()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next()
	}
}

// BenchmarkBlkChunk measures one 64 KiB vRIO block write plus its read-back
// through the guest front-end, the transport (two chunks each way), the
// IOhost worker and the ramdisk. With one loop slot, each iteration is
// exactly one write+read pair, so allocs/op is the per-pair allocation
// count; the sectors are rewritten in place, so the store allocates nothing
// once warm.
func BenchmarkBlkChunk(b *testing.B) {
	tb, l := blockCell(core.ModelVRIO, 1)
	next := func() {
		ops := l.ops
		for l.ops == ops {
			tb.Eng.RunUntil(tb.Eng.Now() + 5*sim.Microsecond)
		}
	}
	for i := 0; i < 200; i++ {
		next()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next()
	}
	b.StopTimer()
	if l.errs != 0 {
		b.Fatalf("%d failed or corrupt operations", l.errs)
	}
}
