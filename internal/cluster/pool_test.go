package cluster

import (
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
// the switch has learned it, and the fallback IOhost's takeover
// announcements are broadcasts.
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
		tb.Eng.At(20*sim.Millisecond, tb.FailOverIOhost)
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
