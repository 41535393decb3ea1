package cluster

import (
	"bytes"
	"testing"

	"vrio/internal/core"
	"vrio/internal/ethernet"
	"vrio/internal/sim"
	"vrio/internal/workload"
)

// buildMigratable assembles a 2-VMhost vRIO rack with one VM on host 0.
func buildMigratable(t *testing.T, withBlock bool) *Testbed {
	t.Helper()
	return Build(Spec{
		Model: core.ModelVRIO, VMHosts: 2, VMsPerHost: 1,
		WithBlock: withBlock, NoJitter: true, Seed: 61,
	})
}

func TestMigrationTrafficContinuity(t *testing.T) {
	tb := buildMigratable(t, false)
	g := tb.Guests[0]
	workload.InstallRRServer(g, tb.P.NetperfRRProcessCost)
	rr := workload.NewRR(tb.Stations[0], g.MAC(), 16)
	rr.Start()
	rr.Results.StartMeasuring()

	var opsBefore, opsAfterPause uint64
	migrated := false
	tb.Eng.At(20*sim.Millisecond, func() {
		opsBefore = rr.Results.Ops
		tb.MigrateVM(0, 1, func() { migrated = true })
	})
	tb.Eng.At(20*sim.Millisecond+tb.P.MigrationDowntime/2, func() {
		opsAfterPause = rr.Results.Ops
	})
	tb.Eng.RunUntil(200 * sim.Millisecond)

	if !migrated {
		t.Fatal("migration never completed")
	}
	if opsBefore == 0 {
		t.Fatal("no traffic before migration")
	}
	// During the blackout nothing progresses...
	if opsAfterPause > opsBefore+1 {
		t.Errorf("traffic flowed during the blackout: %d -> %d", opsBefore, opsAfterPause)
	}
	// ...and afterwards the SAME F address serves traffic from the new host.
	if rr.Results.Ops <= opsBefore+10 {
		t.Errorf("traffic did not resume after migration: %d -> %d", opsBefore, rr.Results.Ops)
	}
	if tb.GuestHost[0] != 1 {
		t.Errorf("guest host index not updated: %d", tb.GuestHost[0])
	}
	if tb.IOHyps[0].Counters.Get("migrations") != 1 {
		t.Errorf("migrations counter = %d", tb.IOHyps[0].Counters.Get("migrations"))
	}
	// The RR loop is closed: the request in flight during the blackout was
	// lost (net traffic is unreliable), so the generator must have been
	// unstuck by... nothing. Verify the loop genuinely continued because
	// the blackout lost at most the in-flight transaction.
	if client := tb.VRIOClients[0]; client.Paused() {
		t.Error("client still paused")
	}
}

func TestMigrationBlockRequestsSurviveViaRetransmission(t *testing.T) {
	tb := buildMigratable(t, true)
	g := tb.Guests[0]

	// Issue a write, then migrate immediately so the response (or request)
	// falls into the blackout; §4.5's retransmission must recover it
	// without a device error.
	payload := bytes.Repeat([]byte{0x77}, 4096)
	completed := false
	var writeErr error
	tb.Eng.At(1*sim.Millisecond, func() {
		g.WriteBlock(64, payload, func(err error) {
			completed = true
			writeErr = err
		})
		// Pause before the response can arrive.
		tb.MigrateVM(0, 1, nil)
	})
	tb.Eng.RunUntil(500 * sim.Millisecond)
	if !completed {
		t.Fatal("block write never completed across migration")
	}
	if writeErr != nil {
		t.Fatalf("block write failed across migration: %v", writeErr)
	}
	// The data landed exactly once in the (unmoved) remote store.
	got, err := tb.BlockDevices[0].Store().Read(64, 8)
	if err != nil || !bytes.Equal(got, payload) {
		t.Error("remote store does not hold the migrated client's write")
	}
	// Recovery must have used the retransmission machinery.
	if tb.VRIOClients[0].Driver.Counters.Get("retransmits") == 0 {
		t.Error("no retransmissions: the blackout was not exercised")
	}
	// Post-migration block I/O works from the new host.
	ok := false
	g.ReadBlock(64, 8, func(data []byte, err error) {
		ok = err == nil && bytes.Equal(data, payload)
	})
	tb.Eng.RunUntil(600 * sim.Millisecond)
	if !ok {
		t.Error("block read after migration failed")
	}
}

func TestMigrationPreservesFAddress(t *testing.T) {
	// Two guests on different hosts; guest 0 migrates to host 1. Guest 1
	// keeps reaching it at the same F MAC throughout.
	tb := Build(Spec{
		Model: core.ModelVRIO, VMHosts: 2, VMsPerHost: 1,
		NoJitter: true, Seed: 62,
	})
	a := tb.Guests[0] // will migrate (VM index 0 -> host 0)
	b := tb.Guests[1] // host 1
	received := 0
	a.OnNetRx(func(f ethernet.Frame) { received++ })
	send := func() {
		b.SendNet(ethernet.Frame{Dst: a.MAC(), EtherType: ethernet.EtherTypePlain, Payload: []byte("hi")})
	}
	send()
	tb.Eng.RunUntil(5 * sim.Millisecond)
	if received != 1 {
		t.Fatalf("pre-migration delivery failed: %d", received)
	}
	tb.MigrateVM(0, 1, nil)
	tb.Eng.RunUntil(5*sim.Millisecond + 2*tb.P.MigrationDowntime)
	send()
	tb.Eng.RunUntil(20*sim.Millisecond + 2*tb.P.MigrationDowntime)
	if received != 2 {
		t.Errorf("post-migration delivery to the same F MAC failed: %d", received)
	}
}

func TestMigrationLandsOnRehomedIOhost(t *testing.T) {
	// A guest re-homed to IOhost 1 DURING its migration blackout must come
	// back up attached to IOhost 1's cable on the destination VMhost — the
	// resume path reads the placement at resume time, not capture time.
	tb := Build(Spec{
		Model: core.ModelVRIO, VMHosts: 2, VMsPerHost: 1,
		NumIOhosts: 2, WithBlock: true, NoJitter: true, Seed: 64,
	})
	g := tb.Guests[0]
	migrated := false
	tb.Eng.At(1*sim.Millisecond, func() {
		tb.MigrateVM(0, 1, func() { migrated = true })
	})
	// Mid-blackout, the control plane moves the (paused) guest's devices.
	tb.Eng.At(1*sim.Millisecond+tb.P.MigrationDowntime/2, func() {
		tb.IOHyps[0].Fail()
		tb.RehomeClient(0, 1)
	})
	tb.Eng.RunUntil(200 * sim.Millisecond)
	if !migrated {
		t.Fatal("migration never completed")
	}
	if tb.ClientIOhost[0] != 1 {
		t.Errorf("client homed on IOhost %d, want 1", tb.ClientIOhost[0])
	}
	// Block I/O works end to end through the new IOhost from the new host.
	payload := bytes.Repeat([]byte{0x42}, 4096)
	done := false
	var werr error
	g.WriteBlock(8, payload, func(err error) {
		done = true
		werr = err
	})
	tb.Eng.RunUntil(400 * sim.Millisecond)
	if !done || werr != nil {
		t.Fatalf("post-migration write on rehomed IOhost: done=%v err=%v", done, werr)
	}
	if tb.IOHyps[1].Counters.Get("blk_reqs") == 0 {
		t.Error("rehomed IOhost served no block requests")
	}
	if tb.IOHyps[1].Counters.Get("migrations") != 1 {
		t.Error("migration rebind did not land on the rehomed IOhost")
	}
}

func TestMigrateVMValidation(t *testing.T) {
	tb := Build(Spec{Model: core.ModelElvis, VMsPerHost: 1, NoJitter: true, Seed: 63})
	defer func() {
		if recover() == nil {
			t.Error("MigrateVM on a non-vRIO testbed did not panic")
		}
	}()
	tb.MigrateVM(0, 0, nil)
}

func TestMigrateVMBadHostPanics(t *testing.T) {
	tb := buildMigratable(t, false)
	defer func() {
		if recover() == nil {
			t.Error("MigrateVM to a nonexistent host did not panic")
		}
	}()
	tb.MigrateVM(0, 9, nil)
}
