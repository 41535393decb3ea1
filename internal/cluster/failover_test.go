package cluster

import (
	"bytes"
	"testing"

	"vrio/internal/core"
	"vrio/internal/sim"
	"vrio/internal/workload"
)

// buildWithFallback builds two VMhosts cabled to two IOhosts, every guest
// placed on IOhost 0: IOhost 1 is the §4.6 pre-cabled fallback.
func buildWithFallback(t *testing.T) *Testbed {
	t.Helper()
	return Build(Spec{
		Model: core.ModelVRIO, VMHosts: 2, VMsPerHost: 1,
		WithBlock: true, NumIOhosts: 2, NoJitter: true, Seed: 71,
	})
}

func TestFailoverTrafficResumesOnSecondary(t *testing.T) {
	tb := buildWithFallback(t)
	g := tb.Guests[0]
	workload.InstallRRServer(g, tb.P.NetperfRRProcessCost)
	rr := workload.NewRR(tb.Stations[0], g.MAC(), 16)
	rr.Start()
	rr.Results.StartMeasuring()

	var opsAtFailure uint64
	tb.Eng.At(20*sim.Millisecond, func() {
		opsAtFailure = rr.Results.Ops
		tb.IOHyps[0].Fail()
		for vm := range tb.Guests {
			tb.RehomeClient(vm, 1)
		}
	})
	tb.Eng.RunUntil(150 * sim.Millisecond)

	if opsAtFailure == 0 {
		t.Fatal("no traffic before the failure")
	}
	if rr.Results.Ops <= opsAtFailure+20 {
		t.Errorf("traffic did not resume on the fallback IOhost: %d -> %d",
			opsAtFailure, rr.Results.Ops)
	}
	if !tb.IOHyps[0].Failed() {
		t.Error("primary not marked failed")
	}
	if tb.IOHyps[1].Counters.Get("msgs") == 0 {
		t.Error("fallback IOhost processed nothing")
	}
	// The crashed primary must process nothing after the failure.
	if tb.IOHyps[0].Counters.Get("net_in") > opsAtFailure+5 {
		t.Error("primary kept serving after Fail()")
	}
}

func TestRehomeBlockRequestsSurvive(t *testing.T) {
	// Two IOhosts and a manual RehomeClient while a write is in flight.
	// The §4.5 retransmission machinery plus the destination's fresh
	// registrations must deliver the completion exactly once.
	tb := Build(Spec{
		Model: core.ModelVRIO, VMHosts: 2, VMsPerHost: 1,
		NumIOhosts: 2, WithBlock: true, NoJitter: true, Seed: 74,
		BlockLatency: 5 * sim.Millisecond,
	})
	g := tb.Guests[0]
	payload := bytes.Repeat([]byte{0x9B}, 4096)
	completions := 0
	var werr error
	tb.Eng.At(1*sim.Millisecond, func() {
		g.WriteBlock(40, payload, func(err error) {
			completions++
			werr = err
		})
	})
	// Crash IOhost 0 and re-home by hand (the rack controller automates
	// this; here the cluster-level path is under test) while the 5 ms device
	// access is pending.
	tb.Eng.At(2*sim.Millisecond, func() {
		tb.IOHyps[0].Fail()
		tb.RehomeClient(0, 1)
		tb.RehomeClient(1, 1)
	})
	tb.Eng.RunUntil(500 * sim.Millisecond)
	if completions != 1 {
		t.Fatalf("block completion arrived %d times, want exactly once", completions)
	}
	if werr != nil {
		t.Fatalf("block write failed: %v", werr)
	}
	got, err := tb.BlockDevices[0].Store().Read(40, 8)
	if err != nil || !bytes.Equal(got, payload) {
		t.Error("shared store missing the re-homed write")
	}
	if tb.VRIOClients[0].Driver.Counters.Get("retransmits") == 0 {
		t.Error("re-home recovery did not exercise retransmission")
	}
	if tb.ClientIOhost[0] != 1 || tb.ClientIOhost[1] != 1 {
		t.Errorf("ClientIOhost not updated: %v", tb.ClientIOhost)
	}
	if tb.IOHyps[1].Counters.Get("blk_reqs") == 0 {
		t.Error("survivor IOhost served no block requests")
	}
}

func TestNoFailoverBlockRequestsDie(t *testing.T) {
	// Without a fallback, a crashed IOhost exhausts the §4.5 budget and
	// the front-end raises a device error — the failure mode the paper
	// warns about ("If the IOhost fails, VMhosts cease to be reachable").
	tb := Build(Spec{
		Model: core.ModelVRIO, VMsPerHost: 1, WithBlock: true,
		NoJitter: true, Seed: 73,
	})
	g := tb.Guests[0]
	var werr error
	completed := false
	tb.Eng.At(1*sim.Millisecond, func() {
		tb.IOHyps[0].Fail()
		g.WriteBlock(8, make([]byte, 512), func(err error) {
			completed = true
			werr = err
		})
	})
	tb.Eng.RunUntil(2 * sim.Second)
	if !completed {
		t.Fatal("request neither completed nor errored")
	}
	if werr == nil {
		t.Error("write against a dead IOhost succeeded")
	}
}
