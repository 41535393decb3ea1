package core_test

// Model-behavior tests. The hosts need a full fabric to be meaningful, so
// these tests assemble testbeds through the cluster package (an external
// test package avoids the import cycle) and assert core-level contracts.

import (
	"bytes"
	"testing"

	"vrio/internal/cluster"
	"vrio/internal/core"
	"vrio/internal/ethernet"
	"vrio/internal/interpose"
	"vrio/internal/sim"
)

func build(t *testing.T, m core.ModelName, vms int, withBlock bool) *cluster.Testbed {
	t.Helper()
	return cluster.Build(cluster.Spec{
		Model: m, VMsPerHost: vms, WithBlock: withBlock, NoJitter: true, Seed: 42,
	})
}

func TestGuestWithoutBlockPanics(t *testing.T) {
	tb := build(t, core.ModelOptimum, 1, false)
	g := tb.Guests[0]
	if g.HasBlock() {
		t.Fatal("optimum guest claims a block device")
	}
	defer func() {
		if recover() == nil {
			t.Error("WriteBlock without a device did not panic")
		}
	}()
	g.WriteBlock(0, make([]byte, 512), func(error) {})
}

func TestBlockCPUCostOrdering(t *testing.T) {
	// Per-op guest CPU must order elvis < baseline and elvis < vrio for
	// 4 KiB ops: vRIO pays encapsulation, the baseline pays exits.
	costs := map[core.ModelName]sim.Time{}
	for _, m := range []core.ModelName{core.ModelElvis, core.ModelBaseline, core.ModelVRIO} {
		tb := build(t, m, 1, true)
		costs[m] = tb.Guests[0].BlockCPUCost(4096)
	}
	if !(costs[core.ModelElvis] < costs[core.ModelBaseline]) {
		t.Errorf("elvis %v !< baseline %v", costs[core.ModelElvis], costs[core.ModelBaseline])
	}
	if !(costs[core.ModelElvis] < costs[core.ModelVRIO]) {
		t.Errorf("elvis %v !< vrio %v", costs[core.ModelElvis], costs[core.ModelVRIO])
	}
	// vRIO's cost grows with size (per-byte encapsulation); elvis's does not.
	tbV := build(t, core.ModelVRIO, 1, true)
	if tbV.Guests[0].BlockCPUCost(65536) <= tbV.Guests[0].BlockCPUCost(512) {
		t.Error("vrio block CPU cost does not grow with size")
	}
	tbE := build(t, core.ModelElvis, 1, true)
	if tbE.Guests[0].BlockCPUCost(65536) != tbE.Guests[0].BlockCPUCost(512) {
		t.Error("elvis block CPU cost should be size-independent (zero copy)")
	}
}

func TestGuestTrafficCounters(t *testing.T) {
	tb := build(t, core.ModelElvis, 2, false)
	a, b := tb.Guests[0], tb.Guests[1]
	got := 0
	b.OnNetRx(func(f ethernet.Frame) { got++ })
	for i := 0; i < 3; i++ {
		a.SendNet(ethernet.Frame{Dst: b.MAC(), EtherType: ethernet.EtherTypePlain, Payload: []byte{byte(i)}})
	}
	tb.Eng.RunUntil(10 * sim.Millisecond)
	if got != 3 {
		t.Fatalf("guest-to-guest frames delivered: %d", got)
	}
	if a.TxFrames != 3 {
		t.Errorf("TxFrames = %d", a.TxFrames)
	}
	if b.RxFrames != 3 {
		t.Errorf("RxFrames = %d", b.RxFrames)
	}
}

func TestVMToVMWithinVRIOHost(t *testing.T) {
	// Two vRIO guests talk through the IOhost, never the local hypervisor.
	tb := build(t, core.ModelVRIO, 2, false)
	a, b := tb.Guests[0], tb.Guests[1]
	var payload []byte
	b.OnNetRx(func(f ethernet.Frame) { payload = f.Payload })
	a.SendNet(ethernet.Frame{Dst: b.MAC(), EtherType: ethernet.EtherTypePlain, Payload: []byte("east-west")})
	tb.Eng.RunUntil(10 * sim.Millisecond)
	if string(payload) != "east-west" {
		t.Fatalf("payload = %q", payload)
	}
	if tb.IOHyps[0].Counters.Get("net_fwd_local") != 1 {
		t.Errorf("traffic did not pass the IOhost: %s", tb.IOHyps[0].Counters.String())
	}
}

func TestBlockRoundTripAllModels(t *testing.T) {
	for _, m := range []core.ModelName{core.ModelBaseline, core.ModelElvis, core.ModelVRIO} {
		tb := build(t, m, 1, true)
		g := tb.Guests[0]
		want := bytes.Repeat([]byte{0xEE}, 8192)
		var got []byte
		g.WriteBlock(100, want, func(err error) {
			if err != nil {
				t.Fatalf("%s write: %v", m, err)
			}
			g.ReadBlock(100, 16, func(data []byte, err error) {
				if err != nil {
					t.Fatalf("%s read: %v", m, err)
				}
				got = data
			})
		})
		tb.Eng.RunUntil(50 * sim.Millisecond)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: block round trip corrupted (%d bytes)", m, len(got))
		}
	}
}

func TestInterpositionAppliesToLocalModels(t *testing.T) {
	// A firewall chain at the host backend must drop matching guest
	// transmissions under elvis and baseline alike.
	for _, m := range []core.ModelName{core.ModelElvis, core.ModelBaseline} {
		fw := interpose.NewFirewall(0, []byte("BLOCKME"))
		tb := cluster.Build(cluster.Spec{
			Model: m, VMsPerHost: 2, NoJitter: true, Seed: 43,
			NetChain: func(host, vm int) *interpose.Chain {
				if vm == 0 {
					return interpose.NewChain(fw)
				}
				return nil
			},
		})
		a, b := tb.Guests[0], tb.Guests[1]
		delivered := 0
		b.OnNetRx(func(ethernet.Frame) { delivered++ })
		a.SendNet(ethernet.Frame{Dst: b.MAC(), EtherType: ethernet.EtherTypePlain, Payload: []byte("BLOCKME now")})
		a.SendNet(ethernet.Frame{Dst: b.MAC(), EtherType: ethernet.EtherTypePlain, Payload: []byte("fine")})
		tb.Eng.RunUntil(10 * sim.Millisecond)
		if delivered != 1 {
			t.Errorf("%s: delivered %d frames, want 1 (firewall)", m, delivered)
		}
		if fw.Dropped != 1 {
			t.Errorf("%s: firewall dropped %d", m, fw.Dropped)
		}
	}
}

func TestBaselineGeneratesExitsOthersDoNot(t *testing.T) {
	for _, m := range []core.ModelName{core.ModelOptimum, core.ModelElvis, core.ModelVRIO, core.ModelBaseline} {
		tb := build(t, m, 2, false)
		a, b := tb.Guests[0], tb.Guests[1]
		b.OnNetRx(func(ethernet.Frame) {})
		for i := 0; i < 5; i++ {
			a.SendNet(ethernet.Frame{Dst: b.MAC(), EtherType: ethernet.EtherTypePlain, Payload: []byte("x")})
		}
		tb.Eng.RunUntil(10 * sim.Millisecond)
		exits := a.VM.Counters.Get("exits")
		if m == core.ModelBaseline && exits == 0 {
			t.Error("baseline transmitted without exits")
		}
		if m != core.ModelBaseline && exits != 0 {
			t.Errorf("%s took %d exits", m, exits)
		}
	}
}

func TestBareClientUsesHostIRQsNotELI(t *testing.T) {
	tb := cluster.Build(cluster.Spec{
		Model: core.ModelVRIO, VMsPerHost: 2, BareClients: true, NoJitter: true, Seed: 44,
	})
	a, b := tb.Guests[0], tb.Guests[1]
	got := 0
	b.OnNetRx(func(ethernet.Frame) { got++ })
	a.SendNet(ethernet.Frame{Dst: b.MAC(), EtherType: ethernet.EtherTypePlain, Payload: []byte("bare")})
	tb.Eng.RunUntil(10 * sim.Millisecond)
	if got != 1 {
		t.Fatal("bare-metal client did not receive traffic")
	}
	if b.VM.Counters.Get("guest_irqs") != 0 {
		t.Error("bare client took virtualized guest IRQs")
	}
	if b.VM.Counters.Get("host_irqs") == 0 {
		t.Error("bare client took no host IRQs")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (uint64, sim.Time) {
		// NoJitter lets the event queue drain (the jitter process never
		// stops); determinism holds either way.
		tb := cluster.Build(cluster.Spec{Model: core.ModelVRIO, VMsPerHost: 3, NoJitter: true, Seed: 77})
		a, b := tb.Guests[0], tb.Guests[1]
		count := uint64(0)
		b.OnNetRx(func(f ethernet.Frame) {
			count++
			if count < 100 {
				b.SendNet(ethernet.Frame{Dst: a.MAC(), EtherType: ethernet.EtherTypePlain, Payload: f.Payload})
			}
		})
		a.OnNetRx(func(f ethernet.Frame) {
			a.SendNet(ethernet.Frame{Dst: b.MAC(), EtherType: ethernet.EtherTypePlain, Payload: f.Payload})
		})
		a.SendNet(ethernet.Frame{Dst: b.MAC(), EtherType: ethernet.EtherTypePlain, Payload: []byte("ping")})
		tb.Eng.Run()
		return count, tb.Eng.Now()
	}
	c1, t1 := run()
	c2, t2 := run()
	if c1 != c2 || t1 != t2 {
		t.Errorf("identical seeds diverged: (%d,%v) vs (%d,%v)", c1, t1, c2, t2)
	}
	if c1 != 100 {
		t.Errorf("ping-pong count = %d", c1)
	}
}
