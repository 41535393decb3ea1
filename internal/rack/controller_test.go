package rack

import (
	"bytes"
	"fmt"
	"testing"

	"vrio/internal/cluster"
	"vrio/internal/core"
	"vrio/internal/sim"
	"vrio/internal/workload"
)

// buildRack assembles a multi-IOhost vRIO testbed for control-plane tests.
func buildRack(t *testing.T, numIO int, policy Policy, withBlock bool, seed uint64) *cluster.Testbed {
	t.Helper()
	return cluster.Build(cluster.Spec{
		Model: core.ModelVRIO, VMHosts: 2, VMsPerHost: 2,
		NumIOhosts: numIO, Placement: Placement(policy, numIO),
		WithBlock: withBlock, NoJitter: true, StationPerVM: true, Seed: seed,
	})
}

// startRR drives netperf-RR against every guest and returns the collectors.
func startRR(tb *cluster.Testbed) []*workload.RR {
	var rrs []*workload.RR
	for i, g := range tb.Guests {
		workload.InstallRRServer(g, tb.P.NetperfRRProcessCost)
		rr := workload.NewRR(tb.StationFor(i), g.MAC(), 16)
		rr.Start()
		rr.Results.StartMeasuring()
		rrs = append(rrs, rr)
	}
	return rrs
}

func TestPlacementPolicies(t *testing.T) {
	rr := &RoundRobin{}
	tb := buildRack(t, 3, rr, false, 91)
	want := []int{0, 1, 2, 0}
	for vm, io := range tb.ClientIOhost {
		if io != want[vm] {
			t.Errorf("round-robin placed vm %d on IOhost %d, want %d", vm, io, want[vm])
		}
	}

	tb2 := buildRack(t, 3, Static(1), false, 92)
	for vm, io := range tb2.ClientIOhost {
		if io != 1 {
			t.Errorf("static placed vm %d on IOhost %d, want 1", vm, io)
		}
	}
	// Devices on IOhost 1 actually serve traffic; the others sit idle.
	startRR(tb2)
	tb2.Eng.RunUntil(5 * sim.Millisecond)
	if tb2.IOHyps[1].Counters.Get("msgs") == 0 {
		t.Error("placed IOhost processed nothing")
	}
	if got := tb2.IOHyps[0].Counters.Get("msgs"); got != 0 {
		t.Errorf("unplaced IOhost 0 processed %d msgs", got)
	}

	ll := &LeastLoaded{}
	spread := make(map[int]int)
	for vm := 0; vm < 6; vm++ {
		spread[ll.Place(0, vm, 3)]++
	}
	if spread[0] != 2 || spread[1] != 2 || spread[2] != 2 {
		t.Errorf("least-loaded spread uneven: %v", spread)
	}

	af := &Affinity{
		Pins:   map[int]int{0: 2},
		Groups: map[int]string{1: "replicas", 2: "replicas"},
	}
	p0 := af.Place(0, 0, 3)
	p1 := af.Place(0, 1, 3)
	p2 := af.Place(1, 2, 3)
	if p0 != 2 {
		t.Errorf("pin ignored: vm 0 on %d", p0)
	}
	if p1 == p2 {
		t.Errorf("anti-affinity groupmates share IOhost %d", p1)
	}
}

func TestHeartbeatDetectsFailureAndRehomes(t *testing.T) {
	tb := buildRack(t, 2, &RoundRobin{}, false, 93)
	cfg := Config{HeartbeatInterval: sim.Millisecond / 2, MissThreshold: 3}
	c := New(tb, cfg)
	c.Start()
	rrs := startRR(tb)

	failAt := 20 * sim.Millisecond
	var opsAtFailure uint64
	tb.Eng.At(failAt, func() {
		for _, rr := range rrs {
			opsAtFailure += rr.Results.Ops
		}
		tb.IOHyps[1].Fail() // the controller re-homes; no RehomeClient call here
	})
	tb.Eng.RunUntil(100 * sim.Millisecond)

	if opsAtFailure == 0 {
		t.Fatal("no traffic before the crash")
	}
	if !c.Down(1) || c.AliveIOhosts() != 1 {
		t.Fatal("failure never detected")
	}
	var detectT sim.Time
	rehomes := 0
	for _, ev := range c.Events {
		switch ev.Kind {
		case EventDetect:
			if ev.IOhost != 1 {
				t.Errorf("detected wrong IOhost: %d", ev.IOhost)
			}
			detectT = ev.T
		case EventRehome:
			rehomes++
			if ev.Dst != 0 {
				t.Errorf("rehomed to dead/unknown IOhost %d", ev.Dst)
			}
		}
	}
	// Bounded detection window: within MissThreshold probes of the crash
	// (plus one interval of phase slack).
	bound := failAt + sim.Time(cfg.MissThreshold+1)*cfg.HeartbeatInterval
	if detectT == 0 || detectT > bound {
		t.Errorf("detection at %v, want within (%v, %v]", detectT, failAt, bound)
	}
	if rehomes != 2 {
		t.Errorf("rehomed %d guests, want the 2 the dead IOhost served", rehomes)
	}
	for vm, io := range tb.ClientIOhost {
		if io != 0 {
			t.Errorf("vm %d still homed on dead IOhost %d", vm, io)
		}
	}
	// Traffic resumed on the survivor for every guest, including the two
	// that lived on the dead IOhost.
	var opsEnd uint64
	for _, rr := range rrs {
		opsEnd += rr.Results.Ops
	}
	if opsEnd <= opsAtFailure+40 {
		t.Errorf("traffic did not resume on survivors: %d -> %d", opsAtFailure, opsEnd)
	}
}

// TestRebalancerNarrowsBusyRatio is the Fig. 16b assertion: an all-on-one
// placement starts maximally imbalanced, and the rebalancer demonstrably
// narrows the max/min busy-time ratio between IOhosts.
func TestRebalancerNarrowsBusyRatio(t *testing.T) {
	// ratioOver arms max/min per-IOhost busy-time delta measurement over
	// [from, to); read the returned closure after the engine passes `to`.
	ratioOver := func(tb *cluster.Testbed, from, to sim.Time) func() float64 {
		start := make([]float64, len(tb.IOHyps))
		var ratio float64
		tb.Eng.At(from, func() {
			for i := range tb.IOHyps {
				start[i] = float64(tb.IOHyps[i].BusyTime())
			}
		})
		tb.Eng.At(to, func() {
			min, max := -1.0, -1.0
			for i := range tb.IOHyps {
				d := float64(tb.IOHyps[i].BusyTime()) - start[i]
				if min < 0 || d < min {
					min = d
				}
				if d > max {
					max = d
				}
			}
			if min <= 0 {
				min = 1 // all-idle IOhost: treat as infinite imbalance, capped
			}
			ratio = max / min
		})
		return func() float64 { return ratio }
	}

	// Control run: same placement, no controller.
	ctl := buildRack(t, 2, Static(0), false, 94)
	startRR(ctl)
	ctlRatio := ratioOver(ctl, 30*sim.Millisecond, 60*sim.Millisecond)
	ctl.Eng.RunUntil(60 * sim.Millisecond)

	tb := buildRack(t, 2, Static(0), false, 94)
	c := New(tb, Config{
		HeartbeatInterval: sim.Millisecond / 2,
		RebalanceInterval: 2 * sim.Millisecond,
		ImbalanceRatio:    2.0,
		CooldownTicks:     2,
	})
	c.Start()
	startRR(tb)
	endRatio := ratioOver(tb, 30*sim.Millisecond, 60*sim.Millisecond)
	tb.Eng.RunUntil(60 * sim.Millisecond)

	if c.Counters.Get("rebalances") == 0 {
		t.Fatal("rebalancer never moved a device off the hot IOhost")
	}
	moved := 0
	for _, io := range tb.ClientIOhost {
		if io == 1 {
			moved++
		}
	}
	if moved == 0 {
		t.Error("no guest ended up on the cold IOhost")
	}
	eq, cq := ctlRatio(), endRatio()
	if cq >= eq {
		t.Errorf("rebalancer did not narrow the busy ratio: %.2f (rebalanced) vs %.2f (static)", cq, eq)
	}
	if cq > 3.0 {
		t.Errorf("rebalanced rack still badly skewed: max/min busy = %.2f", cq)
	}
	// Hysteresis: the loop converged rather than ping-ponging — no moves in
	// the final stretch.
	for _, ev := range c.Events {
		if ev.Kind == EventRebalance && ev.T > 40*sim.Millisecond {
			t.Errorf("rebalance still churning at %v", ev.T)
		}
	}
}

// TestMigrationRacingFailureExactlyOnce is the §4.6 torture test: a block
// write in flight, the guest mid-MigrateVM blackout, and the serving IOhost
// crashing — the heartbeat detector re-homes the paused client, the
// migration lands on the new home, and the completion arrives exactly once.
func TestMigrationRacingFailureExactlyOnce(t *testing.T) {
	tb := cluster.Build(cluster.Spec{
		Model: core.ModelVRIO, VMHosts: 2, VMsPerHost: 1,
		NumIOhosts: 2, Placement: Placement(Static(0), 2),
		WithBlock: true, NoJitter: true, Seed: 95,
		BlockLatency: 5 * sim.Millisecond, // keep the request in flight
	})
	c := New(tb, Config{HeartbeatInterval: sim.Millisecond / 2, MissThreshold: 3})
	c.Start()

	payload := bytes.Repeat([]byte{0x5A}, 4096)
	completions := 0
	var werr error
	migrated := false
	g := tb.Guests[0]
	tb.Eng.At(1*sim.Millisecond, func() {
		g.WriteBlock(40, payload, func(err error) {
			completions++
			werr = err
		})
		tb.MigrateVM(0, 1, func() { migrated = true }) // blackout begins
	})
	tb.Eng.At(2*sim.Millisecond, func() { tb.IOHyps[0].Fail() })
	tb.Eng.RunUntil(500 * sim.Millisecond)

	if !migrated {
		t.Fatal("migration never completed")
	}
	if completions != 1 {
		t.Fatalf("block completion arrived %d times, want exactly once", completions)
	}
	if werr != nil {
		t.Fatalf("block write failed: %v", werr)
	}
	got, err := tb.BlockDevices[0].Store().Read(40, 8)
	if err != nil || !bytes.Equal(got, payload) {
		t.Error("shared store missing the write served after re-home")
	}
	if tb.VRIOClients[0].Driver.Counters.Get("retransmits") == 0 {
		t.Error("recovery did not exercise §4.5 retransmission")
	}
	if tb.ClientIOhost[0] != 1 {
		t.Errorf("client homed on IOhost %d, want survivor 1", tb.ClientIOhost[0])
	}
	if tb.GuestHost[0] != 1 {
		t.Errorf("guest host = %d, want migration destination 1", tb.GuestHost[0])
	}
	// Post-race sanity: fresh I/O works end to end on the new home.
	ok := false
	g.ReadBlock(40, 8, func(data []byte, err error) {
		ok = err == nil && bytes.Equal(data, payload)
	})
	tb.Eng.RunUntil(600 * sim.Millisecond)
	if !ok {
		t.Error("block read after the race failed")
	}
}

// TestControllerDeterministic: two same-seed runs of the full control plane
// (failure + rebalancing) produce identical event logs and counters.
func TestControllerDeterministic(t *testing.T) {
	run := func() string {
		tb := buildRack(t, 3, Static(0), false, 96)
		c := New(tb, Config{
			HeartbeatInterval: sim.Millisecond / 2,
			MissThreshold:     3,
			RebalanceInterval: 2 * sim.Millisecond,
		})
		c.Start()
		rrs := startRR(tb)
		tb.Eng.At(25*sim.Millisecond, func() { tb.IOHyps[2].Fail() })
		tb.Eng.RunUntil(50 * sim.Millisecond)
		var ops uint64
		for _, rr := range rrs {
			ops += rr.Results.Ops
		}
		return fmt.Sprintf("%v %v %d %v", c.Events, tb.ClientIOhost, ops,
			tb.Metrics.Value("rack", "rebalances"))
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("same-seed control-plane runs diverged:\n%s\n%s", a, b)
	}
}

// TestStallDetection: the heartbeat treats a stalled IOhost as unresponsive.
// A stall shorter than the miss threshold is forgiven on recovery; a stall
// that outlives MissThreshold probes gets the host declared dead and its
// guests re-homed — the timeout detector's inherent false positive.
func TestStallDetection(t *testing.T) {
	tb := buildRack(t, 2, &RoundRobin{}, false, 95)
	cfg := Config{HeartbeatInterval: sim.Millisecond / 2, MissThreshold: 3}
	c := New(tb, cfg)
	c.Start()
	startRR(tb)

	// Short stall (one probe interval): misses accrue but never reach the
	// threshold, and recovery clears them.
	tb.Eng.At(5*sim.Millisecond, func() { tb.IOHyps[1].StallWorkers(cfg.HeartbeatInterval) })
	tb.Eng.RunUntil(15 * sim.Millisecond)
	if c.Down(1) {
		t.Fatal("transient stall declared dead")
	}

	// Long stall (well past MissThreshold probes): declared dead, guests
	// re-homed onto the survivor.
	tb.Eng.At(20*sim.Millisecond, func() {
		tb.IOHyps[1].StallWorkers(sim.Time(cfg.MissThreshold+3) * cfg.HeartbeatInterval)
	})
	tb.Eng.RunUntil(40 * sim.Millisecond)
	if !c.Down(1) {
		t.Fatal("long stall never detected")
	}
	rehomes := 0
	for _, ev := range c.Events {
		if ev.Kind == EventRehome {
			rehomes++
			if ev.Dst != 0 {
				t.Errorf("rehomed to IOhost %d, want survivor 0", ev.Dst)
			}
		}
	}
	if rehomes != 2 {
		t.Errorf("rehomed %d guests, want 2", rehomes)
	}
}
