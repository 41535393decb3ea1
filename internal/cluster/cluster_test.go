package cluster

import (
	"testing"

	"vrio/internal/core"
	"vrio/internal/sim"
	"vrio/internal/workload"
)

// rrLatency runs Netperf RR with n VMs on one VMhost and returns the mean
// round-trip in microseconds.
func rrLatency(t *testing.T, model core.ModelName, n int) float64 {
	t.Helper()
	tb := Build(Spec{Model: model, VMsPerHost: n, Seed: 7})
	var collectors []Measurable
	var rrs []*workload.RR
	for i, g := range tb.Guests {
		workload.InstallRRServer(g, tb.P.NetperfRRProcessCost)
		rr := workload.NewRR(tb.StationFor(i), g.MAC(), 16)
		rr.Start()
		rrs = append(rrs, rr)
		collectors = append(collectors, &rr.Results)
	}
	tb.RunMeasured(5*sim.Millisecond, 50*sim.Millisecond, collectors...)
	var total float64
	var ops uint64
	for _, rr := range rrs {
		if rr.Results.Ops == 0 {
			t.Fatalf("%s: a VM completed zero transactions", model)
		}
		total += rr.Results.Latency.Mean() * float64(rr.Results.Ops)
		ops += rr.Results.Ops
	}
	return total / float64(ops) / 1000
}

func TestMultiIOhostTopology(t *testing.T) {
	// 3 IOhosts, 2 VMhosts: every VMhost cabled to every IOhost, per-IOhost
	// sidecores and metrics components all present.
	placed := []int{2, 0, 1, 2}
	tb := Build(Spec{
		Model: core.ModelVRIO, VMHosts: 2, VMsPerHost: 2,
		NumIOhosts: 3, IOhostSidecores: 2, NoJitter: true, Seed: 81,
		Placement: func(host, vm int) int { return placed[vm] },
	})
	if len(tb.IOHyps) != 3 {
		t.Fatalf("IOHyps misassembled: %d entries", len(tb.IOHyps))
	}
	if len(tb.SidecoresByIOhost) != 3 || len(tb.Sidecores) != 6 {
		t.Errorf("sidecores: %d groups, %d total, want 3 and 6",
			len(tb.SidecoresByIOhost), len(tb.Sidecores))
	}
	if len(tb.channels) != 3 || len(tb.channels[1]) != 2 {
		t.Fatalf("channel matrix misassembled")
	}
	for vm, want := range placed {
		if tb.ClientIOhost[vm] != want {
			t.Errorf("vm %d homed on %d, want %d", vm, tb.ClientIOhost[vm], want)
		}
	}
	for i := 0; i < 3; i++ {
		comp := IOhypComponent(i)
		// busy_ns gauge registered per IOhost (the rebalancer's input).
		tb.Metrics.Value(comp, "busy_ns")
		tb.Metrics.Value(comp, "channel_drops")
	}
	// Each guest's traffic reaches exactly its placed IOhost.
	g := tb.Guests[1] // placed on IOhost 0
	workload.InstallRRServer(g, tb.P.NetperfRRProcessCost)
	rr := workload.NewRR(tb.StationFor(1), g.MAC(), 16)
	rr.Start()
	tb.Eng.RunUntil(5 * sim.Millisecond)
	if tb.IOHyps[0].Counters.Get("msgs") == 0 {
		t.Error("placed IOhost idle")
	}
	if tb.IOHyps[1].Counters.Get("msgs") != 0 {
		t.Error("unplaced IOhost saw traffic")
	}
}

func TestNumIOhostsValidation(t *testing.T) {
	expectPanic := func(name string, spec Spec) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		Build(spec)
	}
	expectPanic("NumIOhosts on elvis", Spec{
		Model: core.ModelElvis, NumIOhosts: 2, Seed: 1,
	})
	expectPanic("Placement out of range", Spec{
		Model: core.ModelVRIO, NumIOhosts: 2, Seed: 1,
		Placement: func(host, vm int) int { return 5 },
	})
}

func TestRRAllModelsComplete(t *testing.T) {
	for _, m := range []core.ModelName{
		core.ModelOptimum, core.ModelElvis, core.ModelVRIO,
		core.ModelVRIONoPoll, core.ModelBaseline,
	} {
		lat := rrLatency(t, m, 1)
		if lat <= 0 || lat > 500 {
			t.Errorf("%s: implausible RR latency %.1fµs", m, lat)
		}
		t.Logf("%s N=1 RR latency: %.1fµs", m, lat)
	}
}

// Figure 7's anchors: optimum fastest; vRIO ≈ optimum + ~12µs;
// Elvis between them at N=1.
func TestRRLatencyOrderingN1(t *testing.T) {
	opt := rrLatency(t, core.ModelOptimum, 1)
	elvis := rrLatency(t, core.ModelElvis, 1)
	vrio := rrLatency(t, core.ModelVRIO, 1)
	base := rrLatency(t, core.ModelBaseline, 1)
	t.Logf("N=1 RR: optimum=%.1f elvis=%.1f vrio=%.1f baseline=%.1f µs", opt, elvis, vrio, base)
	if !(opt < elvis && elvis < vrio) {
		t.Errorf("ordering violated: optimum=%.1f elvis=%.1f vrio=%.1f", opt, elvis, vrio)
	}
	gap := vrio - opt
	if gap < 8 || gap > 18 {
		t.Errorf("vrio-optimum gap = %.1fµs, want ≈12µs", gap)
	}
	if base < elvis {
		t.Errorf("baseline (%.1f) should not beat elvis (%.1f)", base, elvis)
	}
}

// Elvis's latency grows faster with N (host interrupts) until vRIO wins
// (Figure 7's crossover near N=6).
func TestRRElvisVrioCrossover(t *testing.T) {
	e1, v1 := rrLatency(t, core.ModelElvis, 1), rrLatency(t, core.ModelVRIO, 1)
	e7, v7 := rrLatency(t, core.ModelElvis, 7), rrLatency(t, core.ModelVRIO, 7)
	t.Logf("N=1: elvis=%.1f vrio=%.1f; N=7: elvis=%.1f vrio=%.1f", e1, v1, e7, v7)
	if v1 <= e1 {
		t.Errorf("at N=1 vRIO (%.1f) must be slower than Elvis (%.1f)", v1, e1)
	}
	if v7 >= e7 {
		t.Errorf("at N=7 vRIO (%.1f) must be faster than Elvis (%.1f)", v7, e7)
	}
}

func TestTable3EventCounts(t *testing.T) {
	type want struct {
		exits, guestIRQ, inject, hostIRQ uint64
	}
	cases := map[core.ModelName]want{
		core.ModelOptimum:  {0, 2, 0, 0},
		core.ModelVRIO:     {0, 2, 0, 0},
		core.ModelElvis:    {0, 2, 0, 2},
		core.ModelBaseline: {3, 2, 2, 2},
	}
	for model, w := range cases {
		tb := Build(Spec{Model: model, VMsPerHost: 1, Seed: 3})
		g := tb.Guests[0]
		workload.InstallRRServer(g, tb.P.NetperfRRProcessCost)
		rr := workload.NewRR(tb.StationFor(0), g.MAC(), 16)
		rr.Start()
		rr.Results.StartMeasuring()
		tb.Eng.RunUntil(200 * sim.Millisecond)
		ops := rr.Results.Ops
		if ops == 0 {
			t.Fatalf("%s: no transactions", model)
		}
		per := func(name string) float64 {
			return float64(g.VM.Counters.Get(name)) / float64(ops)
		}
		check := func(name string, wantV uint64) {
			got := per(name)
			// Allow 15% slack for coalescing and warmup edges.
			lo, hi := float64(wantV)*0.85, float64(wantV)*1.15+0.1
			if got < lo || got > hi {
				t.Errorf("%s: %s per RR = %.2f, want ≈%d", model, name, got, wantV)
			}
		}
		check("exits", w.exits)
		check("guest_irqs", w.guestIRQ)
		check("irq_injections", w.inject)
		check("host_irqs", w.hostIRQ)
		// vRIO with polling must take zero IOhost interrupts.
		if model == core.ModelVRIO && tb.IOHyps[0].Counters.Get("iohost_irqs") != 0 {
			t.Errorf("vrio polling took IOhost interrupts")
		}
	}
}

func TestVRIONoPollTakesIOhostIRQs(t *testing.T) {
	tb := Build(Spec{Model: core.ModelVRIONoPoll, VMsPerHost: 1, Seed: 3})
	g := tb.Guests[0]
	workload.InstallRRServer(g, tb.P.NetperfRRProcessCost)
	rr := workload.NewRR(tb.StationFor(0), g.MAC(), 16)
	rr.Start()
	rr.Results.StartMeasuring()
	tb.Eng.RunUntil(50 * sim.Millisecond)
	if rr.Results.Ops == 0 {
		t.Fatal("no transactions")
	}
	perRR := float64(tb.IOHyps[0].Counters.Get("iohost_irqs")) / float64(rr.Results.Ops)
	// Table 3 says 4 per request-response (coalescing trims a little).
	if perRR < 2 || perRR > 4.5 {
		t.Errorf("iohost_irqs per RR = %.2f, want ≈4", perRR)
	}
}

func TestBlockDevicesWiredAllModels(t *testing.T) {
	for _, m := range []core.ModelName{core.ModelBaseline, core.ModelElvis, core.ModelVRIO} {
		tb := Build(Spec{Model: m, VMsPerHost: 2, WithBlock: true, Seed: 9})
		done := 0
		for _, g := range tb.Guests {
			g := g
			payload := make([]byte, 4096)
			for i := range payload {
				payload[i] = byte(i)
			}
			g.WriteBlock(80, payload, func(err error) {
				if err != nil {
					t.Errorf("%s write: %v", m, err)
				}
				g.ReadBlock(80, 8, func(data []byte, err error) {
					if err != nil || len(data) != 4096 || data[5] != 5 {
						t.Errorf("%s read-back wrong: err=%v len=%d", m, err, len(data))
					}
					done++
				})
			})
		}
		tb.Eng.RunUntil(100 * sim.Millisecond)
		if done != 2 {
			t.Errorf("%s: %d/2 block round-trips completed", m, done)
		}
	}
}

func TestScalabilityFourVMhosts(t *testing.T) {
	// The Figure 13 topology: 4 VMhosts, one IOhost, 2 sidecores.
	tb := Build(Spec{
		Model: core.ModelVRIO, VMHosts: 4, VMsPerHost: 2,
		IOhostSidecores: 2, Seed: 5,
	})
	var collectors []Measurable
	total := uint64(0)
	var rrs []*workload.RR
	for i, g := range tb.Guests {
		workload.InstallRRServer(g, tb.P.NetperfRRProcessCost)
		rr := workload.NewRR(tb.StationFor(i), g.MAC(), 16)
		rr.Start()
		rrs = append(rrs, rr)
		collectors = append(collectors, &rr.Results)
	}
	tb.RunMeasured(5*sim.Millisecond, 30*sim.Millisecond, collectors...)
	for i, rr := range rrs {
		if rr.Results.Ops == 0 {
			t.Errorf("VM %d starved", i)
		}
		total += rr.Results.Ops
	}
	if total == 0 {
		t.Fatal("no traffic across the rack")
	}
}
