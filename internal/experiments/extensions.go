package experiments

import (
	"fmt"

	"vrio/internal/cluster"
	"vrio/internal/core"
	"vrio/internal/params"
	"vrio/internal/sim"
	"vrio/internal/workload"
)

func init() {
	// migration and failover are single indivisible timelines (one testbed
	// with mid-run topology changes), so they stay one cell each.
	register("migration", single(migration))
	register("failover", single(failover))
	register("energy", energyPlan)
}

// migration exercises the §4.6 live-migration design that the paper
// describes but did not implement ("we did not implement the dynamic
// switch"): a vRIO guest moves between VMhosts sharing the IOhost while
// Netperf RR runs against its unchanged F address and a block write is in
// flight.
func migration(quick bool) Result {
	res := Result{
		ID:     "migration",
		Title:  "Live migration of a vRIO guest between VMhosts (§4.6 extension)",
		Header: []string{"phase", "RR transactions", "mean RTT [µs]"},
	}
	tb := cluster.Build(cluster.Spec{
		Model: core.ModelVRIO, VMHosts: 2, VMsPerHost: 1,
		WithBlock: true, Seed: 401,
	})
	g := tb.Guests[0]
	workload.InstallRRServer(g, tb.P.NetperfRRProcessCost)
	rr := workload.NewRR(tb.Stations[0], g.MAC(), 16)
	rr.Start()
	rr.Results.StartMeasuring()

	const phase = 40 * sim.Millisecond
	type snap struct {
		ops uint64
		sum float64
	}
	take := func() snap {
		return snap{rr.Results.Ops, rr.Results.Latency.Mean() * float64(rr.Results.Ops)}
	}
	var before, resumed snap
	blkOK := "no"
	t1 := phase
	t2 := t1 + tb.P.MigrationDowntime + 40*sim.Millisecond // + the RR loss-timer to fully restart
	end := t2 + phase
	tb.Eng.At(t1, func() {
		before = take()
		// A block write racing the blackout: §4.5 must carry it across.
		g.WriteBlock(10, make([]byte, 4096), func(err error) {
			if err == nil {
				blkOK = "yes"
			}
		})
		tb.MigrateVM(0, 1, nil)
	})
	tb.Eng.RunUntil(t2)
	resumed = take()
	tb.Eng.RunUntil(end)
	final := take()

	rate := func(ops uint64, window sim.Time) string {
		return fmt.Sprintf("%d (%.0f/s)", ops, float64(ops)/window.Seconds())
	}
	mean := func(s0, s1 snap) string {
		if s1.ops == s0.ops {
			return "-"
		}
		return f1((s1.sum - s0.sum) / float64(s1.ops-s0.ops) / 1000)
	}
	res.Rows = append(res.Rows,
		[]string{"before migration", rate(before.ops, t1), f1(before.sum / float64(before.ops) / 1000)},
		[]string{"blackout window", rate(resumed.ops-before.ops, t2-t1), mean(before, resumed)},
		[]string{"after migration", rate(final.ops-resumed.ops, end-t2), mean(resumed, final)},
	)
	res.Notes = append(res.Notes,
		fmt.Sprintf("blackout %v; in-flight block write survived via §4.5 retransmission: %s; retransmits=%d; F address unchanged",
			tb.P.MigrationDowntime, blkOK,
			tb.VRIOClients[0].Driver.Counters.Get("retransmits")))
	res.Notes = append(res.Notes,
		"the paper designed this switch (§4.6) but left it unimplemented; here it is exercised end to end")
	return res
}

// failover exercises §4.6's fault-tolerance design: every VMhost is cabled
// to two IOhosts, all guests start on IOhost 0, and when it crashes mid-run
// every guest is re-homed onto the pre-cabled IOhost 1. Net traffic resumes
// once IOhost 1 announces the F addresses; block requests ride across on
// §4.5 retransmission (the IOhosts share the distributed block backends).
func failover(quick bool) Result {
	res := Result{
		ID:     "failover",
		Title:  "IOhost failure with a secondary fallback (§4.6 extension)",
		Header: []string{"phase", "RR transactions", "served by"},
	}
	tb := cluster.Build(cluster.Spec{
		Model: core.ModelVRIO, VMHosts: 2, VMsPerHost: 2,
		WithBlock: true, NumIOhosts: 2, Seed: 421,
	})
	var rrs []*workload.RR
	for i, g := range tb.Guests {
		workload.InstallRRServer(g, tb.P.NetperfRRProcessCost)
		rr := workload.NewRR(tb.StationFor(i), g.MAC(), 16)
		rr.Start()
		rr.Results.StartMeasuring()
		rrs = append(rrs, rr)
	}
	ops := func() uint64 {
		var t uint64
		for _, rr := range rrs {
			t += rr.Results.Ops
		}
		return t
	}
	const phase = 40 * sim.Millisecond
	var atFailure uint64
	tb.Eng.At(phase, func() {
		atFailure = ops()
		tb.IOHyps[0].Fail()
		for vm := range tb.Guests {
			tb.RehomeClient(vm, 1)
		}
	})
	tb.Eng.RunUntil(2*phase + 40*sim.Millisecond) // + the RR loss timer
	afterBlackout := ops()
	tb.Eng.RunUntil(3*phase + 40*sim.Millisecond)
	final := ops()

	res.Rows = append(res.Rows,
		[]string{"before failure", fmt.Sprintf("%d", atFailure), "primary"},
		[]string{"failure+recovery", fmt.Sprintf("%d", afterBlackout-atFailure), "-"},
		[]string{"after failover", fmt.Sprintf("%d", final-afterBlackout), "secondary"},
	)
	res.Notes = append(res.Notes, fmt.Sprintf(
		"fallback served %d messages after the crash; paper §4.6: reachability via a secondary IOhost costs extra cables and ports (priced in Table 1's NIC rows)",
		tb.IOHyps[1].Counters.Get("msgs")))
	return res
}

// energyPlan quantifies §4.6's "Energy" paragraph: spinning sidecores burn
// full power even when idle; consolidating them (vRIO) and/or waiting with
// monitor/mwait reduces the burn, mwait at a small latency cost. One cell
// per configuration.
func energyPlan(quick bool) Plan {
	warm, dur := durations(quick, 5*sim.Millisecond, 80*sim.Millisecond)
	type cfg struct {
		name  string
		model core.ModelName
		side  int
		iosc  int
		mwait bool
	}
	cfgs := []cfg{
		{"elvis spinning", core.ModelElvis, 1, 0, false},
		{"elvis mwait", core.ModelElvis, 1, 0, true},
		{"vrio spinning", core.ModelVRIO, 0, 1, false},
		{"vrio mwait", core.ModelVRIO, 0, 1, true},
	}
	var cells []Cell
	for _, c := range cfgs {
		c := c
		cells = append(cells, func() any {
			p := params.Default()
			p.MwaitEnabled = c.mwait
			tb := cluster.Build(cluster.Spec{
				Model: c.model, VMHosts: 2, VMsPerHost: 5,
				SidecoresPerHost: c.side, IOhostSidecores: c.iosc,
				WithBlock: true, WithThreads: true, Params: &p, Seed: 411,
			})
			var wss []*workload.Webserver
			var cs []cluster.Measurable
			for i, g := range tb.Guests {
				ws := workload.NewWebserver(tb.Eng, g.Threads, g, workload.WebserverConfig{
					Threads: p.WebserverThreads, Files: p.WebserverFileCount,
					MeanFileSize: p.WebserverMeanFileSize, ChunkSize: p.FilebenchIOSize,
					OpCost: p.WebserverOpCost, OpenCost: p.WebserverOpenCost,
					LogWrite:        p.WebserverLogWrite,
					CapacitySectors: tb.BlockDevices[i].Store().Capacity(),
					SectorSize:      p.SectorSize, Seed: uint64(420 + i),
				})
				ws.Start()
				wss = append(wss, ws)
				cs = append(cs, &ws.Results)
			}
			tb.RunMeasured(warm, dur, cs...)
			pollW := p.PowerPoll
			if c.mwait {
				pollW = p.PowerMwait
			}
			var energyUnits float64
			for _, sc := range tb.Sidecores {
				energyUnits += sc.Energy(p.PowerBusy, pollW, p.PowerIdle)
			}
			// Normalize to cores of continuous full-power burn.
			energyUnits /= tb.Eng.Now().Seconds()
			var bytes uint64
			for _, ws := range wss {
				bytes += ws.Results.Bytes
			}
			mbps := float64(bytes*8) / dur.Seconds() / 1e6
			return []string{
				c.name, fmt.Sprintf("%d", len(tb.Sidecores)), f2(energyUnits), f1(mbps),
			}
		})
	}
	assemble := func(outs []any) Result {
		res := Result{
			ID:     "energy",
			Title:  "Sidecore energy under the Webserver load (§4.6 extension; core-seconds at full power per second)",
			Header: []string{"config", "sidecores", "energy [cores]", "Mbps"},
		}
		for _, o := range outs {
			res.Rows = append(res.Rows, o.([]string))
		}
		res.Notes = append(res.Notes,
			"the paper notes monitor/mwait as a latency-for-energy tradeoff outside its scope; consolidation (2 sidecores -> 1) already halves the spin burn, mwait cuts the rest")
		return res
	}
	return Plan{Cells: cells, Assemble: assemble}
}
