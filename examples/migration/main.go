// Live migration and IOhost failover (§4.6 extensions): move a running
// vRIO guest between VMhosts, then crash the primary IOhost and re-home
// every guest onto the pre-cabled secondary — both with traffic flowing.
//
//	go run ./examples/migration
package main

import (
	"fmt"

	"vrio"
	"vrio/internal/cluster"
	"vrio/internal/sim"
	"vrio/internal/workload"
)

func main() {
	demoMigration()
	demoFailover()
}

func demoMigration() {
	fmt.Println("== live migration: VMhost 0 -> VMhost 1, traffic running ==")
	tb := cluster.Build(cluster.Spec{
		Model: vrio.ModelVRIO, VMHosts: 2, VMsPerHost: 1, WithBlock: true, Seed: 11,
	})
	g := tb.Guests[0]
	workload.InstallRRServer(g, tb.P.NetperfRRProcessCost)
	rr := workload.NewRR(tb.Stations[0], g.MAC(), 16)
	rr.Start()
	rr.Results.StartMeasuring()

	snap := func() uint64 { return rr.Results.Ops }
	var before uint64
	tb.Eng.At(40*sim.Millisecond, func() {
		before = snap()
		fmt.Printf("  t=40ms   %5d transactions done; migrating (blackout %v)\n",
			before, tb.P.MigrationDowntime)
		tb.MigrateVM(0, 1, func() {
			fmt.Printf("  t=%v  resumed on VMhost 1 (same F address, same remote disk)\n",
				tb.Eng.Now())
		})
	})
	tb.Eng.RunUntil(200 * sim.Millisecond)
	fmt.Printf("  t=200ms  %5d transactions done (%d after the move)\n",
		snap(), snap()-before)
	fmt.Println()
}

func demoFailover() {
	fmt.Println("== IOhost failure with a secondary fallback ==")
	tb := cluster.Build(cluster.Spec{
		Model: vrio.ModelVRIO, VMHosts: 2, VMsPerHost: 2,
		WithBlock: true, NumIOhosts: 2, Seed: 12,
	})
	var rrs []*workload.RR
	for i, g := range tb.Guests {
		workload.InstallRRServer(g, tb.P.NetperfRRProcessCost)
		rr := workload.NewRR(tb.StationFor(i), g.MAC(), 16)
		rr.Start()
		rr.Results.StartMeasuring()
		rrs = append(rrs, rr)
	}
	total := func() uint64 {
		var t uint64
		for _, rr := range rrs {
			t += rr.Results.Ops
		}
		return t
	}
	var atCrash uint64
	tb.Eng.At(40*sim.Millisecond, func() {
		atCrash = total()
		fmt.Printf("  t=40ms   %5d transactions; primary IOhost crashes\n", atCrash)
		tb.IOHyps[0].Fail()
		for vm := range tb.Guests {
			tb.RehomeClient(vm, 1)
		}
	})
	tb.Eng.RunUntil(200 * sim.Millisecond)
	fmt.Printf("  t=200ms  %5d transactions (%d served after the crash)\n",
		total(), total()-atCrash)
	fmt.Printf("  fallback processed %d messages; gratuitous announcements: %d\n",
		tb.IOHyps[1].Counters.Get("msgs"),
		tb.IOHyps[1].Counters.Get("announcements"))
	fmt.Println()
	fmt.Println("Paper §4.6 sketches both mechanisms (and the cabling cost of the")
	fmt.Println("fallback); this repository implements and measures them.")
}
