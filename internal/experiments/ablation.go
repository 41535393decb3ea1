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
	register("ablation-mtu", ablationMTUPlan)
	register("ablation-rxring", ablationRxRingPlan)
	register("ablation-retransmit", ablationRetransmitPlan)
	register("ablation-steering", single(ablationSteering))
}

// ablationMTUPlan sweeps the vRIO channel MTU, demonstrating §4.4's choice
// of 8100: 9000 breaks the 17-page zero-copy budget and pays copies; 1500
// multiplies fragment counts. One cell per MTU.
func ablationMTUPlan(quick bool) Plan {
	warm, dur := durations(quick, 4*sim.Millisecond, 50*sim.Millisecond)
	var cells []Cell
	for _, mtu := range []int{1500, 4000, 8100, 9000} {
		mtu := mtu
		cells = append(cells, func() any {
			p := params.Default()
			p.MTU = mtu
			tb := cluster.Build(cluster.Spec{Model: core.ModelVRIO, VMsPerHost: 4, Params: &p, Seed: 301})
			sts := streamRun(tb, warm, dur)
			return []string{
				fmt.Sprintf("%d", mtu),
				f2(aggGbps(sts, dur)),
				fmt.Sprintf("%d", tb.IOHyps[0].Counters.Get("copy_bytes")),
			}
		})
	}
	assemble := func(outs []any) Result {
		res := Result{
			ID:     "ablation-mtu",
			Title:  "vRIO channel MTU ablation (stream, 4 VMs)",
			Header: []string{"MTU", "Gbps", "copied bytes at IOhost"},
		}
		for _, o := range outs {
			res.Rows = append(res.Rows, o.([]string))
		}
		res.Notes = append(res.Notes,
			"§4.4: MTU 8100 keeps 64KiB messages within 17 pages (zero copy); 9000 forces copies; small MTUs cost fragments")
		return res
	}
	return Plan{Cells: cells, Assemble: assemble}
}

// ablationRxRingPlan reproduces §4.5's fix: a small IOhost rx ring drops
// frames under bursty stream traffic; the paper's move from 512 to 4096
// eliminated in-the-wild loss. One cell per ring size.
func ablationRxRingPlan(quick bool) Plan {
	warm, dur := durations(quick, 4*sim.Millisecond, 60*sim.Millisecond)
	var cells []Cell
	for _, ring := range []int{64, 128, 512, 4096} {
		ring := ring
		cells = append(cells, func() any {
			p := params.Default()
			p.RxRingSize = ring
			tb := cluster.Build(cluster.Spec{
				Model: core.ModelVRIO, VMsPerHost: 6, Params: &p, Seed: 311,
			})
			sts := streamRun(tb, warm, dur)
			return []string{
				fmt.Sprintf("%d", ring),
				fmt.Sprintf("%d", tb.IOHyps[0].ChannelDrops()),
				f2(aggGbps(sts, dur)),
			}
		})
	}
	assemble := func(outs []any) Result {
		res := Result{
			ID:     "ablation-rxring",
			Title:  "IOhost rx ring size under bursty stream load (vRIO, 6 VMs)",
			Header: []string{"ring", "frames dropped", "Gbps"},
		}
		for _, o := range outs {
			res.Rows = append(res.Rows, o.([]string))
		}
		res.Notes = append(res.Notes,
			"§4.5: the paper saw in-the-wild loss with a 512 ring; 4096 eliminated it")
		return res
	}
	return Plan{Cells: cells, Assemble: assemble}
}

// ablationRetransmitPlan sweeps the initial block retransmission timeout
// under a tiny rx ring shared with bursty stream traffic, so block requests
// genuinely get lost and the §4.5 machinery decides recovery speed. One
// cell per timeout.
func ablationRetransmitPlan(quick bool) Plan {
	warm, dur := durations(quick, 4*sim.Millisecond, 80*sim.Millisecond)
	var cells []Cell
	for _, to := range []sim.Time{2 * sim.Millisecond, 10 * sim.Millisecond, 80 * sim.Millisecond} {
		to := to
		cells = append(cells, func() any {
			p := params.Default()
			p.RetransmitTimeout = to
			p.RxRingSize = 32 // force loss when streams burst
			tb := cluster.Build(cluster.Spec{
				Model: core.ModelVRIO, VMsPerHost: 8,
				WithBlock: true, WithThreads: true, Params: &p, Seed: 321,
			})
			// Guests 0-5 stream (the burst source); guests 6-7 run block I/O.
			var cs []cluster.Measurable
			for i := 0; i < 6; i++ {
				st := workload.NewStream(tb.Guests[i], tb.StationFor(i), p.StreamChunk, p.StreamPerChunkCost, 16)
				st.Start()
				cs = append(cs, &st.Results)
			}
			var fbs []*workload.Filebench
			for i := 6; i < 8; i++ {
				fb := workload.NewFilebench(tb.Eng, tb.Guests[i].Threads, tb.Guests[i], workload.FilebenchConfig{
					Readers: 2, Writers: 2,
					IOSize:          p.FilebenchIOSize,
					OpCost:          p.FilebenchOpCost,
					CapacitySectors: tb.BlockDevices[i].Store().Capacity(),
					SectorSize:      p.SectorSize,
					Seed:            uint64(340 + i),
				})
				fb.Start()
				fbs = append(fbs, fb)
				cs = append(cs, &fb.Results)
			}
			tb.RunMeasured(warm, dur, cs...)
			var retr, errs uint64
			for _, cl := range tb.VRIOClients {
				retr += cl.Driver.Counters.Get("retransmits")
				errs += cl.Driver.Counters.Get("device_errors")
			}
			var ops float64
			for _, fb := range fbs {
				ops += fb.Results.OpsPerSec(dur)
			}
			return []string{
				to.String(),
				fmt.Sprintf("%d", retr),
				fmt.Sprintf("%d", errs),
				fmt.Sprintf("%.0f", ops),
			}
		})
	}
	assemble := func(outs []any) Result {
		res := Result{
			ID:     "ablation-retransmit",
			Title:  "Block retransmission initial timeout under induced loss (vRIO)",
			Header: []string{"timeout", "retransmits", "device errors", "block ops/sec"},
		}
		for _, o := range outs {
			res.Rows = append(res.Rows, o.([]string))
		}
		res.Notes = append(res.Notes,
			"shorter timeouts recover lost block requests faster; the paper uses 10ms doubling")
		return res
	}
	return Plan{Cells: cells, Assemble: assemble}
}

// ablationSteering compares the §4.1 per-device steering policy's ordering
// guarantee cost against raw least-loaded dispatch by measuring worker
// balance under a many-device block load.
func ablationSteering(quick bool) Result {
	warm, dur := durations(quick, 4*sim.Millisecond, 40*sim.Millisecond)
	res := Result{
		ID:     "ablation-steering",
		Title:  "IOhost worker balance under steering (vRIO, 8 VMs, 4 sidecores)",
		Header: []string{"metric", "value"},
	}
	p := params.Default()
	tb := cluster.Build(cluster.Spec{
		Model: core.ModelVRIO, VMsPerHost: 8, IOhostSidecores: 4,
		WithBlock: true, WithThreads: true, Params: &p, Seed: 331,
	})
	ops := filebenchOn(tb, 2, 2, warm, dur)
	var minP, maxP uint64
	for i, w := range tb.IOHyps[0].Workers() {
		n := w.Processed
		if i == 0 || n < minP {
			minP = n
		}
		if n > maxP {
			maxP = n
		}
	}
	imbalance := 0.0
	if maxP > 0 {
		imbalance = 1 - float64(minP)/float64(maxP)
	}
	res.Rows = append(res.Rows,
		[]string{"aggregate ops/sec", fmt.Sprintf("%.0f", ops)},
		[]string{"busiest worker msgs", fmt.Sprintf("%d", maxP)},
		[]string{"idlest worker msgs", fmt.Sprintf("%d", minP)},
		[]string{"imbalance", fmt.Sprintf("%.0f%%", imbalance*100)},
	)
	res.Notes = append(res.Notes,
		"steering holds a device on one worker only while it has pending work, so load still spreads across workers")
	return res
}
