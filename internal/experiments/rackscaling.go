package experiments

import (
	"fmt"
	"math"

	"vrio/internal/cluster"
	"vrio/internal/core"
	"vrio/internal/rack"
	"vrio/internal/sim"
	"vrio/internal/workload"
)

func init() {
	register("rackscaling", rackScalingPlan)
}

// rackOut is one rack-scaling cell's measurements.
type rackOut struct {
	kopsPerSec float64
	ratioW1    string // max/min IOhost busy-delta, first measured half
	ratioW2    string // same, second half (post-rebalance / post-failure)
	moves      uint64
	rehomes    uint64
	detectUs   string // crash-to-detection latency, "-" without a crash
}

// rackCellCfg shapes one cell of the rack-scaling experiment.
type rackCellCfg struct {
	name      string
	numIO     int
	policy    func() rack.Policy
	rebalance bool
	crash     bool // kill the last IOhost at mid-run, detection via heartbeats only
}

var rackCells = []rackCellCfg{
	{"static, no controller", 2, func() rack.Policy { return rack.Static(0) }, false, false},
	{"static + rebalancer", 2, func() rack.Policy { return rack.Static(0) }, true, false},
	{"round-robin placement", 2, func() rack.Policy { return &rack.RoundRobin{} }, false, false},
	{"static + rebalancer", 4, func() rack.Policy { return rack.Static(0) }, true, false},
	{"round-robin + IOhost crash", 2, func() rack.Policy { return &rack.RoundRobin{} }, false, true},
}

// rackScalingPlan is the Figure 16b-style rack-scaling study run through the
// internal/rack control plane: an all-on-one placement is maximally
// imbalanced across IOhosts, and the controller heals it by migrating hot
// devices; a crashed IOhost is detected by heartbeats and its devices
// re-home onto the survivors with no manual failover call.
func rackScalingPlan(quick bool) Plan {
	var cells []Cell
	for _, cfg := range rackCells {
		cfg := cfg
		cells = append(cells, func() any { return runRackCell(quick, cfg) })
	}
	return Plan{
		Cells: cells,
		Assemble: func(out []any) Result {
			next := cursor(out)
			res := Result{
				ID:    "rackscaling",
				Title: "Rack scaling: placement, rebalancing, and failure recovery across IOhosts (cf. Fig. 16b, §4.6)",
				Header: []string{"configuration", "IOhosts", "kops/s",
					"busy max/min W1", "busy max/min W2", "moves", "rehomes", "detect [µs]"},
			}
			for _, cfg := range rackCells {
				o := next().(rackOut)
				res.Rows = append(res.Rows, []string{
					cfg.name, fmt.Sprintf("%d", cfg.numIO), f1(o.kopsPerSec),
					o.ratioW1, o.ratioW2,
					fmt.Sprintf("%d", o.moves), fmt.Sprintf("%d", o.rehomes), o.detectUs,
				})
			}
			res.Notes = append(res.Notes,
				"All guests on one IOhost (static) leaves the others idle: busy max/min is huge in both windows without a controller.",
				"The rebalancer reads per-IOhost busy_ns gauges and migrates the hottest device with hysteresis: W2 narrows toward 1.",
				"The crash cell kills an IOhost mid-run; heartbeats detect it within the miss window and its devices re-home onto survivors automatically.",
			)
			return res
		},
	}
}

// runRackCell builds one multi-IOhost testbed, runs RR on every guest, and
// measures per-IOhost busy-time imbalance over two half-windows.
func runRackCell(quick bool, cfg rackCellCfg) rackOut {
	warm, dur := durations(quick, 4*sim.Millisecond, 60*sim.Millisecond)
	tb := cluster.Build(cluster.Spec{
		Model: core.ModelVRIO, VMHosts: 2, VMsPerHost: 4,
		NumIOhosts: cfg.numIO, Placement: rack.Placement(cfg.policy(), cfg.numIO),
		StationPerVM: true, Seed: 811,
	})
	ctlCfg := rack.Config{HeartbeatInterval: sim.Millisecond / 2, MissThreshold: 3}
	if cfg.rebalance {
		ctlCfg.RebalanceInterval = dur / 30
	}
	c := rack.New(tb, ctlCfg)
	c.Start()

	// Busy-time snapshots bounding the two measurement half-windows. The
	// last lands 1ns before RunMeasured stops the engine.
	snaps := make([][]float64, 3)
	for k, ts := range []sim.Time{warm, warm + dur/2, warm + dur - 1} {
		k, ts := k, ts
		tb.Eng.At(ts, func() {
			s := make([]float64, cfg.numIO)
			for i := range tb.IOHyps {
				if c.Down(i) {
					s[i] = math.NaN() // dead: excluded from the ratio
					continue
				}
				s[i] = float64(tb.IOHyps[i].BusyTime())
			}
			snaps[k] = s
		})
	}
	var failT sim.Time
	if cfg.crash {
		failT = warm + dur/2
		tb.Eng.At(failT, func() { tb.IOHyps[cfg.numIO-1].Fail() })
	}

	var rrs []*workload.RR
	var collectors []cluster.Measurable
	for i, g := range tb.Guests {
		workload.InstallRRServer(g, tb.P.NetperfRRProcessCost)
		rr := workload.NewRR(tb.StationFor(i), g.MAC(), 16)
		rr.Start()
		rrs = append(rrs, rr)
		collectors = append(collectors, &rr.Results)
	}
	tb.RunMeasured(warm, dur, collectors...)

	out := rackOut{
		kopsPerSec: float64(totalOps(rrs)) / (float64(dur) / float64(sim.Second)) / 1000,
		ratioW1:    busyRatio(snaps[0], snaps[1]),
		ratioW2:    busyRatio(snaps[1], snaps[2]),
		moves:      c.Counters.Get("rebalances"),
		rehomes:    c.Counters.Get("rehomes"),
		detectUs:   "-",
	}
	for _, ev := range c.Events {
		if ev.Kind == rack.EventDetect {
			out.detectUs = f1(float64(ev.T-failT) / 1000)
			break
		}
	}
	return out
}

// busyRatio is the max/min per-IOhost busy-time delta between two
// snapshots, skipping IOhosts dead in either (NaN). ">1000" stands in for
// an effectively idle IOhost in the denominator.
func busyRatio(a, b []float64) string {
	min, max := math.Inf(1), 0.0
	for i := range a {
		if math.IsNaN(a[i]) || math.IsNaN(b[i]) {
			continue
		}
		d := b[i] - a[i]
		if d < min {
			min = d
		}
		if d > max {
			max = d
		}
	}
	if min <= 0 || max/min > 1000 {
		return ">1000"
	}
	return f1(max / min)
}
