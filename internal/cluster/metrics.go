package cluster

import (
	"fmt"

	"vrio/internal/cpu"
	"vrio/internal/iohyp"
	"vrio/internal/link"
	"vrio/internal/sim"
	"vrio/internal/trace"
)

// vmCounterNames are the per-VM virtualization-event counters every model
// maintains (the Table 3 columns).
var vmCounterNames = []string{"exits", "guest_irqs", "irq_injections", "host_irqs"}

// iohypCounterNames are the I/O hypervisor counters worth sampling.
var iohypCounterNames = []string{
	"msgs", "net_fwd_local", "net_fwd_uplink", "net_in",
	"blk_reqs", "iohost_irqs", "interpose_drops", "copy_bytes",
}

// registerMetrics populates the testbed's registry from the components Build
// just assembled. Everything is registered as a gauge (or an observed
// histogram) over state the components already maintain, so instrumentation
// adds no work to any hot path — cost is paid only when a snapshot reads the
// closures.
func (tb *Testbed) registerMetrics() {
	r := tb.Metrics
	for i, g := range tb.Guests {
		comp := fmt.Sprintf("vm%d", i)
		vm := g.VM
		for _, name := range vmCounterNames {
			r.Gauge(comp, name, func() float64 { return float64(vm.Counters.Get(name)) })
		}
	}
	for i, sc := range tb.Sidecores {
		comp := fmt.Sprintf("sidecore%d", i)
		r.Gauge(comp, "busy_ns", func() float64 { return float64(sc.BusyTime()) })
		r.Gauge(comp, "poll_ns", func() float64 { return float64(sc.Accounted(cpu.KindPoll)) })
		r.ObserveHistogram(comp, "wait_ns", &sc.Wait)
	}
	r.Gauge("switch", "forwarded", func() float64 { return float64(tb.Switch.Forwarded) })
	r.Gauge("switch", "flooded", func() float64 { return float64(tb.Switch.Flooded) })
	for reason := link.DropReason(0); reason < link.NumDropReasons; reason++ {
		reason := reason
		r.Gauge("switch", "drops_"+reason.String(),
			func() float64 { return float64(tb.Switch.Drops.Get(reason)) })
	}
	for i, h := range tb.IOHyps {
		registerIOhyp(r, IOhypComponent(i), h)
	}
	for i, dev := range tb.BlockDevices {
		comp := fmt.Sprintf("blkdev%d", i)
		r.Gauge(comp, "served", func() float64 { return float64(dev.Served) })
		r.Gauge(comp, "queue", func() float64 { return float64(dev.QueueLen()) })
		r.Gauge(comp, "inflight", func() float64 { return float64(dev.InFlight()) })
	}
	for i, s := range tb.BlockSchedulers {
		comp := fmt.Sprintf("blkdev%d", i)
		r.Gauge(comp, "deferred", func() float64 { return float64(s.Deferred) })
	}
	for i, c := range tb.VRIOClients {
		comp := fmt.Sprintf("vm%d-vf", i)
		// Read through the client: migration swaps the port, and the gauge
		// should follow the VF the client currently transmits on.
		r.Gauge(comp, "rx_frames", func() float64 { return float64(c.Port.VF().RxFrames) })
		r.Gauge(comp, "tx_frames", func() float64 { return float64(c.Port.VF().TxFrames) })
		r.Gauge(comp, "drops", func() float64 { return float64(c.Port.VF().Drops) })
	}
	if tb.Spec.BlkQueues > 1 {
		for i, c := range tb.VRIOClients {
			i, c := i, c
			comp := fmt.Sprintf("vm%d-blkq", i)
			for q := 0; q < tb.Spec.BlkQueues; q++ {
				q := q
				// Read through the serving IOhost: a re-home moves the
				// registration (and its queue tables) to the survivor.
				r.Gauge(comp, fmt.Sprintf("q%d_depth", q), func() float64 {
					hyp := tb.IOHyps[tb.ClientIOhost[i]]
					return float64(hyp.BlkQueueDepth(c.TransportMAC(), c.BlkDeviceID(), q))
				})
				r.Gauge(comp, fmt.Sprintf("q%d_worker", q), func() float64 {
					hyp := tb.IOHyps[tb.ClientIOhost[i]]
					return float64(hyp.BlkQueueWorker(c.TransportMAC(), c.BlkDeviceID(), q))
				})
			}
		}
	}
	if pl := tb.Fault; pl.Active() {
		for _, name := range faultCounterNames {
			name := name
			r.Gauge("fault", name, func() float64 { return float64(pl.Counters.Get(name)) })
		}
		r.Gauge("fault", "wire_delivered", func() float64 { return float64(pl.WireDelivered()) })
		r.Gauge("fault", "wire_offered", func() float64 { return float64(pl.WireOffered()) })
		for reason := link.DropReason(0); reason < link.NumDropReasons; reason++ {
			reason := reason
			r.Gauge("fault", "wire_drops_"+reason.String(),
				func() float64 { return float64(pl.WireDrops(reason)) })
		}
	}
}

// faultCounterNames are the fault plan's injection tallies, exported under
// the "fault" component whenever Build armed any injection site.
var faultCounterNames = []string{
	"frames_dropped", "frames_corrupted", "frames_jittered",
	"frames_reordered", "flaps", "stalls", "ring_squeezes",
}

// IOhypComponent names IOhost i's metrics component: "iohyp" for the first
// (the name experiments already read), then "iohyp2", "iohyp3", ...,
// matching the iohost2... host naming. The rack controller reads per-IOhost
// busy time through these components.
func IOhypComponent(i int) string {
	if i == 0 {
		return "iohyp"
	}
	return fmt.Sprintf("iohyp%d", i+1)
}

// registerIOhyp publishes one I/O hypervisor's counters, channel drops, and
// sidecore busy time under comp.
func registerIOhyp(r *trace.Registry, comp string, h *iohyp.IOHypervisor) {
	for _, name := range iohypCounterNames {
		r.Gauge(comp, name, func() float64 { return float64(h.Counters.Get(name)) })
	}
	r.Gauge(comp, "channel_drops", func() float64 { return float64(h.ChannelDrops()) })
	r.Gauge(comp, "busy_ns", func() float64 { return float64(h.BusyTime()) })
	r.Gauge(comp, "utilization", h.Utilization)
}

// StartMetricsSampling snapshots every registered metric each interval of
// sim time via the engine's ticker and returns the accumulating series.
// Sampling is driven by the same deterministic event loop as the workload,
// so the series is byte-identical across same-seed runs.
func (tb *Testbed) StartMetricsSampling(interval sim.Time) *trace.Timeseries {
	ts := tb.Metrics.NewTimeseries()
	tb.Eng.Ticker(interval, func() { ts.Sample(tb.Eng.Now()) })
	return ts
}
