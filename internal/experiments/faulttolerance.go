package experiments

import (
	"fmt"

	"vrio/internal/cluster"
	"vrio/internal/core"
	"vrio/internal/fault"
	"vrio/internal/rack"
	"vrio/internal/sim"
	"vrio/internal/workload"
)

func init() {
	register("faulttolerance", faultTolerancePlan)
}

// faultLossSweep is the channel frame-loss sweep (§4.5's validation regime:
// "artificially dropping I/O requests"): 0 to 5% loss, each point also
// corrupting a quarter of that rate in flight.
var faultLossSweep = []float64{0, 0.005, 0.01, 0.02, 0.05}

// fault options injected by cmd/vrio-experiments' -fault-profile /
// -fault-seed flags (see SetFaultOptions).
var (
	faultExtraProfile *fault.Profile
	faultSeedOverride uint64
)

// SetFaultOptions wires the CLI fault flags into the faulttolerance
// experiment: a non-nil profile adds a "custom" row to the sweep, and a
// non-zero seed replaces the default fault-draw seed in every cell. Call
// before running; the options are read at plan-build time.
func SetFaultOptions(prof *fault.Profile, seed uint64) {
	faultExtraProfile = prof
	faultSeedOverride = seed
}

func faultSeed() uint64 {
	if faultSeedOverride != 0 {
		return faultSeedOverride
	}
	return 901
}

// ftOut is one fault-tolerance cell's measurements: throughput plus the
// exactly-once ledger. Each cell stops issuing at the measure horizon and
// then drains past the full retransmission budget, so by the time the
// ledger is read every request has resolved — completed once, or errored
// once after MaxRetransmits. "Exactly once" is then literal: dup and lost
// must both be zero.
type ftOut struct {
	issued    uint64
	completed uint64
	dup       uint64 // completions beyond the first for any request
	lost      uint64 // requests that never completed even after the drain
	devErrors uint64
	retrans   uint64
	frLost    uint64 // frames the injector consumed
	frCorrupt uint64 // frames corrupted (all die at the FCS check)
	opsPerSec float64
}

// ftDrain runs past the worst-case §4.5 give-up time: with the default
// 10ms initial timeout doubling over 6 retransmits, a request issued just
// before the stop fires its device error ~1.27s later.
const ftDrain = 1300 * sim.Millisecond

// blkWriter is one guest's closed-loop block write load with per-request
// completion counting.
type blkWriter struct {
	tb    *cluster.Testbed
	guest int
	conc  int
	size  int
	stop  bool
	// counts[i] is how many times request i's callback ran; exactly-once
	// means every entry is 0 (in flight at stop) or 1.
	counts []int
	errs   uint64
	// buf is the zero payload every write sends. No front-end mutates a
	// write payload or holds it past the call, so one buffer serves all
	// in-flight writes.
	buf []byte
}

func (w *blkWriter) start() {
	for i := 0; i < w.conc; i++ {
		w.issue()
	}
}

func (w *blkWriter) issue() {
	if w.stop {
		return
	}
	id := len(w.counts)
	w.counts = append(w.counts, 0)
	g := w.tb.Guests[w.guest]
	if w.buf == nil {
		w.buf = make([]byte, w.size)
	}
	sector := uint64((id * 17) % 1024)
	g.WriteBlock(sector, w.buf, func(err error) {
		w.counts[id]++
		if err != nil {
			w.errs++
		}
		w.issue()
	})
}

// done counts requests whose callback has run at least once.
func (w *blkWriter) done() uint64 {
	var n uint64
	for _, c := range w.counts {
		if c >= 1 {
			n++
		}
	}
	return n
}

// tally folds the writer's post-drain ledger into out.
func (w *blkWriter) tally(out *ftOut) {
	for _, c := range w.counts {
		switch {
		case c == 0:
			out.lost++
		case c > 1:
			out.dup += uint64(c - 1)
		}
		if c >= 1 {
			out.completed++
		}
	}
	out.issued += uint64(len(w.counts))
	out.devErrors += w.errs
}

// runFaultCell drives closed-loop block writes over a faulted vRIO rack and
// returns the exactly-once ledger.
func runFaultCell(quick bool, prof *fault.Profile) ftOut {
	_, dur := durations(quick, 0, 50*sim.Millisecond)
	tb := cluster.Build(cluster.Spec{
		Model: core.ModelVRIO, VMHosts: 1, VMsPerHost: 4,
		WithBlock: true, Seed: 901, Fault: prof, FaultSeed: faultSeed(),
	})
	var writers []*blkWriter
	for i := range tb.Guests {
		w := &blkWriter{tb: tb, guest: i, conc: 8, size: 4096}
		w.start()
		writers = append(writers, w)
	}
	// Throughput is measured over [0, dur); the drain that follows only
	// settles the ledger.
	var doneAtStop uint64
	tb.Eng.At(dur, func() {
		for _, w := range writers {
			w.stop = true
			doneAtStop += w.done()
		}
	})
	tb.Eng.RunUntil(dur + ftDrain)

	var out ftOut
	for _, w := range writers {
		w.tally(&out)
	}
	for _, c := range tb.VRIOClients {
		out.retrans += c.Driver.Counters.Get("retransmits")
		// After the drain no request may still sit in a driver: the ledger's
		// lost column must mean lost, not late.
		if n := c.Driver.InFlightBlk(); n != 0 {
			out.lost += uint64(n)
		}
	}
	out.frLost = tb.Fault.Counters.Get("frames_dropped")
	out.frCorrupt = tb.Fault.Counters.Get("frames_corrupted")
	out.opsPerSec = float64(doneAtStop) / dur.Seconds()
	return out
}

// ftMQOut is a multi-queue fault cell's measurements: the ftOut ledger plus
// the IOhost-side per-queue in-flight tables, which must be empty after the
// drain (an entry left behind would mean a stall or crash leaked a request
// into — or out of — a queue table more than once).
type ftMQOut struct {
	ftOut
	tablesLeft int
	stalls     uint64
}

// tallyMQ folds an MQBlock ledger into out (the MQ analogue of
// blkWriter.tally).
func tallyMQ(m *workload.MQBlock, out *ftOut) {
	dup, lost := m.Ledger()
	out.dup += dup
	out.lost += lost
	out.issued += m.Issued()
	out.completed += m.Issued() - lost
	out.devErrors += m.Errs
}

// runFaultCellMQ is runFaultCell at QD>1/NQ>1 with injected worker stalls:
// closed-loop multi-queue writes over a lossy channel while every sidecore
// freezes twice mid-run. Exactly-once must survive the combination, and the
// per-queue in-flight tables must drain.
func runFaultCellMQ(quick bool, prof *fault.Profile, qd, nq int) ftMQOut {
	_, dur := durations(quick, 0, 50*sim.Millisecond)
	tb := cluster.Build(cluster.Spec{
		Model: core.ModelVRIO, VMHosts: 1, VMsPerHost: 4,
		WithBlock: true, BlkQueues: nq, IOhostSidecores: 2,
		Seed: 901, Fault: prof, FaultSeed: faultSeed(),
	})
	var loads []*workload.MQBlock
	for _, g := range tb.Guests {
		m := workload.NewMQBlock(tb.Eng, g, nq, qd, 4096)
		m.Start()
		loads = append(loads, m)
	}
	// Freeze every sidecore twice, early enough that the closed loops are
	// still flowing (under heavy loss they park on retransmit timers fast):
	// queued multi-queue work must wait behind the stall, and the per-queue
	// tables must still balance afterwards.
	tb.Eng.At(dur/8, func() { tb.IOHyps[0].StallWorkers(2 * sim.Millisecond) })
	tb.Eng.At(dur/3, func() { tb.IOHyps[0].StallWorkers(2 * sim.Millisecond) })
	var doneAtStop uint64
	tb.Eng.At(dur, func() {
		for _, m := range loads {
			m.Stop()
			doneAtStop += m.Done()
		}
	})
	tb.Eng.RunUntil(dur + ftDrain)

	var out ftMQOut
	for _, m := range loads {
		tallyMQ(m, &out.ftOut)
	}
	for _, c := range tb.VRIOClients {
		out.retrans += c.Driver.Counters.Get("retransmits")
		if n := c.Driver.InFlightBlk(); n != 0 {
			out.lost += uint64(n)
		}
	}
	for _, h := range tb.IOHyps {
		out.tablesLeft += h.BlkInFlight()
	}
	out.stalls = tb.IOHyps[0].Counters.Get("stalls")
	out.frLost = tb.Fault.Counters.Get("frames_dropped")
	out.frCorrupt = tb.Fault.Counters.Get("frames_corrupted")
	out.opsPerSec = float64(doneAtStop) / dur.Seconds()
	return out
}

// runFaultCrashCellMQ is the crash/re-home cell at QD>1/NQ>1: the dying
// IOhost strands multi-queue requests mid-flight; retransmission rides them
// onto the survivor, which re-registers the device with fresh queue tables.
// Both hosts' tables must balance to zero after the drain.
func runFaultCrashCellMQ(quick bool, qd, nq int) ftMQOut {
	_, dur := durations(quick, 0, 50*sim.Millisecond)
	tb := cluster.Build(cluster.Spec{
		Model: core.ModelVRIO, VMHosts: 2, VMsPerHost: 2,
		NumIOhosts: 2, Placement: rack.Placement(&rack.RoundRobin{}, 2),
		WithBlock: true, BlkQueues: nq, IOhostSidecores: 2, Seed: 902,
		Fault: fault.Lossy(0.01), FaultSeed: faultSeed(),
	})
	c := rack.New(tb, rack.Config{HeartbeatInterval: sim.Millisecond / 2, MissThreshold: 3})
	c.Start()

	var loads []*workload.MQBlock
	for _, g := range tb.Guests {
		m := workload.NewMQBlock(tb.Eng, g, nq, qd, 4096)
		m.Start()
		loads = append(loads, m)
	}
	tb.Eng.At(dur/2, func() { tb.IOHyps[1].Fail() })
	var doneAtStop uint64
	tb.Eng.At(dur, func() {
		for _, m := range loads {
			m.Stop()
			doneAtStop += m.Done()
		}
	})
	tb.Eng.RunUntil(dur + ftDrain)

	var out ftMQOut
	for _, m := range loads {
		tallyMQ(m, &out.ftOut)
	}
	for _, cl := range tb.VRIOClients {
		out.retrans += cl.Driver.Counters.Get("retransmits")
		if n := cl.Driver.InFlightBlk(); n != 0 {
			out.lost += uint64(n)
		}
	}
	for _, h := range tb.IOHyps {
		out.tablesLeft += h.BlkInFlight()
	}
	out.frLost = tb.Fault.Counters.Get("frames_dropped")
	out.frCorrupt = tb.Fault.Counters.Get("frames_corrupted")
	out.opsPerSec = float64(doneAtStop) / dur.Seconds()
	return out
}

// ftVolOut is the distributed-volume loss+crash cell: quorum writes over a
// lossy fabric while an IOhost replica dies mid-run. Exactly-once must hold
// through retransmission, quorum completion, and the rebuild engine's
// recovery traffic all at once.
type ftVolOut struct {
	ftOut
	rebuilt  uint64
	nacks    uint64 // replica write rejections (stale version or device error)
	gapNacks uint64 // writes refused because the replica missed an earlier version
	heals    uint64 // gap-nacked replicas re-silvered by the heal engine
	qlosses  uint64 // writes that failed with ErrQuorumLost
	healthy  bool
}

// runFaultVolCell drives closed-loop quorum writes (R=2, W=2, 3 IOhosts)
// over a 1%-lossy fabric, crashes IOhost 1 at the midpoint, and audits the
// ledger after the drain: every write completed exactly once and the volume
// is fully replicated again. W equals R so every committed write survives
// the crash on the other replica — the configuration under which "restored
// full replication" is actually guaranteeable. (At W=1 a crash of the lone
// acking replica loses the write's bytes outright; the gap-aware fence then
// honestly reports the extent degraded rather than serving stale data — the
// cluster tests pin that behavior directly.) W=R also leans on the heal
// engine: retransmission-reordered versions gap-fence a replica, and without
// the heal's full-extent re-silvering the write quorum would never recover.
func runFaultVolCell(quick bool) ftVolOut {
	_, dur := durations(quick, 0, 50*sim.Millisecond)
	tb := cluster.Build(cluster.Spec{
		Model: core.ModelVRIO, VMsPerHost: 2, NumIOhosts: 3,
		VolReplicas: 2, VolQuorum: 2, VolQueues: 2,
		Seed: 903, Fault: fault.Lossy(0.01), FaultSeed: faultSeed(),
	})
	c := rack.New(tb, rack.Config{HeartbeatInterval: sim.Millisecond / 2, MissThreshold: 3})
	c.Start()

	var writers []*volWriter
	for _, vol := range tb.Volumes {
		vw := &volWriter{eng: tb.Eng, vol: vol, conc: 8, size: 4096}
		vw.start()
		writers = append(writers, vw)
	}
	tb.Eng.At(dur/2, func() { tb.IOHyps[1].Fail() })
	var doneAtStop uint64
	tb.Eng.At(dur, func() {
		for _, vw := range writers {
			vw.stop = true
			doneAtStop += vw.done()
		}
	})
	// The vol cell drains longer than the others: a gap nack carried by one
	// of the final writes (loss can reorder versions via retransmission)
	// queues a heal, and that heal is a further read + write round trip,
	// each with its own worst-case retransmission budget. The volume must
	// report fully replicated with no rebuild/heal work still in flight.
	tb.Eng.RunUntil(dur + 4*ftDrain)

	var out ftVolOut
	out.healthy = true
	for _, vw := range writers {
		vw.tally(&out.ftOut)
	}
	for _, vol := range tb.Volumes {
		out.rebuilt += vol.Counters.Get("rebuild_extents")
		out.nacks += vol.Counters.Get("write_nacks")
		out.gapNacks += vol.Counters.Get("gap_nacks")
		out.heals += vol.Counters.Get("replica_heals")
		out.qlosses += vol.Counters.Get("quorum_losses")
		if vol.Rebuilding() || !vol.FullyReplicated() {
			out.healthy = false
		}
	}
	out.frLost = tb.Fault.Counters.Get("frames_dropped")
	out.frCorrupt = tb.Fault.Counters.Get("frames_corrupted")
	out.opsPerSec = float64(doneAtStop) / dur.Seconds()
	return out
}

// ftCrashOut is the lossy-crash cell: an IOhost dies mid-run while every
// channel loses frames; the rack controller must still detect the crash and
// re-home the victims, and the exactly-once ledger must stay clean.
type ftCrashOut struct {
	ftOut
	detectUs float64
	rehomes  uint64
}

func runFaultCrashCell(quick bool) ftCrashOut {
	_, dur := durations(quick, 0, 50*sim.Millisecond)
	tb := cluster.Build(cluster.Spec{
		Model: core.ModelVRIO, VMHosts: 2, VMsPerHost: 2,
		NumIOhosts: 2, Placement: rack.Placement(&rack.RoundRobin{}, 2),
		WithBlock: true, Seed: 902,
		Fault: fault.Lossy(0.01), FaultSeed: faultSeed(),
	})
	c := rack.New(tb, rack.Config{HeartbeatInterval: sim.Millisecond / 2, MissThreshold: 3})
	c.Start()

	var writers []*blkWriter
	for i := range tb.Guests {
		w := &blkWriter{tb: tb, guest: i, conc: 8, size: 4096}
		w.start()
		writers = append(writers, w)
	}
	failT := dur / 2
	tb.Eng.At(failT, func() { tb.IOHyps[1].Fail() })
	var doneAtStop uint64
	tb.Eng.At(dur, func() {
		for _, w := range writers {
			w.stop = true
			doneAtStop += w.done()
		}
	})
	// Drain past the retransmission budget: requests stranded by the crash
	// must ride retransmission onto the survivor and complete.
	tb.Eng.RunUntil(dur + ftDrain)

	var out ftCrashOut
	for _, w := range writers {
		w.tally(&out.ftOut)
	}
	for _, cl := range tb.VRIOClients {
		out.retrans += cl.Driver.Counters.Get("retransmits")
		if n := cl.Driver.InFlightBlk(); n != 0 {
			out.lost += uint64(n)
		}
	}
	out.frLost = tb.Fault.Counters.Get("frames_dropped")
	out.frCorrupt = tb.Fault.Counters.Get("frames_corrupted")
	out.opsPerSec = float64(doneAtStop) / dur.Seconds()
	out.rehomes = c.Counters.Get("rehomes")
	out.detectUs = -1
	for _, ev := range c.Events {
		if ev.Kind == rack.EventDetect {
			out.detectUs = float64(ev.T-failT) / 1000
			break
		}
	}
	return out
}

// faultTolerancePlan sweeps channel frame loss from 0 to 5% under a block
// write load and shows §4.5's claim: throughput degrades gracefully while
// every request completes exactly once. A final cell crashes an IOhost over
// an already-lossy fabric and shows detection and re-homing still work.
func faultTolerancePlan(quick bool) Plan {
	type sweepPt struct {
		name string
		prof *fault.Profile
	}
	var pts []sweepPt
	for _, rate := range faultLossSweep {
		pts = append(pts, sweepPt{fmt.Sprintf("%.1f%%", rate*100), fault.Lossy(rate)})
	}
	if faultExtraProfile != nil {
		pts = append(pts, sweepPt{"custom", faultExtraProfile})
	}
	var cells []Cell
	for _, pt := range pts {
		pt := pt
		cells = append(cells, func() any { return runFaultCell(quick, pt.prof) })
	}
	cells = append(cells, func() any { return runFaultCrashCell(quick) })
	// Multi-queue regime: the same exactly-once claims at QD=4/NQ=2, once
	// under loss + injected worker stalls, once under loss + IOhost crash.
	cells = append(cells, func() any { return runFaultCellMQ(quick, fault.Lossy(0.02), 4, 2) })
	cells = append(cells, func() any { return runFaultCrashCellMQ(quick, 4, 2) })
	// Distributed-volume regime: quorum writes under loss + replica crash +
	// rebuild (DESIGN.md §16).
	cells = append(cells, func() any { return runFaultVolCell(quick) })

	assemble := func(outs []any) Result {
		res := Result{
			ID:    "faulttolerance",
			Title: "Fault tolerance: block throughput and exactly-once completion vs channel loss (§4.5, §4.6)",
			Header: []string{"loss", "kops/s", "vs 0%", "retrans",
				"frames lost", "corrupt", "dup", "never-completed", "dev errors"},
		}
		next := cursor(outs)
		base := 0.0
		for _, pt := range pts {
			o := next().(ftOut)
			rel := "0%"
			if base == 0 {
				base = o.opsPerSec
			} else if base > 0 {
				rel = pct(o.opsPerSec/base - 1)
			}
			res.Rows = append(res.Rows, []string{
				pt.name, f1(o.opsPerSec / 1000), rel,
				fmt.Sprintf("%d", o.retrans),
				fmt.Sprintf("%d", o.frLost), fmt.Sprintf("%d", o.frCorrupt),
				fmt.Sprintf("%d", o.dup), fmt.Sprintf("%d", o.lost),
				fmt.Sprintf("%d", o.devErrors),
			})
		}
		cr := next().(ftCrashOut)
		res.Rows = append(res.Rows, []string{
			"1% + IOhost crash", f1(cr.opsPerSec / 1000), "-",
			fmt.Sprintf("%d", cr.retrans),
			fmt.Sprintf("%d", cr.frLost), fmt.Sprintf("%d", cr.frCorrupt),
			fmt.Sprintf("%d", cr.dup), fmt.Sprintf("%d", cr.lost),
			fmt.Sprintf("%d", cr.devErrors),
		})
		mqRow := func(name string, o ftMQOut) {
			res.Rows = append(res.Rows, []string{
				name, f1(o.opsPerSec / 1000), "-",
				fmt.Sprintf("%d", o.retrans),
				fmt.Sprintf("%d", o.frLost), fmt.Sprintf("%d", o.frCorrupt),
				fmt.Sprintf("%d", o.dup), fmt.Sprintf("%d", o.lost),
				fmt.Sprintf("%d", o.devErrors),
			})
		}
		mqStall := next().(ftMQOut)
		mqRow("2% QD4xNQ2 + stalls", mqStall)
		mqCrash := next().(ftMQOut)
		mqRow("1% QD4xNQ2 + crash", mqCrash)
		vc := next().(ftVolOut)
		res.Rows = append(res.Rows, []string{
			"1% vol R=2 + crash", f1(vc.opsPerSec / 1000), "-", "-",
			fmt.Sprintf("%d", vc.frLost), fmt.Sprintf("%d", vc.frCorrupt),
			fmt.Sprintf("%d", vc.dup), fmt.Sprintf("%d", vc.lost),
			fmt.Sprintf("%d", vc.devErrors),
		})
		volHealth := "restored full replication"
		if !vc.healthy {
			volHealth = "LEFT THE VOLUME DEGRADED"
		}
		res.Notes = append(res.Notes,
			fmt.Sprintf("volume cell runs R=2/W=2 quorum writes across 3 IOhosts; the crash cost %d extent replicas and the rebuild engine %s over the same lossy fabric. Its dev errors (%d, all clean quorum-loss errors) are writes the version fence refused whole — superseded by a newer concurrent version, or aimed at a replica that provably missed an earlier one (%d gap nacks, %d healed by full-extent copy) — so dup and never-completed stay 0.", vc.rebuilt, volHealth, vc.devErrors, vc.gapNacks, vc.heals),
		)
		res.Notes = append(res.Notes,
			"dup and never-completed must be 0 at every loss rate: §4.5 retransmission with stale filtering gives exactly-once completion, not at-least-once.",
			fmt.Sprintf("crash cell: heartbeats detected the dead IOhost in %.0fµs over a 1%%-lossy fabric and re-homed %d guests; stranded requests completed on the survivor via retransmission.", cr.detectUs, cr.rehomes),
			fmt.Sprintf("multi-queue cells run QD=4/NQ=2 per guest; per-queue in-flight tables drained to %d/%d entries (stall/crash cells) — both must be 0.", mqStall.tablesLeft, mqCrash.tablesLeft),
		)
		return res
	}
	return Plan{Cells: cells, Assemble: assemble}
}
