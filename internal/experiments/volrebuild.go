package experiments

import (
	"fmt"

	"vrio/internal/cluster"
	"vrio/internal/core"
	"vrio/internal/rack"
	"vrio/internal/sim"
	"vrio/internal/stats"
)

// volrebuild measures the distributed-volume layer (DESIGN.md §16): quorum
// write latency as the replication factor grows, and recovery under load —
// an IOhost crash mid-run on a striped R=2 volume, heartbeat-detected, with
// the rebuild engine re-replicating lost extents while the foreground write
// load keeps flowing. Every cell audits the exactly-once ledger.
func init() { register("volrebuild", volRebuildPlan) }

// volume options injected by cmd/vrio-experiments' -vol-replicas /
// -vol-quorum flags (see SetVolOptions).
var (
	volReplicasOverride int
	volQuorumOverride   int
)

// SetVolOptions overrides the recovery cells' replication factor and write
// quorum (zero keeps the defaults R=2, W=1). Call before running; the
// options are read at plan-build time.
func SetVolOptions(replicas, quorum int) {
	volReplicasOverride = replicas
	volQuorumOverride = quorum
}

func volRecoveryRW() (r, w int) {
	r, w = 2, 1
	if volReplicasOverride > 0 {
		r = volReplicasOverride
	}
	if volQuorumOverride > 0 {
		w = volQuorumOverride
	}
	return r, w
}

// volWriter is one volume's closed-loop quorum write load with the same
// per-request completion ledger as blkWriter, plus per-write latency
// recording into a swappable histogram (the recovery cell points it at a
// fresh histogram when the crash hits, splitting pre- and post-crash
// latency).
type volWriter struct {
	eng  *sim.Engine
	vol  *core.VolumeRouter
	conc int
	size int
	stop bool
	// counts[i] is how many times request i's callback ran; exactly-once
	// means every entry is 0 (in flight at stop) or 1.
	counts  []int
	issueAt []sim.Time
	hist    *stats.Histogram
	errs    uint64
	// buf is the zero payload every write sends; Write copies it into the
	// request, so one buffer serves all in-flight writes.
	buf []byte
}

func (w *volWriter) start() {
	for i := 0; i < w.conc; i++ {
		w.issue()
	}
}

func (w *volWriter) issue() {
	if w.stop {
		return
	}
	id := len(w.counts)
	w.counts = append(w.counts, 0)
	w.issueAt = append(w.issueAt, w.eng.Now())
	if w.buf == nil {
		w.buf = make([]byte, w.size)
	}
	sectors := uint64(w.size) / 512
	cap := w.vol.Spec().CapacitySectors
	sector := (uint64(id) * 17 % (cap / sectors)) * sectors
	w.vol.Write(sector, w.buf, func(err error) {
		w.counts[id]++
		if err != nil {
			w.errs++
		}
		if w.hist != nil {
			w.hist.Record(int64((w.eng.Now() - w.issueAt[id]) / sim.Microsecond))
		}
		w.issue()
	})
}

// done counts requests whose callback has run at least once.
func (w *volWriter) done() uint64 {
	var n uint64
	for _, c := range w.counts {
		if c >= 1 {
			n++
		}
	}
	return n
}

// tally folds the writer's post-drain ledger into out.
func (w *volWriter) tally(out *ftOut) {
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

// volQOut is one quorum-latency cell: closed-loop quorum writes at a given
// replication factor on a healthy volume.
type volQOut struct {
	r, w            int
	kops            float64
	p50, p99        float64 // µs
	dup, lost, errs uint64
}

// runVolQuorumCell measures quorum write latency and throughput at
// replication factor r (write quorum = majority) across 3 IOhosts.
func runVolQuorumCell(quick bool, r int) volQOut {
	_, dur := durations(quick, 0, 50*sim.Millisecond)
	w := r/2 + 1
	tb := cluster.Build(cluster.Spec{
		Model: core.ModelVRIO, VMsPerHost: 2, NumIOhosts: 3,
		VolReplicas: r, VolQuorum: w, VolQueues: 2,
		NoJitter: true, Seed: 921,
	})
	hist := &stats.Histogram{}
	var writers []*volWriter
	for _, vol := range tb.Volumes {
		vw := &volWriter{eng: tb.Eng, vol: vol, conc: 8, size: 4096, hist: hist}
		vw.start()
		writers = append(writers, vw)
	}
	var doneAtStop uint64
	tb.Eng.At(dur, func() {
		for _, vw := range writers {
			vw.stop = true
			doneAtStop += vw.done()
		}
	})
	tb.Eng.RunUntil(dur)
	tb.Eng.Run() // drain to empty: closed loops stopped, no background tickers

	out := volQOut{r: r, w: w}
	out.kops = float64(doneAtStop) / dur.Seconds() / 1e3
	var ft ftOut
	for _, vw := range writers {
		vw.tally(&ft)
	}
	out.dup, out.lost, out.errs = ft.dup, ft.lost, ft.devErrors
	out.p50 = float64(hist.Percentile(50))
	out.p99 = float64(hist.Percentile(99))
	return out
}

// volRebuildOut is one recovery-under-load cell: crash, heartbeat detection,
// rebuild while the write load keeps flowing.
type volRebuildOut struct {
	conc             int // rebuild concurrency
	kops             float64
	preP99, postP99  float64 // µs, before/after the crash
	dup, lost, errs  uint64
	rebuilt          uint64
	retargets, redos uint64
	rebuildMiB       float64
	rebuildMBps      float64
	detectUs         float64
	rebuildMs        float64 // detection → fully replicated
	healthy          bool
}

// runVolRebuildCell crashes IOhost 1 under a striped R-replicated volume at
// the midpoint of a closed-loop write run. The rack controller's heartbeat
// detector declares the death, which triggers the rebuild engine; the cell
// reports foreground p99 before and after the crash, the rebuild's copied
// bytes and bandwidth, and the exactly-once ledger.
func runVolRebuildCell(quick bool, rebuildConc int) volRebuildOut {
	_, dur := durations(quick, 0, 50*sim.Millisecond)
	r, wq := volRecoveryRW()
	tb := cluster.Build(cluster.Spec{
		Model: core.ModelVRIO, VMsPerHost: 2, NumIOhosts: 3,
		VolReplicas: r, VolQuorum: wq, VolQueues: 2,
		NoJitter: true, Seed: 922,
	})
	for _, vol := range tb.Volumes {
		vol.RebuildConcurrency = rebuildConc
	}
	ctrl := rack.New(tb, rack.Config{HeartbeatInterval: sim.Millisecond / 2, MissThreshold: 3})
	ctrl.Start()

	pre := &stats.Histogram{}
	post := &stats.Histogram{}
	var writers []*volWriter
	for _, vol := range tb.Volumes {
		vw := &volWriter{eng: tb.Eng, vol: vol, conc: 8, size: 4096, hist: pre}
		vw.start()
		writers = append(writers, vw)
	}

	failT := dur / 2
	tb.Eng.At(failT, func() {
		tb.IOHyps[1].Fail()
		for _, vw := range writers {
			vw.hist = post
		}
	})

	// Sample for the rebuild-complete instant: first time every volume is
	// fully replicated again after the crash.
	var fullAt sim.Time = -1
	var sample func()
	sample = func() {
		if tb.Eng.Now() > dur+ftDrain {
			return
		}
		healthy := true
		for _, vol := range tb.Volumes {
			// Before the heartbeat detector fires the router still believes
			// every host is alive, making FullyReplicated trivially true —
			// only samples after the death was observed count.
			if vol.Counters.Get("host_deaths") == 0 ||
				vol.Rebuilding() || !vol.FullyReplicated() {
				healthy = false
				break
			}
		}
		if healthy {
			fullAt = tb.Eng.Now()
			return
		}
		tb.Eng.After(20*sim.Microsecond, sample)
	}
	tb.Eng.At(failT, sample)

	var doneAtStop uint64
	tb.Eng.At(dur, func() {
		for _, vw := range writers {
			vw.stop = true
			doneAtStop += vw.done()
		}
	})
	// The heartbeat ticker never stops, so run to a deadline: the drain past
	// the retransmission budget settles every ledger entry.
	tb.Eng.RunUntil(dur + ftDrain)

	out := volRebuildOut{conc: rebuildConc}
	out.kops = float64(doneAtStop) / dur.Seconds() / 1e3
	var ft ftOut
	for _, vw := range writers {
		vw.tally(&ft)
	}
	out.dup, out.lost, out.errs = ft.dup, ft.lost, ft.devErrors
	out.preP99 = float64(pre.Percentile(99))
	out.postP99 = float64(post.Percentile(99))

	var bytes uint64
	out.healthy = true
	for _, vol := range tb.Volumes {
		bytes += vol.RebuildBytes
		out.rebuilt += vol.Counters.Get("rebuild_extents")
		out.retargets += vol.Counters.Get("rebuild_retargets")
		out.redos += vol.Counters.Get("rebuild_redo")
		if vol.Rebuilding() || !vol.FullyReplicated() {
			out.healthy = false
		}
	}
	out.rebuildMiB = float64(bytes) / (1 << 20)

	out.detectUs = -1
	for _, ev := range ctrl.Events {
		if ev.Kind == rack.EventDetect {
			out.detectUs = float64(ev.T-failT) / 1000
			break
		}
	}
	if fullAt >= 0 && out.detectUs >= 0 {
		rebuildDur := fullAt - failT - sim.Time(out.detectUs*1000)
		if rebuildDur > 0 {
			out.rebuildMs = float64(rebuildDur) / float64(sim.Millisecond)
			out.rebuildMBps = float64(bytes) / 1e6 / (float64(rebuildDur) / float64(sim.Second))
		}
	}
	return out
}

// volRebuildConcs is the rebuild-concurrency sweep of the recovery cells.
var volRebuildConcs = []int{1, 2, 4}

func volRebuildPlan(quick bool) Plan {
	quorumRs := []int{1, 2, 3}
	var cells []Cell
	for _, r := range quorumRs {
		r := r
		cells = append(cells, func() any { return runVolQuorumCell(quick, r) })
	}
	for _, c := range volRebuildConcs {
		c := c
		cells = append(cells, func() any { return runVolRebuildCell(quick, c) })
	}

	assemble := func(outs []any) Result {
		recR, recW := volRecoveryRW()
		res := Result{
			ID: "volrebuild",
			Title: "Distributed volumes: quorum write latency vs replication, " +
				"and rebuild under load after an IOhost crash (DESIGN.md §16)",
			Header: []string{"cell", "kops/s", "p50µs", "p99µs", "dup",
				"never-completed", "errs", "rebuilt", "MB/s", "healthy"},
		}
		next := cursor(outs)
		for range quorumRs {
			o := next().(volQOut)
			res.Rows = append(res.Rows, []string{
				fmt.Sprintf("R=%d W=%d", o.r, o.w), f1(o.kops),
				f1(o.p50), f1(o.p99),
				fmt.Sprintf("%d", o.dup), fmt.Sprintf("%d", o.lost),
				fmt.Sprintf("%d", o.errs), "-", "-", "-",
			})
		}
		var last volRebuildOut
		for range volRebuildConcs {
			o := next().(volRebuildOut)
			last = o
			healthy := "yes"
			if !o.healthy {
				healthy = "NO"
			}
			res.Rows = append(res.Rows, []string{
				fmt.Sprintf("crash R=%d W=%d rbc=%d", recR, recW, o.conc), f1(o.kops),
				"-", fmt.Sprintf("%.1f/%.1f", o.preP99, o.postP99),
				fmt.Sprintf("%d", o.dup), fmt.Sprintf("%d", o.lost),
				fmt.Sprintf("%d", o.errs), fmt.Sprintf("%d", o.rebuilt),
				f1(o.rebuildMBps), healthy,
			})
		}
		res.Notes = append(res.Notes,
			"quorum cells: closed-loop 4 KiB quorum writes, 2 guests x QD8, majority write quorum; p50/p99 is the full guest-observed quorum round trip.",
			"crash cells: IOhost 1 dies at the midpoint; heartbeats detect it and the rebuild engine re-replicates every lost extent onto survivors while the load runs. p99µs shows pre/post-crash foreground latency; rbc is the rebuild copy concurrency.",
			fmt.Sprintf("recovery cells detected the crash in %.0fµs and restored full replication in %.2fms (rbc=%d); dup and never-completed must be 0 everywhere.",
				last.detectUs, last.rebuildMs, last.conc),
		)
		return res
	}
	return Plan{Cells: cells, Assemble: assemble}
}
