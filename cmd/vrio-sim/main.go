// Command vrio-sim runs one simulated testbed from command-line knobs (and
// optional JSON parameter overrides) and prints the measured results —
// the free-form companion to the fixed experiments of vrio-experiments.
//
// Usage:
//
//	vrio-sim -model vrio -vms 4 -workload rr -measure 50ms
//	vrio-sim -model elvis -vms 7 -workload stream
//	vrio-sim -model vrio -vms 2 -workload filebench -params '{"RamdiskLatency": 90000}'
//	vrio-sim -model vrio -racks 16 -shards 8 -oversub 4 -measure 50ms
//	vrio-sim -model vrio -racks 4 -trace -metrics-interval 1ms -trace-out fabric-out
//
// With -racks > 1 the run becomes a spine-leaf fabric: one testbed per rack
// on its own simulation shard, every station driving a guest one rack over,
// executed by -shards workers under the conservative coordinator (output is
// identical for every -shards value; only wall clock changes).
//
// -trace and -metrics-interval turn on the fabric observability plane for
// such a run: -trace records cross-shard spans (guest ring, ToR→spine and
// spine→ToR hops, remote IOhyp worker, completion) and writes the merged
// span export; -metrics-interval samples every rack's registry plus the
// spine registry into one merged fabric-wide metrics stream. Both write
// JSONL artifacts into -trace-out and print a vrio-top style summary table;
// both exports are byte-identical at any -shards value.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"vrio"
	"vrio/internal/cluster"
	"vrio/internal/core"
	"vrio/internal/rack"
	"vrio/internal/sim"
	"vrio/internal/stats"
	"vrio/internal/workload"
)

func main() {
	model := flag.String("model", "vrio", "baseline | elvis | vrio | vrio-nopoll | optimum")
	vms := flag.Int("vms", 1, "VMs per VMhost")
	hosts := flag.Int("vmhosts", 1, "number of VMhosts")
	sidecores := flag.Int("sidecores", 1, "sidecores (per host for elvis; at the IOhost for vrio)")
	wl := flag.String("workload", "rr", "rr | stream | apache | memcached | filebench | webserver")
	measure := flag.Duration("measure", 50*time.Millisecond, "measured simulated duration")
	seed := flag.Uint64("seed", 1, "simulation seed (same seed => identical run)")
	overrides := flag.String("params", "", "JSON object of parameter overrides (see internal/params)")
	faultProfile := flag.String("fault-profile", "", "fault profile: lossy | flaky | degraded | chaos, or inline JSON (empty = no faults)")
	faultSeed := flag.Uint64("fault-seed", 0, "seed for the fault draws (0 = derive from -seed)")
	racks := flag.Int("racks", 1, "number of racks; >1 builds a spine-leaf fabric (rr workload only)")
	shards := flag.Int("shards", 0, "workers executing the fabric's shards (0 = one per CPU, 1 = serial)")
	oversub := flag.Float64("oversub", 4, "ToR downlink:uplink oversubscription ratio for -racks > 1")
	doTrace := flag.Bool("trace", false, "with -racks > 1: record cross-shard spans and write the merged span export")
	traceOut := flag.String("trace-out", "fabric-trace", "output directory for the fabric span/metrics/anomaly JSONL artifacts")
	metricsInterval := flag.Duration("metrics-interval", 0, "fabric metrics rollup sampling interval in sim time (0 = 1ms when -trace is set, otherwise off)")
	flag.Parse()

	valid := map[string]vrio.Model{
		"baseline": core.ModelBaseline, "elvis": core.ModelElvis,
		"vrio": core.ModelVRIO, "vrio-nopoll": core.ModelVRIONoPoll,
		"optimum": core.ModelOptimum,
	}
	m, ok := valid[*model]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown model %q\n", *model)
		os.Exit(2)
	}

	p := vrio.DefaultParams()
	if *overrides != "" {
		if err := p.UnmarshalOverrides([]byte(*overrides)); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	prof, err := vrio.ParseFaultProfile(*faultProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *racks > 1 {
		if *wl != "rr" {
			fmt.Fprintf(os.Stderr, "-racks > 1 supports only the rr workload (got %q)\n", *wl)
			os.Exit(2)
		}
		if *faultProfile != "" {
			fmt.Fprintln(os.Stderr, "-racks > 1 does not take a fault profile yet")
			os.Exit(2)
		}
		if err := runFabric(m, *racks, *shards, *oversub, *vms, *hosts, *seed, &p, *measure,
			*doTrace, *traceOut, *metricsInterval); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		return
	}
	if *doTrace || *metricsInterval > 0 {
		fmt.Fprintln(os.Stderr, "-trace/-metrics-interval here apply to fabric runs (-racks > 1); for a single-rack trace use vrio-experiments -trace")
		os.Exit(2)
	}

	needsBlock := *wl == "filebench" || *wl == "webserver"
	tb := vrio.NewTestbed(vrio.Config{
		Model: m, VMs: *vms, VMHosts: *hosts, Sidecores: *sidecores,
		WithBlock: needsBlock, WithThreads: needsBlock,
		Fault: prof, FaultSeed: *faultSeed,
		Seed: *seed, Params: &p,
	})
	eng := tb.Raw().Eng
	stopOnSignal(eng.Interrupt)
	defer func() {
		if eng.Interrupted() {
			fmt.Printf("\ninterrupted at t=%v — results above cover the elapsed portion only\n",
				time.Duration(eng.Now()))
		}
	}()

	fmt.Printf("model=%s vms=%d vmhosts=%d sidecores=%d workload=%s measure=%v",
		*model, *vms, *hosts, *sidecores, *wl, *measure)
	if *faultProfile != "" {
		fmt.Printf(" fault-profile=%s fault-seed=%d", *faultProfile, *faultSeed)
	}
	fmt.Print("\n\n")

	switch *wl {
	case "rr":
		r := tb.RunNetperfRR(*measure)
		fmt.Printf("transactions: %d\n", r.Ops)
		fmt.Printf("mean latency: %.1f µs\n", r.MeanLatencyMicros)
		fmt.Printf("p99 latency:  %.1f µs\n", r.P99Micros)
	case "stream":
		r := tb.RunNetperfStream(*measure)
		fmt.Printf("chunks:      %d\n", r.Ops)
		fmt.Printf("throughput:  %.2f Gbps\n", r.ThroughputGbps)
	case "apache":
		r := tb.RunMacro(vrio.Apache, *measure)
		fmt.Printf("requests:    %d (%.0f req/s)\n", r.Ops, float64(r.Ops)/measure.Seconds())
		fmt.Printf("mean latency %.1f µs\n", r.MeanLatencyMicros)
	case "memcached":
		r := tb.RunMacro(vrio.Memcached, *measure)
		fmt.Printf("transactions: %d (%.0f tps)\n", r.Ops, float64(r.Ops)/measure.Seconds())
		fmt.Printf("mean latency: %.1f µs\n", r.MeanLatencyMicros)
	case "filebench":
		r := tb.RunFilebench(2, 2, *measure)
		fmt.Printf("block ops:    %d (%.0f ops/s)\n", r.Ops, r.OpsPerSec)
		fmt.Printf("throughput:   %.0f Mbps\n", r.ThroughputMbps)
		fmt.Printf("guest context switches: %d involuntary, %d voluntary\n",
			r.InvoluntaryCS, r.VoluntaryCS)
	case "webserver":
		r := tb.RunWebserver(*measure)
		fmt.Printf("files served: %d (%.0f files/s)\n", r.Ops, r.OpsPerSec)
		fmt.Printf("throughput:   %.0f Mbps\n", r.ThroughputMbps)
	default:
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *wl)
		os.Exit(2)
	}

	if busy, poll := tb.SidecoreUtilization(); len(busy) > 0 {
		fmt.Println()
		for i := range busy {
			fmt.Printf("sidecore %d: %.0f%% busy, %.0f%% polling\n",
				i, busy[i]*100, poll[i]*100)
		}
	}

	if pl := tb.Raw().Fault; pl.Active() {
		fmt.Println()
		fmt.Printf("faults injected: %d lost, %d corrupted, %d jittered, %d reordered, %d flaps, %d stalls\n",
			pl.Counters.Get("frames_dropped"), pl.Counters.Get("frames_corrupted"),
			pl.Counters.Get("frames_jittered"), pl.Counters.Get("frames_reordered"),
			pl.Counters.Get("flaps"), pl.Counters.Get("stalls"))
		fmt.Printf("faulted wires:   %d frames offered, %d delivered\n",
			pl.WireOffered(), pl.WireDelivered())
	}
}

// stopOnSignal requests a graceful stop on the first SIGINT/SIGTERM: the
// running engine (or shard group) parks at its next interrupt check, the
// measured results and JSONL artifacts are flushed for the elapsed
// portion, and the summary still prints. A second signal kills the
// process the classic way.
func stopOnSignal(interrupt func()) {
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		interrupt()
		<-sigc
		os.Exit(130)
	}()
}

// runFabric builds a spine-leaf fabric of racks testbeds, drives every guest
// with RR traffic from a station one rack over (all transactions cross the
// spine tier), runs it under the conservative shard coordinator with the
// requested worker count, and prints the measured results plus the
// coordinator's accounting. With tracing or a metrics interval it also runs
// the observability plane: per-rack controllers, the datacenter rollup, and
// (for -trace) cross-shard span recording, exporting the merged artifacts.
func runFabric(m vrio.Model, racks, shards int, oversub float64, vms, hosts int, seed uint64, p *vrio.Params, measure time.Duration,
	doTrace bool, outDir string, metricsInterval time.Duration) error {
	observe := doTrace || metricsInterval > 0
	f, err := cluster.BuildFabric(cluster.FabricSpec{
		Rack: cluster.Spec{
			Model: m, VMHosts: hosts, VMsPerHost: vms,
			StationPerVM: true, Seed: seed, Params: p,
			Trace: doTrace,
		},
		NumRacks:         racks,
		Oversubscription: oversub,
	})
	if err != nil {
		return err
	}
	defer f.Close()
	if shards <= 0 {
		shards = runtime.NumCPU()
	}

	var ru *rack.Rollup
	var dc *rack.Datacenter
	if observe {
		if len(f.Racks[0].IOHyps) == 0 {
			return fmt.Errorf("fabric observability (-trace/-metrics-interval) requires a vrio model")
		}
		dc = rack.NewDatacenter(f, rack.Config{})
		ru = rack.NewRollup(dc, rack.RollupConfig{Interval: sim.Time(metricsInterval.Nanoseconds())})
	}

	warm := sim.Time(measure.Nanoseconds()) / 5
	dur := sim.Time(measure.Nanoseconds())
	var rrs []*workload.RR
	perRack := make([][]cluster.Measurable, racks)
	for r := 0; r < racks; r++ {
		server := f.Racks[(r+1)%racks]
		for g, guest := range server.Guests {
			workload.InstallRRServer(guest, server.P.NetperfRRProcessCost)
			rr := workload.NewRR(f.Racks[r].StationFor(g), guest.MAC(), 16)
			rr.Start()
			rrs = append(rrs, rr)
			perRack[r] = append(perRack[r], &rr.Results)
			if ru != nil {
				ru.ObserveLatency(r, true, &rr.Results.Latency)
			}
		}
	}
	if observe {
		dc.Start()
		ru.Start()
	}
	stopOnSignal(f.Group.Interrupt)
	t0 := time.Now()
	f.RunMeasured(warm, dur, shards, perRack)
	wall := time.Since(t0)
	if f.Group.Interrupted() {
		fmt.Println("interrupted — results below cover the elapsed portion only")
	}
	if observe {
		ru.Stop()
		dc.Stop()
	}

	var ops, errs uint64
	var agg stats.Histogram
	for _, rr := range rrs {
		ops += rr.Results.Ops
		errs += rr.Results.Errors
		agg.Merge(&rr.Results.Latency)
	}
	var xshard uint64
	for _, s := range f.Group.Shards() {
		xshard += s.Received
	}
	fmt.Printf("fabric: %d racks x %d VMhosts x %d VMs, oversub %g:1, %d shard workers\n",
		racks, hosts, vms, oversub, shards)
	fmt.Printf("transactions: %d (%d errors), all cross-rack\n", ops, errs)
	fmt.Printf("p50 latency:  %.1f µs\n", float64(agg.Percentile(50))/1000)
	fmt.Printf("p99 latency:  %.1f µs\n", float64(agg.Percentile(99))/1000)
	fmt.Printf("cross-shard messages: %d over %d sync windows (lookahead %v)\n",
		xshard, f.Group.Windows, time.Duration(f.Lookahead))
	fmt.Printf("wall clock: %v for %d simulated events (%.0f events/sec)\n",
		wall, f.TotalExecuted(), float64(f.TotalExecuted())/wall.Seconds())

	if observe {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
		write := func(name string, fn func(io.Writer) error) error {
			path := filepath.Join(outDir, name)
			file, err := os.Create(path)
			if err != nil {
				return err
			}
			if err := fn(file); err != nil {
				file.Close()
				return fmt.Errorf("%s: %w", path, err)
			}
			if err := file.Close(); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", path)
			return nil
		}
		fmt.Println()
		if doTrace {
			if err := write("spans.jsonl", f.WriteSpans); err != nil {
				return err
			}
		}
		if err := write("metrics.jsonl", ru.WriteMetricsJSONL); err != nil {
			return err
		}
		if err := write("anomalies.jsonl", ru.WriteAnomaliesJSONL); err != nil {
			return err
		}
		fmt.Println()
		fmt.Print(ru.Summary())
	}
	return nil
}
