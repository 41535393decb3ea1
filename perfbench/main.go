// Command perfbench is the repository's benchmark. It runs one workload for
// a fixed number of seconds, checks every output, and prints the metrics as
// one JSON object on the last line of standard output.
//
//	perfbench --workload sim-block --seed 7 --seconds 20 --trace 0
//	perfbench --compare old-results new-results
//
// Workloads (see BENCHMARK.json for why each was chosen):
//
//   - sim-block and sim-net split `vrio-experiments -run all -quick` in two:
//     the experiments driven by block/volume I/O, and every other one. Each
//     pass runs the workload's experiments serially on one goroutine.
//   - wire-udp and wire-tls carry the unmodified §4.2 transport over real
//     loopback sockets, a transport.Driver loop against a
//     transport.Endpoint loop in one process, with closed-loop requesters.
//
// With --trace 0 the output holds the end-to-end metrics; --trace 1 runs the
// same workload with a CPU profile and the benchmark's own spans around each
// layer call and prints the per-layer metrics, the module and stage tables,
// and the tracing overhead. Every layer is timed from outside: the program
// itself is not instrumented.
//
// --compare reads two result sets (files or directories of saved benchmark
// output) and prints one row per workload and metric, with a verdict taken
// from the bounds in BENCHMARK.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by untraced
// runs of every workload. A "pass" is the workload's unit of repetition: one
// serial run of its experiments (sim), or one client session of a fixed
// number of requests, from dial to drain (wire).
var endToEnd = []metricSpec{
	{"wall_s", "s"},         // median host seconds per pass
	{"events_per_s", "1/s"}, // simulated events, or transport frames on the wire, per host second
	{"alloc_mb", "MB"},      // median host MB allocated per pass
	{"req_per_s", "1/s"},    // verified operations per host second
	{"p50_us", "us"},        // median over passes of the pass's p50 latency of an experiment call (sim) or a block round trip (wire)
	{"p90_us", "us"},        // the same at p90; p99 is too noisy on a shared host to bound, see blk_p99_us
	{"ok_frac", "ratio"},    // verified operations over attempted ones
	{"setup_s", "s"},        // median set-up time before the first measured operation
}

// Experiment ids of the two sim workloads, in registration order; together
// they are exactly `vrio-experiments -run all -quick`.
var (
	simBlockIDs = []string{
		"ablation-retransmit", "ablation-steering", "fig14", "fig15", "fig16a",
		"fig16b", "energy", "faulttolerance", "mqscaling", "volrebuild",
	}
	simNetIDs = []string{
		"ablation-mtu", "ablation-rxring", "fig1", "table1", "table2", "fig3",
		"tablerack", "migration", "failover", "fabricscaling", "fabrictrace",
		"table3", "fig5", "fig7", "fig8", "fig9", "fig10", "fig11", "table4",
		"fig12", "fig13", "heterogeneity", "rackscaling",
	}
)

func allExperimentIDs() []string { return append(append([]string{}, simBlockIDs...), simNetIDs...) }

// Wire stage names, indexed by stage, in the order a block request crosses
// them.
var wireStages = []string{
	"driver.submit_us", "netwire.send_us", "endpoint.deliver_us",
	"app.verify_us", "endpoint.respond_us", "driver.deliver_us",
}

// wireLayerMetrics are the per-layer metrics only the wire workloads reach.
func wireLayerMetrics() []metricSpec {
	var out []metricSpec
	for _, s := range wireStages {
		out = append(out, metricSpec{s, "us"})
	}
	return append(out,
		metricSpec{"residual_us", "us"},
		metricSpec{"trace.blk_p50_us", "us"},
		metricSpec{"blk_p99_us", "us"},
		metricSpec{"net_p50_us", "us"},
		metricSpec{"net_p99_us", "us"},
		metricSpec{"netwire.drv_wait_p50_us", "us"},
		metricSpec{"netwire.drv_wait_p99_us", "us"},
		metricSpec{"netwire.ep_wait_p50_us", "us"},
		metricSpec{"netwire.ep_wait_p99_us", "us"},
		metricSpec{"netwire.frames_per_req", "count"},
		metricSpec{"netwire.drops", "count"},
		metricSpec{"transport.retransmits", "count"},
		metricSpec{"transport.stale", "count"},
		metricSpec{"transport.device_errors", "count"},
		metricSpec{"transport.useful_ratio", "ratio"},
		metricSpec{"endpoint.bad_msgs", "count"},
		metricSpec{"bufpool.misses", "count"},
		metricSpec{"allocs_per_req", "count"},
	)
}

// perLayer are the metrics of single layers, reported by traced runs. Every
// workload reports every name; a layer a workload does not reach reads 0.
func perLayer() []metricSpec {
	var out []metricSpec
	for _, id := range allExperimentIDs() {
		out = append(out, metricSpec{"exp." + id + ".wall_s", "s"})
	}
	out = append(out, metricSpec{"sim.events", "count"}, metricSpec{"gc.cycles", "count"})
	for _, m := range profileModules() {
		out = append(out, metricSpec{m + ".cpu_s", "s"})
	}
	out = append(out, wireLayerMetrics()...)
	return append(out, metricSpec{"trace.overhead_pct", "%"})
}

// config is one benchmark run's parameters.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// vx is the vrio-experiments binary whose output the sim workloads must
	// match; empty skips that cross-check (the package's own tests).
	vx string
}

// result is what a workload run measured.
type result struct {
	attempted, failed int
	correct           bool
	metrics           map[string]float64
	// record holds what the run saw beyond the metrics (digests, per-pass
	// samples, the seed) for the result line.
	record map[string]any
}

func newResult() *result {
	return &result{correct: true, metrics: map[string]float64{}, record: map[string]any{}}
}

// fail counts n failed operations; a failure that means wrong output also
// marks the run incorrect.
func (r *result) fail(n int, wrongOutput bool, format string, args ...any) {
	r.failed += n
	if wrongOutput {
		r.correct = false
	}
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

var workloads = map[string]func(config) (*result, error){
	"sim-block": func(c config) (*result, error) { return runSim(c, simBlockIDs) },
	"sim-net":   func(c config) (*result, error) { return runSim(c, simNetIDs) },
	"wire-udp":  func(c config) (*result, error) { return runWire(c, wireUDP) },
	"wire-tls":  func(c config) (*result, error) { return runWire(c, wireTLS) },
}

func main() {
	maybeSetupProbe()
	var c config
	var traceFlag int
	flag.StringVar(&c.workload, "workload", "", "sim-block | sim-net | wire-udp | wire-tls")
	flag.Uint64Var(&c.seed, "seed", 0, "workload seed (0 keeps the experiments' default fault seed)")
	flag.Float64Var(&c.seconds, "seconds", 20, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run printing per-layer metrics")
	flag.StringVar(&c.vx, "vx", "", "vrio-experiments binary the sim workloads' output must match")
	compare := flag.Bool("compare", false, "compare two result sets: --compare OLD NEW")
	spec := flag.String("spec", "BENCHMARK.json", "benchmark definition holding the bounds, for --compare")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "perfbench: --compare needs two result sets")
			os.Exit(2)
		}
		if err := runCompare(os.Stdout, *spec, flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	run := workloads[c.workload]
	if run == nil || traceFlag < 0 || traceFlag > 1 || c.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (sim-block | sim-net | wire-udp | wire-tls), --seconds > 0 and --trace 0|1 (got %q, %v, %d)\n",
			c.workload, c.seconds, traceFlag)
		os.Exit(2)
	}
	c.trace = traceFlag == 1
	if strings.HasPrefix(c.workload, "sim-") && c.vx == "" {
		fmt.Fprintln(os.Stderr, "perfbench: sim workloads need --vx (the vrio-experiments binary to cross-check)")
		os.Exit(2)
	}
	res, err := run(c)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := emit(os.Stdout, c, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// reported returns the metrics the run mode must print, in spec order.
func reported(trace bool) []metricSpec {
	if trace {
		return perLayer()
	}
	return endToEnd
}

// emit prints the result record line and then the summary object, which
// must be the last line of standard output.
func emit(w io.Writer, c config, res *result) error {
	out := map[string]metricValue{}
	for _, m := range reported(c.trace) {
		v, ok := res.metrics[m.name]
		if !ok {
			return fmt.Errorf("workload %s did not report metric %s", c.workload, m.name)
		}
		out[m.name] = metricValue{v, m.unit}
	}
	res.record["workload"] = c.workload
	res.record["seed"] = c.seed
	res.record["seconds"] = c.seconds
	res.record["trace"] = c.trace
	res.record["metrics"] = out
	res.record["attempted"] = res.attempted
	res.record["failed"] = res.failed
	res.record["correct"] = res.correct
	rec, err := json.Marshal(res.record)
	if err != nil {
		return err
	}
	sum, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.correct, res.attempted, res.failed, out})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", rec, sum)
	return err
}

// printTable writes rows of (name, value) under a title, largest first.
func printTable(title, unit string, rows map[string]float64, total float64) {
	names := make([]string, 0, len(rows))
	for n := range rows {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return rows[names[i]] > rows[names[j]] })
	fmt.Printf("%s\n", title)
	for _, n := range names {
		share := 0.0
		if total != 0 {
			share = 100 * rows[n] / total
		}
		fmt.Printf("  %-24s %12.3f %-3s %6.1f%%\n", n, rows[n], unit, share)
	}
}
