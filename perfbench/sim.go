package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"vrio/internal/experiments"
	"vrio/internal/sim"
)

// simShards pins the fabric experiments' shard workers, so a host with more
// CPUs runs the same workload.
const simShards = 2

// setupProbes is how many times a run measures its set-up; it reports the
// median.
const setupProbes = 101

// setupProbeEnv makes the benchmark binary a set-up probe: it runs a sim
// workload's set-up, up to the first runner call, prints one line and
// exits. The parent times it from process start.
const setupProbeEnv = "PERFBENCH_SETUP_PROBE"

// simSetup is everything a sim run does before its first runner call.
func simSetup(ids []string, seed uint64) []experiments.Runner {
	experiments.SetFabricOptions(0, simShards, 0)
	experiments.SetFaultOptions(nil, seed)
	runners := make([]experiments.Runner, len(ids))
	for i, id := range ids {
		runners[i] = experiments.Get(id)
	}
	return runners
}

// maybeSetupProbe runs the set-up probe when the environment asks for it.
func maybeSetupProbe() {
	w := os.Getenv(setupProbeEnv)
	if w == "" {
		return
	}
	ids := simBlockIDs
	if w == "sim-net" {
		ids = simNetIDs
	}
	simSetup(ids, 0)
	fmt.Println("ready")
	os.Exit(0)
}

// probeSetup starts this binary as a set-up probe and times it from process
// start to its ready line: exec, runtime and package init, and the sim
// set-up.
func probeSetup(workload string) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), setupProbeEnv+"="+workload)
	out, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	line, rerr := bufio.NewReader(out).ReadString('\n')
	dt := time.Since(t0).Seconds()
	werr := cmd.Wait()
	if rerr != nil || line != "ready\n" {
		return 0, fmt.Errorf("set-up probe: read %q: %v", line, rerr)
	}
	if werr != nil {
		return 0, fmt.Errorf("set-up probe: %w", werr)
	}
	return dt, nil
}

// simPass is one serial run of a workload's experiments.
type simPass struct {
	wall    float64
	events  uint64
	allocMB float64
	gcs     uint32
	expWall []float64
	digests []string
	traced  bool
	cpu     map[string]float64
}

// runSim measures a sim workload: passes of its experiments, serially, until
// the time is up. The first pass warms the heap and is not measured; every
// pass's output must match the first's, and the first pass's output must
// match the vrio-experiments command's.
func runSim(c config, ids []string) (*result, error) {
	res := newResult()
	var setups []float64
	for i := 0; i < setupProbes; i++ {
		s, err := probeSetup(c.workload)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}
	runners := simSetup(ids, c.seed)

	deadline := time.Now().Add(time.Duration(c.seconds * float64(time.Second)))
	var passes []simPass
	for {
		traced := c.trace && len(passes)%2 == 0 && len(passes) > 0
		p, err := runSimPass(res, ids, runners, traced)
		if err != nil {
			return nil, err
		}
		if len(passes) > 0 {
			for i, d := range p.digests {
				if d != passes[0].digests[i] {
					res.fail(1, true, "%s: output differs from the first pass", ids[i])
				}
			}
		}
		passes = append(passes, p)
		measured := len(passes) - 1
		enough := measured >= 1 && (!c.trace || measured >= 2)
		if enough && time.Now().Add(time.Duration(p.wall*float64(time.Second))).After(deadline) {
			break
		}
	}
	if c.vx != "" {
		crossCheck(res, c, ids, passes[0].digests)
	}

	digests := map[string]string{}
	for i, id := range ids {
		digests[id] = passes[0].digests[i]
	}
	res.record["digests"] = digests
	res.record["passes"] = len(passes) - 1

	measured := passes[1:]
	var walls, evps, allocs, p50s, p90s, untraced, traced []float64
	for _, p := range measured {
		walls = append(walls, p.wall)
		evps = append(evps, float64(p.events)/p.wall)
		allocs = append(allocs, p.allocMB)
		lat := sortedCopy(p.expWall)
		p50s = append(p50s, percentile(lat, 50)*1e6)
		p90s = append(p90s, percentile(lat, 90)*1e6)
		if p.traced {
			traced = append(traced, p.wall)
		} else {
			untraced = append(untraced, p.wall)
		}
	}
	res.record["wall_s_passes"] = walls
	m := res.metrics
	m["wall_s"] = median(walls)
	m["events_per_s"] = median(evps)
	m["alloc_mb"] = median(allocs)
	m["req_per_s"] = float64(len(ids)) / median(walls)
	m["p50_us"] = median(p50s)
	m["p90_us"] = median(p90s)
	m["ok_frac"] = float64(res.attempted-res.failed) / float64(res.attempted)
	m["setup_s"] = median(setups)
	res.record["setup_s_probes"] = setups
	if c.trace {
		simLayers(res, ids, measured, untraced, traced)
	}
	return res, nil
}

// runSimPass runs every experiment of the workload once. A traced pass runs
// under the CPU profiler.
func runSimPass(res *result, ids []string, runners []experiments.Runner, traced bool) (simPass, error) {
	p := simPass{traced: traced}
	// Every pass starts from a collected heap, so one pass's garbage does
	// not land in the next pass's time.
	runtime.GC()
	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return p, err
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	ev0 := sim.TotalExecuted()
	t0 := time.Now()
	for i, run := range runners {
		res.attempted++
		t := time.Now()
		out, err := callRunner(run)
		p.expWall = append(p.expWall, time.Since(t).Seconds())
		switch {
		case err != nil:
			res.fail(1, false, "%s: %v", ids[i], err)
		case len(out.Rows) == 0:
			res.fail(1, false, "%s: no rows", ids[i])
		}
		p.digests = append(p.digests, digest(experiments.Format(out)+"\n"))
	}
	p.wall = time.Since(t0).Seconds()
	p.events = sim.TotalExecuted() - ev0
	runtime.ReadMemStats(&ms1)
	p.allocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6
	p.gcs = ms1.NumGC - ms0.NumGC
	if traced {
		pprof.StopCPUProfile()
		cpu, err := cpuByModule(prof.Bytes())
		if err != nil {
			return p, err
		}
		p.cpu = cpu
	}
	return p, nil
}

// callRunner runs one experiment, turning a panic into an error.
func callRunner(run experiments.Runner) (out experiments.Result, err error) {
	if run == nil {
		return out, fmt.Errorf("no such experiment")
	}
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("panic: %v", v)
		}
	}()
	return run(true), nil
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// crossCheck runs the vrio-experiments command over the same experiments
// and seed and requires each experiment's section of its output to match
// the benchmark's. The command runs them in parallel, so this also checks
// that the parallel scheduler's output is byte-identical.
func crossCheck(res *result, c config, ids []string, digests []string) {
	args := []string{"-run", strings.Join(ids, ","), "-quick", "-parallel", "-workers", strconv.Itoa(simShards),
		"-shards", strconv.Itoa(simShards), "-fault-seed", strconv.FormatUint(c.seed, 10)}
	out, err := exec.Command(c.vx, args...).Output()
	if err != nil {
		res.fail(1, true, "vrio-experiments %s: %v", strings.Join(args, " "), err)
		return
	}
	sections := map[string]string{}
	var id string
	for _, line := range strings.SplitAfter(string(out), "\n") {
		if strings.HasPrefix(line, "== ") && strings.HasSuffix(line, " ==\n") {
			id, _, _ = strings.Cut(line[3:], ":")
		}
		sections[id] += line
	}
	for i, id := range ids {
		if digest(sections[id]) != digests[i] {
			res.fail(1, true, "%s: output differs from vrio-experiments -run %s -quick", id, id)
		}
	}
}

// simLayers fills the per-layer metrics of a traced sim run.
func simLayers(res *result, ids []string, measured []simPass, untraced, traced []float64) {
	m := res.metrics
	zeroWireLayers(m)
	for _, id := range allExperimentIDs() {
		m["exp."+id+".wall_s"] = 0
	}
	for i, id := range ids {
		var ws []float64
		for _, p := range measured {
			ws = append(ws, p.expWall[i])
		}
		m["exp."+id+".wall_s"] = median(ws)
	}
	var events, gcs []float64
	cpu := map[string]float64{}
	nTraced := 0
	for _, p := range measured {
		events = append(events, float64(p.events))
		gcs = append(gcs, float64(p.gcs))
		if p.traced {
			nTraced++
			for mod, s := range p.cpu {
				cpu[mod] += s
			}
		}
	}
	m["sim.events"] = median(events)
	m["gc.cycles"] = median(gcs)
	total := moduleMetrics(m, cpu, nTraced)
	m["trace.overhead_pct"] = 100 * (median(traced)/median(untraced) - 1)
	printTable(fmt.Sprintf("module CPU per pass (%d profiled passes, %.3f s per pass)", nTraced, total), "s", perPass(cpu, nTraced), total)
	fmt.Printf("tracing overhead: wall_s %.4f untraced, %.4f profiled (%+.1f%%)\n",
		median(untraced), median(traced), m["trace.overhead_pct"])
}

// moduleMetrics sets <module>.cpu_s to the profiled CPU seconds per pass and
// returns their sum.
func moduleMetrics(m map[string]float64, cpu map[string]float64, passes int) float64 {
	total := 0.0
	for _, mod := range profileModules() {
		v := 0.0
		if passes > 0 {
			v = cpu[mod] / float64(passes)
		}
		m[mod+".cpu_s"] = v
		total += v
	}
	return total
}

func perPass(cpu map[string]float64, passes int) map[string]float64 {
	out := map[string]float64{}
	for k, v := range cpu {
		out[k] = v / float64(passes)
	}
	return out
}
