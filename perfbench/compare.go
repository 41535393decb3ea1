package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchDef is the part of BENCHMARK.json the comparison needs.
type benchDef struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// runRecord is the result line a benchmark run prints before its summary.
type runRecord struct {
	Workload string                 `json:"workload"`
	Seed     uint64                 `json:"seed"`
	Trace    bool                   `json:"trace"`
	Metrics  map[string]metricValue `json:"metrics"`
}

// loadRecords reads every result line in path, a file of saved benchmark
// output or a directory of such files.
func loadRecords(path string) ([]runRecord, error) {
	files := []string{path}
	if fi, err := os.Stat(path); err != nil {
		return nil, err
	} else if fi.IsDir() {
		entries, err := os.ReadDir(path)
		if err != nil {
			return nil, err
		}
		files = files[:0]
		for _, e := range entries {
			if !e.IsDir() {
				files = append(files, filepath.Join(path, e.Name()))
			}
		}
	}
	var out []runRecord
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(strings.NewReader(string(b)))
		sc.Buffer(make([]byte, 1<<20), 16<<20)
		for sc.Scan() {
			line := sc.Bytes()
			if len(line) == 0 || line[0] != '{' {
				continue
			}
			var r runRecord
			if json.Unmarshal(line, &r) == nil && r.Workload != "" && r.Metrics != nil {
				out = append(out, r)
			}
		}
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no benchmark results", path)
	}
	return out, nil
}

// runCompare prints one row per (workload, metric) pair found on both
// sides: medians and quartiles, the share of same-seed pairs the new side
// won, and, for end-to-end metrics, the verdict under the metric's bound.
// There is deliberately no combined score.
func runCompare(w io.Writer, specPath, oldPath, newPath string) error {
	b, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var def benchDef
	if err := json.Unmarshal(b, &def); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	olds, err := loadRecords(oldPath)
	if err != nil {
		return err
	}
	news, err := loadRecords(newPath)
	if err != nil {
		return err
	}
	type metricDef struct {
		name, better string
		bound        float64
		endToEnd     bool
	}
	var defs []metricDef
	for _, m := range def.EndToEnd {
		defs = append(defs, metricDef{m.Name, m.Better, m.Bound, true})
	}
	for _, m := range def.PerLayer {
		defs = append(defs, metricDef{m.Name, m.Better, 0, false})
	}
	seen := map[string]bool{}
	for _, r := range append(append([]runRecord{}, olds...), news...) {
		seen[r.Workload] = true
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)

	fmt.Fprintf(w, "%-10s %-24s %-6s %36s %36s %5s  %s\n", "workload", "metric", "unit",
		"old median [q1, q3]", "new median [q1, q3]", "won", "verdict")
	for _, wl := range names {
		for _, d := range defs {
			c := comparison{lowerBetter: d.better == "lower", bound: d.bound}
			var unit string
			oldBySeed := map[uint64]float64{}
			for _, r := range olds {
				if v, ok := r.Metrics[d.name]; ok && r.Workload == wl && r.Trace != d.endToEnd {
					c.old = append(c.old, v.Value)
					oldBySeed[r.Seed] = v.Value
					unit = v.Unit
				}
			}
			for _, r := range news {
				if v, ok := r.Metrics[d.name]; ok && r.Workload == wl && r.Trace != d.endToEnd {
					c.new = append(c.new, v.Value)
					if o, ok := oldBySeed[r.Seed]; ok {
						c.pairs = append(c.pairs, [2]float64{o, v.Value})
					}
					unit = v.Unit
				}
			}
			if len(c.old) == 0 || len(c.new) == 0 {
				continue
			}
			verdict := "-"
			if d.endToEnd {
				verdict = c.verdict()
			}
			fmt.Fprintf(w, "%-10s %-24s %-6s %36s %36s %5s  %s\n", wl, d.name, unit,
				quartileCell(c.old), quartileCell(c.new), shareCell(c), verdict)
		}
	}
	return nil
}

func quartileCell(vs []float64) string {
	q1, _, q3 := quartiles(vs)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", median(vs), q1, q3)
}

func shareCell(c comparison) string {
	if len(c.pairs) == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.0f%%", 100*c.wonShare())
}
