package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"vrio/internal/experiments"
)

func TestMain(m *testing.M) {
	// The sim workloads time their set-up by starting this binary as a
	// probe; under go test that binary is the test binary.
	maybeSetupProbe()
	os.Exit(m.Run())
}

func loadBenchDef(t *testing.T) benchDef {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var def benchDef
	if err := json.Unmarshal(b, &def); err != nil {
		t.Fatal(err)
	}
	return def
}

func TestBenchmarkJSONMatchesReportedMetrics(t *testing.T) {
	def := loadBenchDef(t)
	var e2e, layers []metricSpec
	for _, m := range def.EndToEnd {
		e2e = append(e2e, metricSpec{m.Name, m.Unit})
	}
	for _, m := range def.PerLayer {
		layers = append(layers, metricSpec{m.Name, m.Unit})
	}
	if !sameSpecs(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, benchmark reports %v", e2e, endToEnd)
	}
	if !sameSpecs(layers, perLayer()) {
		t.Errorf("BENCHMARK.json per_layer %v, benchmark reports %v", layers, perLayer())
	}
}

func sameSpecs(a, b []metricSpec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSimWorkloadsPartitionTheEvaluation(t *testing.T) {
	got := allExperimentIDs()
	want := experiments.IDs()
	sort.Strings(got)
	sort.Strings(want)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("sim-block + sim-net = %v, want every experiment %v", got, want)
	}
}

// TestSmokeEveryWorkload runs each workload briefly, untraced and traced,
// and checks that it verifies its outputs and reports every metric
// BENCHMARK.json names.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	def := loadBenchDef(t)
	for name, run := range workloads {
		for _, traced := range []bool{false, true} {
			c := config{workload: name, seed: 3, seconds: 0.2, trace: traced}
			res, err := run(c)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			if !res.correct || res.failed != 0 || res.attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", name, traced, res.correct, res.failed, res.attempted)
			}
			var want []string
			if traced {
				for _, m := range def.PerLayer {
					want = append(want, m.Name)
				}
			} else {
				for _, m := range def.EndToEnd {
					want = append(want, m.Name)
					if v := res.metrics[m.Name]; !(v > 0) {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.Name, v)
					}
				}
			}
			for _, m := range want {
				if _, ok := res.metrics[m]; !ok {
					t.Errorf("%s trace=%v: metric %s not reported", name, traced, m)
				}
			}
			var out bytes.Buffer
			if err := emit(&out, c, res); err != nil {
				t.Errorf("%s trace=%v: %v", name, traced, err)
			}
		}
	}
}

func TestCompareRowsAndVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, recs ...runRecord) string {
		var b bytes.Buffer
		for _, r := range recs {
			line, _ := json.Marshal(r)
			b.Write(line)
			b.WriteString("\n{\"correct\": true}\n")
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	rec := func(seed uint64, wall float64) runRecord {
		return runRecord{Workload: "sim-net", Seed: seed, Metrics: map[string]metricValue{"wall_s": {wall, "s"}}}
	}
	var olds, news []runRecord
	for s := uint64(1); s <= 10; s++ {
		olds = append(olds, rec(s, 1.5+float64(s%3)*0.01))
		news = append(news, rec(s, 1.2+float64(s%3)*0.01))
	}
	var out bytes.Buffer
	if err := runCompare(&out, filepath.Join("..", "BENCHMARK.json"), write("old", olds...), write("new", news...)); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 || !strings.Contains(lines[1], "wall_s") || !strings.HasSuffix(lines[1], verdictImproved) ||
		!strings.Contains(lines[1], "100%") {
		t.Errorf("compare output:\n%s", out.String())
	}
}
