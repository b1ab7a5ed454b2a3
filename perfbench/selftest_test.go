package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
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

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf
}

// tinyScale shrinks every input so each workload runs in a few seconds.
func tinyScale(t *testing.T, workload string, trace bool) params {
	p := fullScale(workload, 3, 0.4, trace, "..")
	p.WorkDir = t.TempDir()
	p.SetupReps = 2
	p.BuildN, p.BuildGraphs, p.BuildMinReps, p.StretchSrcs, p.StretchTgts = 128, 2, 2, 4, 8
	p.RoutedN, p.BatchPairs, p.PassBatches, p.SinglesPerBatch = 256, 16, 4, 2
	p.ChurnN, p.UpdateEdges, p.WriteRate, p.ReadPool, p.CheckPairs = 128, 4, 15, 8, 64
	return p
}

// TestDeclarations checks BENCHMARK.json against the metrics the code
// prints: same names, units and directions, one entry each.
func TestDeclarations(t *testing.T) {
	bf := loadBenchmarkFile(t)
	declared := map[string]bool{}
	check := func(name, unit, better string, traced bool) {
		if declared[name] {
			t.Errorf("%s declared twice", name)
		}
		declared[name] = true
		def, ok := lookupMetric(name)
		switch {
		case !ok:
			t.Errorf("BENCHMARK.json declares %s, which no workload prints", name)
		case def.Unit != unit || def.Better != better || def.Traced != traced:
			t.Errorf("%s: BENCHMARK.json says unit %q better %q per-layer %v; the code prints unit %q better %q per-layer %v",
				name, unit, better, traced, def.Unit, def.Better, def.Traced)
		}
	}
	for _, m := range bf.EndToEnd {
		check(m.Name, m.Unit, m.Better, false)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range bf.PerLayer {
		check(m.Name, m.Unit, m.Better, true)
	}
	for _, def := range metricDefs {
		if !declared[def.Name] {
			t.Errorf("%s is printed but not declared in BENCHMARK.json", def.Name)
		}
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloads, ",") {
		t.Errorf("BENCHMARK.json workloads %v, the code runs %v", names, workloads)
	}
}

// TestTinyScale runs every workload in both modes at a tiny scale and
// fails if a declared metric of that mode is missing from the output or
// printed without its unit, if an end-to-end metric is not positive, or
// if any check fails.
func TestTinyScale(t *testing.T) {
	bf := loadBenchmarkFile(t)
	units := map[string]string{}
	for _, m := range bf.EndToEnd {
		units[m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		units[m.Name] = m.Unit
	}
	seen := map[string]bool{}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := execute(tinyScale(t, w, traced))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			var out bytes.Buffer
			if err := res.print(&out); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Failed    int  `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s traced=%v: last line is not the result: %v\n%s", w, traced, err, out.String())
			}
			if !last.Correct || last.Failed != 0 || last.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d\n%s", w, traced, last.Correct, last.Attempted, last.Failed, out.String())
			}
			for _, name := range expectedMetrics(traced) {
				m, ok := last.Metrics[name]
				switch {
				case !ok || m.Value == nil:
					t.Errorf("%s traced=%v: %s missing from the output", w, traced, name)
				case m.Unit == "" || m.Unit != units[name]:
					t.Errorf("%s traced=%v: %s printed with unit %q, declared %q", w, traced, name, m.Unit, units[name])
				case !traced && *m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v; every one must be positive", w, name, *m.Value)
				}
				seen[name] = true
			}
			if len(last.Metrics) != len(expectedMetrics(traced)) {
				t.Errorf("%s traced=%v: printed %d metrics, expected %d", w, traced, len(last.Metrics), len(expectedMetrics(traced)))
			}
		}
	}
	for name := range units {
		if !seen[name] {
			t.Errorf("%s is declared in BENCHMARK.json but no workload printed it", name)
		}
	}
}

func TestBadFlagsFail(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "nope", "--seconds", "1"}, &out, &errOut); code == 0 {
		t.Errorf("unknown workload exited 0")
	}
	if code := run([]string{"--workload", "build", "--trace", "2"}, &out, &errOut); code == 0 {
		t.Errorf("--trace 2 exited 0")
	}
	if out.Len() != 0 {
		t.Errorf("a failed start printed a result: %q", out.String())
	}
}
