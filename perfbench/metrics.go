package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

const (
	wBuild  = "build"
	wRouted = "routed-read"
	wChurn  = "churn-rw"
)

var workloads = []string{wBuild, wRouted, wChurn}

// metricDef declares one metric: its unit, which direction is better and
// whether the traced run reports it. Every untraced run prints every
// end-to-end metric and every traced run every per-layer metric. Moves
// holds, per workload that measures a per-layer metric, the end-to-end
// metric(s) it should move there ("-" for none); a traced run of a
// workload missing from Moves prints the metric as 0, since that
// workload does not exercise the layer.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Traced bool
	Moves  map[string]string
}

func e2e(name, unit, better string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better}
}

// layer declares a per-layer metric; moves alternates workload and the
// end-to-end metric(s) it should move there.
func layer(name, unit string, moves ...string) metricDef {
	m := metricDef{Name: name, Unit: unit, Better: "lower", Traced: true, Moves: make(map[string]string)}
	for i := 0; i+1 < len(moves); i += 2 {
		m.Moves[moves[i]] = moves[i+1]
	}
	return m
}

// everywhere is layer for a metric every workload measures, moving the
// same end-to-end metric(s) on each.
func everywhere(name, unit, moves string) metricDef {
	return layer(name, unit, wBuild, moves, wRouted, moves, wChurn, moves)
}

// metricDefs is every metric the benchmark prints. BENCHMARK.json
// declares the same names and units (the self-test checks it).
var metricDefs = []metricDef{
	e2e("setup_s", "s", "lower"),
	e2e("op_p50_ms", "ms", "lower"),
	e2e("cpu_ms_per_op", "cpu-ms", "lower"),
	e2e("live_heap_mb", "MiB", "lower"),
	e2e("build_rounds", "rounds", "lower"),
	e2e("build_messages", "messages", "lower"),
	e2e("sketch_words_mean", "words", "lower"),
	e2e("stretch_mean", "ratio", "lower"),

	everywhere("ops_failed_frac", "ratio", "-"),
	everywhere("trace.overhead_frac", "ratio", "op_p50_ms"),
	everywhere("trace.unaccounted_frac", "ratio", "op_p50_ms"),
	layer("graph.read_ms", "ms", wBuild, "setup_s", wChurn, "setup_s"),

	// The construction layers. build measures them on its timed builds;
	// routed-read and churn-rw on the untimed build of the set they serve.
	layer("core.phase_s.phase2", "s", wBuild, "op_p50_ms", wRouted, "-", wChurn, "-"),
	layer("core.phase_s.phase1", "s", wBuild, "op_p50_ms", wRouted, "-", wChurn, "-"),
	layer("core.phase_s.phase0", "s", wBuild, "op_p50_ms", wRouted, "-", wChurn, "-"),
	everywhere("congest.rounds.phase2", "rounds", "build_rounds"),
	everywhere("congest.rounds.phase1", "rounds", "build_rounds"),
	everywhere("congest.rounds.phase0", "rounds", "build_rounds"),
	everywhere("congest.messages.phase2", "messages", "build_messages"),
	everywhere("congest.messages.phase1", "messages", "build_messages"),
	everywhere("congest.messages.phase0", "messages", "build_messages"),
	layer("congest.ns_per_message", "ns", wBuild, "op_p50_ms", wRouted, "-", wChurn, "-"),
	higher(everywhere("congest.parallel_speedup", "ratio", "-")),
	layer("runtime.alloc_mb_per_build", "MiB", wBuild, "cpu_ms_per_op", wRouted, "-", wChurn, "-"),
	layer("runtime.gc_cycles_per_build", "count", wBuild, "cpu_ms_per_op", wRouted, "-", wChurn, "-"),
	layer("distsketch.save_ms", "ms", wBuild, "op_p50_ms", wRouted, "-", wChurn, "-"),
	layer("distsketch.envelope_bytes", "bytes", wBuild, "op_p50_ms", wRouted, "setup_s", wChurn, "setup_s"),
	everywhere("distsketch.sketch_words_max", "words", "sketch_words_mean"),
	everywhere("eval.stretch_p99", "ratio", "stretch_mean"),
	everywhere("eval.stretch_max", "ratio", "stretch_mean"),
	everywhere("eval.bound_violations", "count", "stretch_mean"),
	// build and churn-rw reopen each envelope they build (the check);
	// routed-read opens its shards in set-up.
	layer("distsketch.open_ms", "ms", wBuild, "-", wRouted, "setup_s", wChurn, "-"),
	layer("distsketch.query_ns", "ns", wBuild, "-", wRouted, "op_p50_ms", wChurn, "cpu_ms_per_op"),
	layer("runtime.gc_cycles", "count", wBuild, "cpu_ms_per_op", wRouted, "cpu_ms_per_op", wChurn, "cpu_ms_per_op"),
	layer("runtime.alloc_kb_per_pair", "KiB", wRouted, "cpu_ms_per_op", wChurn, "cpu_ms_per_op"),

	layer("serve.router.discover_ms", "ms", wRouted, "setup_s"),
	layer("serve.router.handler_us.single", "us", wRouted, "cpu_ms_per_op"),
	layer("serve.router.handler_ms.batch", "ms", wRouted, "op_p50_ms"),
	layer("net.client_router_us", "us", wRouted, "-"),
	layer("serve.router.upstream_calls.single", "calls", wRouted, "cpu_ms_per_op"),
	layer("serve.router.sketch_fetches.batch", "calls", wRouted, "op_p50_ms"),
	layer("serve.router.subbatches.batch", "calls", wRouted, "op_p50_ms"),
	layer("serve.router.upstream_ms.batch", "ms", wRouted, "op_p50_ms"),
	layer("serve.router.self_ms.batch", "ms", wRouted, "op_p50_ms"),
	layer("serve.router.upstream_bytes_per_pair", "bytes", wRouted, "op_p50_ms"),
	layer("serve.shard_handler_us.query", "us", wRouted, "cpu_ms_per_op"),
	layer("serve.shard_handler_us.sketch", "us", wRouted, "op_p50_ms,cpu_ms_per_op"),
	layer("serve.shard_handler_us.batch", "us", wRouted, "op_p50_ms"),
	layer("net.router_shard_us", "us", wRouted, "op_p50_ms"),
	layer("serve.router.cross_shard_frac", "ratio", wRouted, "op_p50_ms"),
	layer("serve.router.retries", "count", wRouted, "op_p50_ms"),
	layer("serve.router.hedges_fired", "count", wRouted, "op_p50_ms"),
	layer("serve.router.upstream_errors", "count", wRouted, "op_p50_ms"),
	layer("sketch.parse_us", "us", wRouted, "op_p50_ms"),
	layer("sketch.estimate_ns", "ns", wRouted, "op_p50_ms"),

	layer("distsketch.load_ms", "ms", wChurn, "setup_s"),
	layer("serve.update_handler_ms", "ms", wChurn, "op_p50_ms"),
	layer("net.update_wait_ms", "ms", wChurn, "op_p50_ms"),
	layer("bench.lateness_ms", "ms", wChurn, "op_p50_ms"),
	layer("distsketch.clone_us", "us", wChurn, "op_p50_ms"),
	layer("core.repair_ms", "ms", wChurn, "op_p50_ms"),
	layer("serve.update_overhead_ms", "ms", wChurn, "op_p50_ms"),
	layer("core.labels_replaced_per_update", "labels", wChurn, "op_p50_ms,cpu_ms_per_op"),
	layer("core.rebuild_rejected", "count", wChurn, "-"),
	layer("serve.batch_handler_us", "us", wChurn, "cpu_ms_per_op"),
	layer("serve.reads_overlapping_update_frac", "ratio", wChurn, "-"),
	layer("runtime.alloc_mb_per_update", "MiB", wChurn, "cpu_ms_per_op"),
}

func higher(m metricDef) metricDef {
	m.Better = "higher"
	return m
}

func lookupMetric(name string) (metricDef, bool) {
	for _, m := range metricDefs {
		if m.Name == name {
			return m, true
		}
	}
	return metricDef{}, false
}

// expectedMetrics lists the metrics every untraced (traced) run prints.
func expectedMetrics(traced bool) []string {
	var out []string
	for _, m := range metricDefs {
		if m.Traced == traced {
			out = append(out, m.Name)
		}
	}
	return out
}

// metric is one measured value with the number of samples behind it.
type metric struct {
	Name    string  `json:"name"`
	Unit    string  `json:"unit"`
	Value   float64 `json:"value"`
	Samples int     `json:"samples"`
	Moves   string  `json:"moves,omitempty"`
}

// result is everything one run reports.
type result struct {
	Workload  string                  `json:"workload"`
	Traced    bool                    `json:"traced"`
	Base      map[string]any          `json:"base"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   []metric                `json:"metrics"`
	Failures  []string                `json:"check_failures,omitempty"`
	Notes     []string                `json:"notes,omitempty"`
	Stages    map[string]stageAccount `json:"stages,omitempty"`
}

func newResult(p params) *result {
	return &result{Workload: p.Workload, Traced: p.Trace, Base: map[string]any{}, Stages: map[string]stageAccount{}}
}

// add records a metric; only the metrics this run's mode prints are
// kept, so shared code can compute more than one mode prints.
func (r *result) add(name string, v float64, samples int) {
	def, ok := lookupMetric(name)
	if !ok {
		panic("perfbench: undeclared metric " + name)
	}
	if def.Traced != r.Traced {
		return
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.fail("metric %s has no finite value (%d samples)", name, samples)
		return
	}
	r.Metrics = append(r.Metrics, metric{Name: name, Unit: def.Unit, Value: v, Samples: samples, Moves: def.Moves[r.Workload]})
}

// notExercised marks a per-layer metric printed as 0 because the
// workload does not run that layer.
const notExercised = "not exercised"

// complete checks that the run measured every metric its mode prints.
// A traced run prints a per-layer metric of a layer the workload does
// not exercise as 0; any other missing metric fails the run.
func (r *result) complete() {
	have := make(map[string]bool, len(r.Metrics))
	for _, m := range r.Metrics {
		have[m.Name] = true
	}
	for _, def := range metricDefs {
		if def.Traced != r.Traced || have[def.Name] {
			continue
		}
		if _, measured := def.Moves[r.Workload]; r.Traced && !measured {
			r.Metrics = append(r.Metrics, metric{Name: def.Name, Unit: def.Unit, Moves: notExercised})
			continue
		}
		r.fail("metric %s was not measured", def.Name)
	}
}

// fail records a failed check: a wrong answer, a violated bound, or a
// nondeterministic count.
func (r *result) fail(format string, args ...any) {
	if len(r.Failures) < 20 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

func (r *result) correct() bool { return r.Failed == 0 && len(r.Failures) == 0 }

type jsonValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type finalLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]jsonValue `json:"metrics"`
}

// print writes the human-readable report ('#' lines) and, last, the one
// JSON line that ends every run.
func (r *result) print(w io.Writer) error {
	base, err := json.Marshal(r.Base)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# base %s\n", base)
	for _, m := range r.Metrics {
		moves := ""
		switch m.Moves {
		case "":
		case notExercised:
			moves = "  (layer not exercised by this workload)"
		default:
			moves = "  -> " + m.Moves
		}
		fmt.Fprintf(w, "# %s %-40s %14.6g %-8s n=%d%s\n", r.Workload, m.Name, m.Value, m.Unit, m.Samples, moves)
	}
	for _, k := range sortedKeys(r.Stages) {
		a := r.Stages[k]
		parts := make([]string, 0, len(a.StageMeanNs))
		for _, st := range sortedKeys(a.StageMeanNs) {
			parts = append(parts, fmt.Sprintf("%s=%.1f%%", st, 100*a.StageMeanNs[st]/a.E2EMedianNs))
		}
		fmt.Fprintf(w, "# stages %s: p50 %.3f ms over %d ops in the p40-p60 band: %s; unaccounted %.1f%%\n",
			k, a.E2EMedianNs/1e6, a.Band, strings.Join(parts, " "), 100*a.unaccountedFrac())
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "# note: %s\n", n)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "# CHECK FAILED: %s\n", f)
	}
	out := finalLine{Correct: r.correct(), Attempted: r.Attempted, Failed: r.Failed, Metrics: make(map[string]jsonValue)}
	for _, m := range r.Metrics {
		out.Metrics[m.Name] = jsonValue{Value: m.Value, Unit: m.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// save writes the full record (base, sample counts, stages, notes).
func (r *result) save(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// quantile is the nearest-rank q-quantile of xs (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(ns float64) float64 { return ns / 1e6 }
func us(ns float64) float64 { return ns / 1e3 }
