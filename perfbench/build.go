package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"distsketch"
	"distsketch/internal/eval"
	"distsketch/internal/graph"
)

// buildInput is one graph of the build workload with its stretch sample:
// exact distances from a few sources, computed before any timing.
type buildInput struct {
	graphPath string
	envPath   string
	g         *distsketch.Graph
	pairs     []eval.Pair
	exact     [][]distsketch.Dist // rows for the sample's sources only
}

// newBuildInput prepares one graph for building: where its envelope
// goes, and its stretch sample, exact distances from StretchSrcs sources
// to StretchTgts targets each, computed before any timing.
func newBuildInput(p params, name string, g *distsketch.Graph, sampleSeed uint64) *buildInput {
	in := &buildInput{
		graphPath: filepath.Join(p.WorkDir, name+".graph"),
		envPath:   filepath.Join(p.WorkDir, name+".dsk"),
		g:         g,
		exact:     make([][]distsketch.Dist, g.N()),
	}
	r := rand.New(rand.NewPCG(sampleSeed, 7))
	for s := 0; s < p.StretchSrcs; s++ {
		u := r.IntN(g.N())
		if in.exact[u] == nil {
			in.exact[u], _ = graph.MultiSourceDijkstra(g, []int{u})
		}
		for t := 0; t < p.StretchTgts; t++ {
			in.pairs = append(in.pairs, eval.Pair{U: u, V: r.IntN(g.N())})
		}
	}
	return in
}

// buildServed builds, saves and checks the set a serving workload
// serves, with its phase times, and reports what every workload reports
// about its sets. The build is not timed end to end.
func buildServed(res *result, in *buildInput) (buildRep, error) {
	rep, err := buildOnce(in, nil, true)
	if err != nil {
		return rep, fmt.Errorf("building the served set: %w", err)
	}
	if bad := checkBuild(in, &rep); bad != "" {
		res.fail("served set: %s", bad)
	}
	reps := [][]buildRep{{rep}}
	reportCounts(res, reps, len(in.pairs))
	reportPhases(res, reps)
	return rep, nil
}

// buildRep is what one build of one graph measured and produced.
type buildRep struct {
	wallNs, buildNs, saveNs, cpuNs float64
	openNs, queryNs                float64 // the check: reopening the envelope, QueryChecked per pair
	allocBytes                     float64
	gcCycles                       float64
	phaseNs                        map[string]float64
	rounds                         int
	messages                       int64
	wordsMean                      float64
	wordsMax                       int
	stretch                        eval.Report
	boundViolations                int
	envelopeBytes                  int64
	envelopeDigest                 [32]byte
	phases                         []distsketch.PhaseCost
	set                            *distsketch.SketchSet
}

// runBuild measures graph -> BuildContext -> SaveSketchSet on a few
// 2048-node graphs, each built several times in round-robin order.
func runBuild(p params, res *result, tr *tracer) error {
	inputs, err := buildInputs(p)
	if err != nil {
		return err
	}
	res.Base["n"] = p.BuildN
	edges := make([]int, len(inputs))
	for i, in := range inputs {
		edges[i] = in.g.M()
	}
	res.Base["m_per_graph"] = edges
	res.Base["graphs"] = p.BuildGraphs
	res.Base["stretch_sample_pairs_per_graph"] = len(inputs[0].pairs)

	// Set-up and builds run on one P. The engine's workers meet at a
	// barrier every round, so with a worker per vCPU a build waits for
	// whichever vCPU the host is stealing: on a shared 2-vCPU host the
	// median build's wall time moved by 27% across ten runs while its CPU
	// time moved 6%. One worker can be moved off a stolen vCPU.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	res.Base["gomaxprocs_timed"] = 1

	// Set-up: read every graph file back, SetupReps times.
	var setupNs, readNs []float64
	for rep := 0; rep < p.SetupReps; rep++ {
		var total float64
		for _, in := range inputs {
			runtime.GC()
			t := time.Now()
			g, err := readGraphFile(in.graphPath)
			if err != nil {
				return err
			}
			readNs = append(readNs, float64(time.Since(t)))
			total += readNs[len(readNs)-1]
			in.g = g
		}
		setupNs = append(setupNs, total)
	}
	res.add("setup_s", quantile(setupNs, 0.5)/1e9, len(setupNs))
	res.add("graph.read_ms", ms(quantile(readNs, 0.5)), len(readNs))

	plain := buildPhase(p, inputs, nil, res)
	reportBuild(res, plain, inputs)
	if tr == nil {
		return nil
	}

	traced := buildPhase(p, inputs, tr, res)
	res.add("trace.overhead_frac", pooledMedian(traced, wallNs)/pooledMedian(plain, wallNs)-1, countReps(traced))
	checkSameCounts(res, plain, traced)

	// Phase wall times and the stage accounting come from the traced
	// builds.
	reportPhases(res, traced)
	var e2e []float64
	var stages []map[string]int64
	spans := tr.snapshot()
	tree := indexSpans(spans)
	for _, s := range spans {
		if s.Name == "build" {
			e2e = append(e2e, float64(s.dur()))
			stages = append(stages, tree.stageSelf(s))
		}
	}
	acc := accountStages(e2e, stages)
	res.Stages["build"] = acc
	res.add("trace.unaccounted_frac", acc.unaccountedFrac(), acc.Band)
	return parallelSpeedup(res, inputs)
}

func wallNs(r buildRep) float64 { return r.wallNs }

// reportBuild adds the metrics of the untraced builds.
func reportBuild(res *result, reps [][]buildRep, inputs []*buildInput) {
	n := countReps(reps)
	res.add("op_p50_ms", ms(pooledMedian(reps, wallNs)), n)
	// Per build, not per phase: the phase also runs the checks and a
	// forced collection before every build.
	res.add("cpu_ms_per_op", ms(pooledMedian(reps, func(r buildRep) float64 { return r.cpuNs })), n)
	reportCounts(res, reps, len(inputs[0].pairs))
	// The workload's state: the graphs and the last set built from each.
	res.add("live_heap_mb", liveHeapMiB(), 1)
	runtime.KeepAlive(reps)
	runtime.KeepAlive(inputs)

	res.add("distsketch.open_ms", ms(pooledMedian(reps, func(r buildRep) float64 { return r.openNs })), n)
	res.add("distsketch.query_ns", pooledMedian(reps, func(r buildRep) float64 { return r.queryNs }), n)
	gcs := 0.0
	for _, rs := range reps {
		for _, r := range rs {
			gcs += r.gcCycles
		}
	}
	res.add("runtime.gc_cycles", gcs, n)
	envBytes := make([]int64, len(reps))
	for gi, rs := range reps {
		if len(rs) == 0 {
			continue // every build of this graph failed; the run reports it
		}
		envBytes[gi] = rs[0].envelopeBytes
		walls := make([]string, len(rs))
		for i, r := range rs {
			walls[i] = fmt.Sprintf("%.3f", r.wallNs/1e9)
		}
		res.note("graph %d: m=%d rounds=%d messages=%d build wall s %s", gi, inputs[gi].g.M(), rs[0].rounds, rs[0].messages, strings.Join(walls, " "))
	}
	res.Base["envelope_bytes_per_graph"] = envBytes
}

// reportCounts adds what every workload reports about the sets it
// builds: the exact counts (means over graphs; the determinism guard has
// checked that every build of a graph agrees) and the per-build costs of
// the construction layers. samplePairs is the stretch sample per graph.
func reportCounts(res *result, reps [][]buildRep, samplePairs int) {
	n := countReps(reps)
	res.add("build_rounds", meanOfFirst(reps, func(r buildRep) float64 { return float64(r.rounds) }), len(reps))
	res.add("build_messages", meanOfFirst(reps, func(r buildRep) float64 { return float64(r.messages) }), len(reps))
	res.add("sketch_words_mean", meanOfFirst(reps, func(r buildRep) float64 { return r.wordsMean }), len(reps))
	res.add("stretch_mean", meanOfFirst(reps, func(r buildRep) float64 { return r.stretch.AvgStretch }), len(reps)*samplePairs)

	res.add("congest.ns_per_message", pooledMedian(reps, func(r buildRep) float64 { return r.buildNs / float64(r.messages) }), n)
	res.add("runtime.alloc_mb_per_build", pooledMedian(reps, func(r buildRep) float64 { return r.allocBytes })/(1<<20), n)
	res.add("runtime.gc_cycles_per_build", pooledMedian(reps, func(r buildRep) float64 { return r.gcCycles }), n)
	res.add("distsketch.save_ms", ms(pooledMedian(reps, func(r buildRep) float64 { return r.saveNs })), n)
	res.add("distsketch.envelope_bytes", meanOfFirst(reps, func(r buildRep) float64 { return float64(r.envelopeBytes) }), len(reps))
	res.add("distsketch.sketch_words_max", meanOfFirst(reps, func(r buildRep) float64 { return float64(r.wordsMax) }), len(reps))
	res.add("eval.stretch_p99", meanOfFirst(reps, func(r buildRep) float64 { return r.stretch.P99 }), len(reps))
	maxStretch, violations := 0.0, 0
	for _, rs := range reps {
		for _, r := range rs {
			maxStretch = max(maxStretch, r.stretch.MaxStretch)
			violations += r.boundViolations
		}
	}
	res.add("eval.stretch_max", maxStretch, len(reps))
	res.add("eval.bound_violations", float64(violations), n)
}

// reportPhases adds the per-phase wall times (from builds with Progress
// marks) and CONGEST costs.
func reportPhases(res *result, reps [][]buildRep) {
	for _, ph := range []string{"phase 2", "phase 1", "phase 0"} {
		key := "phase" + ph[len(ph)-1:]
		res.add("core.phase_s."+key, pooledMedian(reps, func(r buildRep) float64 { return r.phaseNs[ph] })/1e9, countReps(reps))
		res.add("congest.rounds."+key, meanOfFirst(reps, func(r buildRep) float64 { return float64(phaseCost(r, ph).Rounds) }), len(reps))
		res.add("congest.messages."+key, meanOfFirst(reps, func(r buildRep) float64 { return float64(phaseCost(r, ph).Messages) }), len(reps))
	}
}

// parallelSpeedup is what the other CPUs buy: the first two graphs each
// built once with GOMAXPROCS=1 and once with every CPU, the wall time of
// the first over that of the second. The two builds must agree on
// rounds and messages.
func parallelSpeedup(res *result, inputs []*buildInput) error {
	var speedups []float64
	for gi, in := range inputs[:min(2, len(inputs))] {
		var ns [2]float64
		var sets [2]*distsketch.SketchSet
		for i, procs := range []int{1, runtime.NumCPU()} {
			prev := runtime.GOMAXPROCS(procs)
			runtime.GC()
			t0 := time.Now()
			set, err := distsketch.BuildContext(context.Background(), in.g, sketchOptions())
			ns[i] = float64(time.Since(t0))
			runtime.GOMAXPROCS(prev)
			if err != nil {
				return fmt.Errorf("build at GOMAXPROCS=%d: %w", procs, err)
			}
			sets[i] = set
		}
		if sets[0].Rounds() != sets[1].Rounds() || sets[0].Messages() != sets[1].Messages() {
			res.fail("graph %d: one P gave %d rounds/%d messages, every CPU %d/%d", gi,
				sets[0].Rounds(), sets[0].Messages(), sets[1].Rounds(), sets[1].Messages())
		}
		speedups = append(speedups, ns[0]/ns[1])
	}
	res.add("congest.parallel_speedup", mean(speedups), len(speedups))
	return nil
}

// buildInputs generates the workload's graphs from the seed, writes
// them to disk and computes the exact distances the stretch check needs.
func buildInputs(p params) ([]*buildInput, error) {
	var inputs []*buildInput
	for i := 0; i < p.BuildGraphs; i++ {
		g, err := distsketch.NewRandomWeightedGraph(distsketch.FamilyGeometric, p.BuildN, minWeight, maxWeight, mix(p.Seed, i))
		if err != nil {
			return nil, err
		}
		in := newBuildInput(p, fmt.Sprintf("build-%d", i), g, mix(p.Seed, 1000+i))
		if err := writeGraphFile(in.graphPath, g); err != nil {
			return nil, err
		}
		inputs = append(inputs, in)
	}
	return inputs, nil
}

// buildPhase builds every graph in round-robin order until the run's
// seconds are spent and every graph has at least BuildMinReps builds,
// checking each built set. With a tracer it records one "build" span per
// build with its phase and save spans as children.
func buildPhase(p params, inputs []*buildInput, tr *tracer, res *result) [][]buildRep {
	reps := make([][]buildRep, len(inputs))
	start := time.Now()
	for sweep := 0; ; sweep++ {
		for gi, in := range inputs {
			res.Attempted++
			rep, err := buildOnce(in, tr, tr != nil)
			if err != nil {
				res.Failed++
				res.fail("graph %d build %d: %v", gi, sweep, err)
				continue
			}
			if bad := checkBuild(in, &rep); bad != "" {
				res.Failed++
				res.fail("graph %d build %d: %s", gi, sweep, bad)
			}
			if len(reps[gi]) > 0 {
				checkSameRep(res, gi, reps[gi][0], rep)
				reps[gi][len(reps[gi])-1].set = nil
			}
			reps[gi] = append(reps[gi], rep)
		}
		if sweep+1 >= p.BuildMinReps && time.Since(start).Seconds() >= p.Seconds {
			return reps
		}
	}
}

// buildOnce times one graph -> BuildContext -> SaveSketchSet. With
// phases it marks the end of each TZ phase through Options.Progress, and
// with a tracer it records the build and its phases as spans.
func buildOnce(in *buildInput, tr *tracer, phases bool) (buildRep, error) {
	opts := sketchOptions()
	var rep buildRep
	type mark struct {
		name string
		at   time.Time
	}
	var marks []mark
	if phases {
		// Progress runs after every simulated round on the goroutine that
		// runs the build; only the last round's time of each phase is kept.
		opts.Progress = func(phase string, _ int) {
			now := time.Now()
			if len(marks) > 0 && marks[len(marks)-1].name == phase {
				marks[len(marks)-1].at = now
				return
			}
			marks = append(marks, mark{phase, now})
		}
	}
	runtime.GC()
	m0 := readMem()
	cpu0 := cpuTime()
	t0 := time.Now()
	set, err := distsketch.BuildContext(context.Background(), in.g, opts)
	if err != nil {
		return rep, err
	}
	tb := time.Now()
	if err := distsketch.SaveSketchSet(in.envPath, set, distsketch.SetVersion2); err != nil {
		return rep, err
	}
	t1 := time.Now()
	cpu1 := cpuTime()
	m1 := readMem()

	rep.wallNs = float64(t1.Sub(t0))
	rep.buildNs = float64(tb.Sub(t0))
	rep.saveNs = float64(t1.Sub(tb))
	rep.cpuNs = float64(cpu1 - cpu0)
	rep.allocBytes = float64(m1.totalAlloc - m0.totalAlloc)
	rep.gcCycles = float64(m1.numGC - m0.numGC)
	rep.set = set
	rep.rounds = set.Rounds()
	rep.messages = set.Messages()
	rep.wordsMean = set.MeanSketchWords()
	rep.wordsMax = set.MaxSketchWords()
	rep.phases = set.Cost().Phases
	rep.phaseNs = make(map[string]float64)
	var req, root uint64
	if tr != nil {
		req = tr.newID()
		root = tr.record(span{Req: req, Name: "build", Start: tr.at(t0), End: tr.at(t1)})
		tr.record(span{Req: req, Parent: root, Name: "distsketch.save", Start: tr.at(tb), End: tr.at(t1)})
	}
	prev := t0
	for _, mk := range marks {
		rep.phaseNs[mk.name] = float64(mk.at.Sub(prev))
		if tr != nil {
			tr.record(span{Req: req, Parent: root, Name: "core." + mk.name, Start: tr.at(prev), End: tr.at(mk.at)})
		}
		prev = mk.at
	}
	data, err := os.ReadFile(in.envPath)
	if err != nil {
		return rep, err
	}
	rep.envelopeBytes = int64(len(data))
	rep.envelopeDigest = sha256.Sum256(data)
	return rep, nil
}

// checkBuild checks a built set: every sampled pair's stretch lies in
// [1, 2k-1] against the exact distance, and the saved envelope, opened
// again, answers exactly as the in-memory set does.
func checkBuild(in *buildInput, rep *buildRep) string {
	set := rep.set
	rep.stretch = eval.Evaluate(in.exact, func(u, v int) distsketch.Dist { return set.Query(u, v) }, in.pairs)
	for _, pr := range in.pairs {
		d, est := in.exact[pr.U][pr.V], set.Query(pr.U, pr.V)
		if pr.U != pr.V && (est < d || est > stretchCap*d) {
			rep.boundViolations++
		}
	}
	if rep.boundViolations > 0 {
		return fmt.Sprintf("%d sampled pairs outside stretch [1, %d]", rep.boundViolations, stretchCap)
	}
	t0 := time.Now()
	back, err := distsketch.OpenSketchSet(in.envPath)
	if err != nil {
		return fmt.Sprintf("reopening envelope: %v", err)
	}
	defer back.Close()
	t1 := time.Now()
	got := make([]distsketch.Dist, len(in.pairs))
	for i, pr := range in.pairs {
		if got[i], err = back.QueryChecked(pr.U, pr.V); err != nil {
			return fmt.Sprintf("reopened envelope: QueryChecked(%d,%d): %v", pr.U, pr.V, err)
		}
	}
	rep.openNs = float64(t1.Sub(t0))
	rep.queryNs = float64(time.Since(t1)) / float64(len(in.pairs))
	for i, pr := range in.pairs {
		if got[i] != set.Query(pr.U, pr.V) {
			return fmt.Sprintf("reopened envelope answers (%d,%d) = %d, built set %d", pr.U, pr.V, got[i], set.Query(pr.U, pr.V))
		}
	}
	return ""
}

// checkSameRep is the determinism guard: repeated builds of one graph
// must agree exactly on every count and on the envelope bytes.
func checkSameRep(res *result, gi int, a, b buildRep) {
	if a.rounds != b.rounds || a.messages != b.messages || a.wordsMean != b.wordsMean ||
		a.stretch.AvgStretch != b.stretch.AvgStretch || a.envelopeDigest != b.envelopeDigest {
		res.fail("nondeterminism on graph %d: rounds %d/%d messages %d/%d words %v/%v stretch %v/%v envelope equal %v",
			gi, a.rounds, b.rounds, a.messages, b.messages, a.wordsMean, b.wordsMean,
			a.stretch.AvgStretch, b.stretch.AvgStretch, a.envelopeDigest == b.envelopeDigest)
	}
}

// checkSameCounts compares the first build of each graph across two
// phases of one run.
func checkSameCounts(res *result, a, b [][]buildRep) {
	for gi := range a {
		if len(a[gi]) > 0 && len(b[gi]) > 0 {
			checkSameRep(res, gi, a[gi][0], b[gi][0])
		}
	}
}

func phaseCost(r buildRep, name string) distsketch.PhaseCost {
	for _, ph := range r.phases {
		if ph.Name == name {
			return ph
		}
	}
	return distsketch.PhaseCost{Name: name}
}

func repValues(rs []buildRep, f func(buildRep) float64) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = f(r)
	}
	return out
}

// pooledMedian is the median over every build of every graph.
func pooledMedian(reps [][]buildRep, f func(buildRep) float64) float64 {
	var all []float64
	for _, rs := range reps {
		all = append(all, repValues(rs, f)...)
	}
	return quantile(all, 0.5)
}

// meanOfFirst is the mean over graphs of an exact per-graph value (the
// determinism guard has checked that every build of a graph agrees).
func meanOfFirst(reps [][]buildRep, f func(buildRep) float64) float64 {
	var vs []float64
	for _, rs := range reps {
		if len(rs) > 0 {
			vs = append(vs, f(rs[0]))
		}
	}
	return mean(vs)
}

func countReps(reps [][]buildRep) int {
	n := 0
	for _, rs := range reps {
		n += len(rs)
	}
	return n
}

// cpuTime is the process's user+system CPU time in nanoseconds.
func cpuTime() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

func writeGraphFile(path string, g *distsketch.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := distsketch.WriteGraph(bw, g); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readGraphFile(path string) (*distsketch.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return distsketch.ReadGraph(bufio.NewReader(f))
}
