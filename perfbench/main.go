package main

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"distsketch"
)

// Sketch construction shared by every workload. The TZ hierarchy seed is
// fixed: with Bernoulli sampling the top level holds about 13 of 2048
// nodes, and redrawing it per run swings sketch size and build cost by
// 15-20% between seeds, which would swamp every bound. The graphs and
// the request streams come from --seed.
const (
	tzK        = 3
	tzSeed     = 1
	minWeight  = 1
	maxWeight  = 100
	stretchCap = 2*tzK - 1

	routedShards   = 4 // node-range shards of the routed-read set
	routedReplicas = 2 // servers per shard

	// The graphs routed-read and churn-rw serve, and their stretch
	// samples, are fixed; --seed draws their traffic (request sequence,
	// update schedule, read pool). One 2048-node graph's CONGEST rounds
	// move by ±13% between graph seeds: build averages that over six
	// graphs a run, but a single served graph would carry it into every
	// exact count of the serving workloads.
	servedGraphSeed = 1
)

func sketchOptions() distsketch.Options {
	return distsketch.Options{Kind: distsketch.KindTZ, K: tzK, Seed: tzSeed}
}

// params fixes one run: the workload, its seed and length, and every
// input size. fullScale gives the sizes of a benchmark run; the self-test
// shrinks them.
type params struct {
	Workload string
	Seed     uint64
	Seconds  float64
	Trace    bool
	Root     string // checkout root
	WorkDir  string // inputs, results and traces

	SetupReps int // set-ups per run; setup_s is their median

	BuildN       int // nodes per build graph
	BuildGraphs  int // graphs per run, each built BuildMinReps+ times
	BuildMinReps int
	StretchSrcs  int // exact-distance sources per graph
	StretchTgts  int // sampled targets per source

	RoutedN         int
	BatchPairs      int
	PassBatches     int // batches per pass of the fixed request sequence
	SinglesPerBatch int // single queries sent after each batch

	ChurnN      int
	UpdateEdges int     // edge decreases per update batch
	WriteRate   float64 // update batches per second
	ReadPool    int     // distinct read batches, cycled
	CheckPairs  int     // pairs compared against a fresh build after the run
}

func fullScale(workload string, seed uint64, seconds float64, trace bool, root string) params {
	return params{
		Workload: workload, Seed: seed, Seconds: seconds, Trace: trace, Root: root,
		WorkDir:   filepath.Join(root, ".bench_build", "perfbench"),
		SetupReps: 11,

		BuildN: 2048, BuildGraphs: 6, BuildMinReps: 2,
		StretchSrcs: 32, StretchTgts: 64,

		RoutedN: 2048, BatchPairs: 64,
		PassBatches: 128, SinglesPerBatch: 4,

		// 4 update batches/s keep the writer busy a little over half the
		// time; at 5/s it was busy ~75% and, whenever the host slowed, the
		// open-loop queue grew and the update p90 swung by 20% between runs.
		ChurnN: 1024, UpdateEdges: 16, WriteRate: 4, ReadPool: 512, CheckPairs: 4096,
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	workload := fl.String("workload", "", "workload to run: "+strings.Join(workloads, ", "))
	seed := fl.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fl.Float64("seconds", 25, "length of the timed phase in seconds")
	trace := fl.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	root := fl.String("root", ".", "checkout root; all files go under <root>/.bench_build/perfbench")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	p := fullScale(*workload, *seed, *seconds, *trace == 1, *root)
	res, err := execute(p)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := res.print(stdout); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !res.correct() {
		return 1
	}
	return 0
}

// execute runs one workload in a private input directory and saves the
// full result record (and, when traced, the spans) under WorkDir.
func execute(p params) (*result, error) {
	runFn := map[string]func(params, *result, *tracer) error{
		wBuild: runBuild, wRouted: runRouted, wChurn: runChurn,
	}[p.Workload]
	if runFn == nil {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", p.Workload, strings.Join(workloads, ", "))
	}
	if p.Seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	for _, d := range []string{"results", "traces"} {
		if err := os.MkdirAll(filepath.Join(p.WorkDir, d), 0o755); err != nil {
			return nil, err
		}
	}
	inputs, err := os.MkdirTemp(p.WorkDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(inputs)
	res := newResult(p)
	recordBase(p, res)
	var tr *tracer
	if p.Trace {
		tr = newTracer()
	}
	pp := p
	pp.WorkDir = inputs
	if err := runFn(pp, res, tr); err != nil {
		return nil, fmt.Errorf("%s: %w", p.Workload, err)
	}
	if res.Attempted > 0 {
		res.add("ops_failed_frac", float64(res.Failed)/float64(res.Attempted), res.Attempted)
	}
	res.complete()
	stem := fmt.Sprintf("%s-seed%d-trace%d", p.Workload, p.Seed, map[bool]int{false: 0, true: 1}[p.Trace])
	if tr != nil {
		path := filepath.Join(p.WorkDir, "traces", stem+".jsonl.gz")
		if err := tr.write(path); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		res.note("spans written to %s", path)
	}
	if err := res.save(filepath.Join(p.WorkDir, "results", stem+".json")); err != nil {
		return nil, fmt.Errorf("writing result: %w", err)
	}
	return res, nil
}

// recordBase fills in what a result must be read against: the seed, the
// code, the toolchain and machine, and the input sizes. Workloads add
// their own sizes.
func recordBase(p params, res *result) {
	b := res.Base
	b["workload"] = p.Workload
	b["seed"] = p.Seed
	b["seconds"] = p.Seconds
	b["traced"] = p.Trace
	b["commit"] = vcsRevision()
	b["source_sha256"] = sourceDigest(p.Root)
	b["go_version"] = runtime.Version()
	b["gomaxprocs"] = runtime.GOMAXPROCS(0)
	b["gomaxprocs_timed"] = runtime.GOMAXPROCS(0) // build and routed-read time on one P
	b["nproc"] = runtime.NumCPU()
	b["goos_goarch"] = runtime.GOOS + "/" + runtime.GOARCH
	b["started_utc"] = time.Now().UTC().Format(time.RFC3339)
	b["sketch"] = fmt.Sprintf("tz k=%d hierarchy seed=%d, geometric graphs, weights %d-%d", tzK, tzSeed, minWeight, maxWeight)
	b["setup_reps"] = p.SetupReps
}

// vcsRevision is the commit the binary was built from, when the build
// ran inside a git checkout.
func vcsRevision() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", ""
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			return rev + dirty
		}
	}
	return "unknown"
}

// sourceDigest hashes the library's Go sources and go.mod under root
// (skipping the benchmark and dot directories), identifying the code
// under test when no commit is available.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || name == "perfbench" || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", rel, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// mix derives the i-th input seed of a run from its --seed.
func mix(seed uint64, i int) uint64 {
	x := seed*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	x ^= x >> 31
	x *= 0x94d049bb133111eb
	return x ^ x>>29
}

// memSnap is the part of runtime.MemStats the benchmark reads.
type memSnap struct {
	totalAlloc uint64
	numGC      uint32
	heapAlloc  uint64
}

func readMem() memSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSnap{totalAlloc: m.TotalAlloc, numGC: m.NumGC, heapAlloc: m.HeapAlloc}
}

// liveHeapMiB is the heap in use after forced collections.
func liveHeapMiB() float64 {
	// The second collection also empties the sync.Pool victim caches the
	// first one left behind.
	runtime.GC()
	runtime.GC()
	return float64(readMem().heapAlloc) / (1 << 20)
}

func fileSize(path string) int {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return int(fi.Size())
}
