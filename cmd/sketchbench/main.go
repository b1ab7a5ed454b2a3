// sketchbench runs the per-theorem reproduction experiments (E1–E12,
// DESIGN.md §4) and prints their tables — the data behind EXPERIMENTS.md.
// It also measures the facade's serving hot path: the decode-once query
// (ParseSketch + Sketch.Estimate) against the byte-level Estimate that
// re-decodes per call.
//
// Usage:
//
//	sketchbench                 # all experiments, quick scale
//	sketchbench -scale full     # the EXPERIMENTS.md configuration
//	sketchbench -exp E6,E10     # a subset
//	sketchbench -json bench.json # also emit per-run wall-clock JSON
//
// The -json report exists so successive PRs can track the performance
// trajectory: commit the output as BENCH_<rev>.json and diff the
// per-experiment seconds (and query-path nanoseconds) across revisions.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"distsketch"
	"distsketch/internal/experiments"
	"distsketch/internal/serve"
)

// benchReport is the -json output schema.
type benchReport struct {
	Scale        string           `json:"scale"`
	GoVersion    string           `json:"go_version"`
	GOMAXPROCS   int              `json:"gomaxprocs"`
	Experiments  []benchRun       `json:"experiments"`
	QueryPath    []queryPathRun   `json:"query_path,omitempty"`
	LoadPath     []loadPathRun    `json:"load_path,omitempty"`
	RouterPath   []routerFaultRun `json:"router_path,omitempty"`
	TotalSeconds float64          `json:"total_seconds"`
	OK           bool             `json:"ok"`
}

// benchRun is one experiment's wall-clock measurement.
type benchRun struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
	OK      bool    `json:"ok"`
}

// queryPathRun compares the decode-once query path (Sketch.Estimate on
// pre-parsed sketches) against the byte-level path (Estimate re-decoding
// both blobs per call) for one sketch kind.
type queryPathRun struct {
	Kind        string  `json:"kind"`
	DecodedNs   float64 `json:"decoded_ns_per_query"`
	ByteLevelNs float64 `json:"byte_level_ns_per_query"`
	Speedup     float64 `json:"speedup"`
}

// loadPathRun measures set startup for one (kind, backing) pair: load
// latency and allocated bytes per label. Loading scans the envelope's
// directory and defers label decoding to first touch. Backing "heap" is
// the copying ReadSketchSet path, "mmap" is OpenSketchSet mapping the
// envelope file and touching no payload byte — the startup mode for
// sets larger than RAM.
type loadPathRun struct {
	Kind          string  `json:"kind"`
	Version       int     `json:"envelope_version"`
	Backing       string  `json:"backing"`
	EnvelopeBytes int     `json:"envelope_bytes"`
	NsPerLabel    float64 `json:"read_ns_per_label"`
	AllocPerLabel float64 `json:"alloc_bytes_per_label"`
}

// routerFaultRun measures the replicated router's availability under
// one injected fault scenario: how many queries of a fixed mixed
// workload answered versus degraded, the answered-path p99 latency,
// and the failover counters the router accumulated. With one of two
// replicas down, availability staying at 1.0 is the point of the
// replica sets; with a whole replica set down, availability is the
// fraction of pairs that avoid the dead range — the same per-pair
// degradation a single dead shard has always had. The two slow-replica
// rows price hedging: the same delayed replica with hedging on and
// off, the p99 gap being the tail the hedge removes.
type routerFaultRun struct {
	Scenario     string  `json:"scenario"`
	Shards       int     `json:"shards"`
	Replicas     int     `json:"replicas"`
	Queries      int     `json:"queries"`
	Answered     int     `json:"answered"`
	Degraded     int     `json:"degraded"`
	Availability float64 `json:"availability"`
	P99Ms        float64 `json:"answered_p99_ms"`
	Retries      int64   `json:"retries"`
	HedgesFired  int64   `json:"hedges_fired"`
	HedgesWon    int64   `json:"hedges_won"`
}

func main() {
	scale := flag.String("scale", "quick", "sweep scale: quick | full")
	exp := flag.String("exp", "all", "comma-separated experiment IDs (E1..E12) or 'all'")
	jsonPath := flag.String("json", "", "write per-run wall-clock JSON to this file ('-' for stdout)")
	queryBench := flag.Bool("querybench", true, "measure the decode-once vs byte-level query path per kind")
	loadBench := flag.Bool("loadbench", true, "measure set startup (heap copy vs mmap open)")
	routerBench := flag.Bool("routerbench", false, "measure routed availability under replica faults and the hedge's tail win (injects faults and delays; opt-in)")
	flag.Parse()

	var sc experiments.Scale
	switch *scale {
	case "quick":
		sc = experiments.Quick
	case "full":
		sc = experiments.Full
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q (want quick or full)\n", *scale)
		os.Exit(2)
	}

	report := benchReport{
		Scale:      *scale,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		OK:         true,
	}
	run := func(name string, tab *experiments.Table, took time.Duration) {
		fmt.Println(tab.String())
		fmt.Printf("(%s)\n\n", took.Round(time.Millisecond))
		report.Experiments = append(report.Experiments, benchRun{
			Name: name, Seconds: took.Seconds(), OK: tab.OK(),
		})
		if !tab.OK() {
			report.OK = false
		}
	}

	names := experiments.Names()
	if *exp != "all" {
		names = strings.Split(*exp, ",")
	}
	cfg := experiments.NewConfig(sc)
	total := time.Now()
	for _, name := range names {
		name = strings.TrimSpace(name)
		f := experiments.ByName(name)
		if f == nil {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", name)
			os.Exit(2)
		}
		start := time.Now()
		run(name, f(cfg), time.Since(start))
	}
	if *queryBench {
		report.QueryPath = runQueryBench()
		fmt.Println("query path: decode-once (Sketch.Estimate) vs byte-level (Estimate) on 256-node geometric, 200k queries")
		fmt.Printf("%-10s  %14s  %14s  %8s\n", "kind", "decoded ns/q", "bytes ns/q", "speedup")
		for _, r := range report.QueryPath {
			fmt.Printf("%-10s  %14.1f  %14.1f  %7.1fx\n", r.Kind, r.DecodedNs, r.ByteLevelNs, r.Speedup)
		}
		fmt.Println()
	}
	if *loadBench {
		report.LoadPath = runLoadBench()
		fmt.Println("load path: set startup on 256-node geometric envelopes (heap copy vs mmap open)")
		fmt.Printf("%-10s  %3s  %-7s  %12s  %14s  %16s\n", "kind", "ver", "backing", "bytes", "ns/label", "alloc B/label")
		for _, r := range report.LoadPath {
			fmt.Printf("%-10s  v%-2d  %-7s  %12d  %14.0f  %16.0f\n", r.Kind, r.Version, r.Backing, r.EnvelopeBytes, r.NsPerLabel, r.AllocPerLabel)
		}
		fmt.Println()
	}
	if *routerBench {
		report.RouterPath = runRouterBench()
		fmt.Println("router path: availability under replica faults, 2 shards x 2 replicas on 256-node geometric (landmark)")
		fmt.Printf("%-22s  %7s  %8s  %8s  %6s  %11s  %8s  %7s  %6s\n",
			"scenario", "queries", "answered", "degraded", "avail", "p99 ms", "retries", "hedges", "won")
		for _, r := range report.RouterPath {
			fmt.Printf("%-22s  %7d  %8d  %8d  %6.3f  %11.2f  %8d  %7d  %6d\n",
				r.Scenario, r.Queries, r.Answered, r.Degraded, r.Availability, r.P99Ms, r.Retries, r.HedgesFired, r.HedgesWon)
		}
		fmt.Println()
	}
	report.TotalSeconds = time.Since(total).Seconds()
	if *exp == "all" {
		fmt.Printf("total: %s\n", time.Duration(report.TotalSeconds*float64(time.Second)).Round(time.Millisecond))
	}
	if *jsonPath != "" {
		if err := writeReport(*jsonPath, &report); err != nil {
			fmt.Fprintf(os.Stderr, "writing %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
	}
	if !report.OK {
		fmt.Fprintln(os.Stderr, "some paper bounds were violated")
		os.Exit(1)
	}
}

// runQueryBench times the facade's two query paths over every sketch
// kind: parse-once-then-estimate versus re-decoding both blobs per call.
// The gap is the cost the decode-once redesign removes from the serving
// hot path.
func runQueryBench() []queryPathRun {
	const (
		n       = 256
		queries = 200_000
	)
	g, err := distsketch.NewRandomWeightedGraph(distsketch.FamilyGeometric, n, 1, 100, 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "querybench graph: %v\n", err)
		os.Exit(1)
	}
	var out []queryPathRun
	for _, kind := range []distsketch.Kind{
		distsketch.KindTZ, distsketch.KindLandmark, distsketch.KindCDG, distsketch.KindGraceful,
	} {
		set, err := distsketch.Build(g, distsketch.Options{Kind: kind, K: 3, Eps: 0.25, Seed: 1})
		if err != nil {
			fmt.Fprintf(os.Stderr, "querybench %s: %v\n", kind, err)
			os.Exit(1)
		}
		blobs := make([][]byte, n)
		parsed := make([]*distsketch.Sketch, n)
		for u := 0; u < n; u++ {
			blobs[u] = set.SketchBytes(u)
			parsed[u], err = distsketch.ParseSketch(blobs[u])
			if err != nil {
				fmt.Fprintf(os.Stderr, "querybench %s parse: %v\n", kind, err)
				os.Exit(1)
			}
		}
		pair := func(i int) (int, int) { return i % n, (i*37 + 11) % n }

		// Best of five passes per path: one pass is at the mercy of
		// scheduler noise on a shared machine, and the minimum is the
		// standard estimator for the code's actual cost.
		best := func(f func()) time.Duration {
			bestTook := time.Duration(1<<63 - 1)
			for rep := 0; rep < 5; rep++ {
				start := time.Now()
				f()
				if took := time.Since(start); took < bestTook {
					bestTook = took
				}
			}
			return bestTook
		}
		decoded := best(func() {
			for i := 0; i < queries; i++ {
				u, v := pair(i)
				if _, err := parsed[u].Estimate(parsed[v]); err != nil {
					fmt.Fprintf(os.Stderr, "querybench %s: %v\n", kind, err)
					os.Exit(1)
				}
			}
		})
		byteLevel := best(func() {
			for i := 0; i < queries; i++ {
				u, v := pair(i)
				if _, err := distsketch.Estimate(blobs[u], blobs[v]); err != nil {
					fmt.Fprintf(os.Stderr, "querybench %s: %v\n", kind, err)
					os.Exit(1)
				}
			}
		})

		out = append(out, queryPathRun{
			Kind:        string(kind),
			DecodedNs:   float64(decoded.Nanoseconds()) / queries,
			ByteLevelNs: float64(byteLevel.Nanoseconds()) / queries,
			Speedup:     float64(byteLevel.Nanoseconds()) / float64(decoded.Nanoseconds()),
		})
	}
	return out
}

// runLoadBench times set startup from the envelope of every sketch kind
// in both modes, reporting per-label latency and allocated bytes:
// ReadSketchSet copies the payload onto the heap, OpenSketchSet maps the
// file. Both scan the O(n) directory and point each blob into the
// payload; the mmap row should allocate near nothing per label — only
// the directory scan and the set header.
func runLoadBench() []loadPathRun {
	const (
		n    = 256
		reps = 50
	)
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "loadbench "+format+"\n", args...)
		os.Exit(1)
	}
	g, err := distsketch.NewRandomWeightedGraph(distsketch.FamilyGeometric, n, 1, 100, 1)
	if err != nil {
		fail("graph: %v", err)
	}
	var out []loadPathRun
	for _, kind := range []distsketch.Kind{
		distsketch.KindTZ, distsketch.KindLandmark, distsketch.KindCDG, distsketch.KindGraceful,
	} {
		set, err := distsketch.Build(g, distsketch.Options{Kind: kind, K: 3, Eps: 0.25, Seed: 1})
		if err != nil {
			fail("%s: %v", kind, err)
		}
		var env bytes.Buffer
		if _, err := set.WriteTo(&env); err != nil {
			fail("%s: %v", kind, err)
		}
		path := filepath.Join(os.TempDir(), fmt.Sprintf("loadbench-%s-%d.dsk", kind, os.Getpid()))
		if err := os.WriteFile(path, env.Bytes(), 0o644); err != nil {
			fail("%s: %v", kind, err)
		}
		readHeap := func() (*distsketch.SketchSet, error) { return distsketch.ReadSketchSet(bytes.NewReader(env.Bytes())) }
		openMapped := func() (*distsketch.SketchSet, error) { return distsketch.OpenSketchSet(path) }
		for _, load := range []func() (*distsketch.SketchSet, error){readHeap, openMapped} {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			start := time.Now()
			backing := ""
			for r := 0; r < reps; r++ {
				loaded, err := load()
				if err != nil {
					fail("%s: %v", kind, err)
				}
				backing = loaded.Backing()
				loaded.Close()
			}
			took := time.Since(start)
			runtime.ReadMemStats(&after)
			out = append(out, loadPathRun{
				Kind:          string(kind),
				Version:       distsketch.SetVersion2,
				Backing:       backing,
				EnvelopeBytes: env.Len(),
				NsPerLabel:    float64(took.Nanoseconds()) / float64(reps*n),
				AllocPerLabel: float64(after.TotalAlloc-before.TotalAlloc) / float64(reps*n),
			})
		}
		os.Remove(path)
	}
	return out
}

// benchFaultTransport injects per-host faults into the router's
// upstream client: down hosts refuse connections, delayed hosts answer
// late (respecting cancellation, so a hedge win tears the slow request
// down).
type benchFaultTransport struct {
	mu    sync.Mutex
	down  map[string]bool
	delay map[string]time.Duration
}

func (ft *benchFaultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ft.mu.Lock()
	isDown := ft.down[req.URL.Host]
	d := ft.delay[req.URL.Host]
	ft.mu.Unlock()
	if isDown {
		return nil, fmt.Errorf("bench fault: %s is down", req.URL.Host)
	}
	if d > 0 {
		select {
		case <-req.Context().Done():
			return nil, req.Context().Err()
		case <-time.After(d):
		}
	}
	return http.DefaultTransport.RoundTrip(req)
}

// runRouterBench measures what the replica sets buy: a 2-shard fleet
// with 2 replicas per shard is hammered with mixed same- and
// cross-shard traffic under injected faults. One replica down must not
// cost availability (failover covers it); a whole replica set down
// degrades exactly the pairs that touch it; and a slow replica's tail
// latency is priced with hedging on and off.
func runRouterBench() []routerFaultRun {
	const (
		n        = 256
		shards   = 2
		replicas = 2
	)
	fail := func(err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "routerbench: %v\n", err)
			os.Exit(1)
		}
	}
	g, err := distsketch.NewRandomWeightedGraph(distsketch.FamilyGeometric, n, 1, 100, 1)
	fail(err)
	set, err := distsketch.Build(g, distsketch.Options{Kind: distsketch.KindLandmark, Eps: 0.25, Seed: 1})
	fail(err)
	dir, err := os.MkdirTemp("", "routerbench")
	fail(err)
	defer os.RemoveAll(dir)
	paths, err := distsketch.SaveShards(dir, set, distsketch.EvenShardRanges(n, shards))
	fail(err)

	// replicaHosts[s][r] is replica r of shard s; each replica is an
	// independent server over the same shard envelope.
	routerShards := make([]serve.RouterShard, shards)
	replicaHosts := make([][]string, shards)
	for s, p := range paths {
		var bases []string
		for r := 0; r < replicas; r++ {
			shard, err := distsketch.OpenSketchSet(p)
			fail(err)
			defer shard.Close()
			srv, err := serve.New(shard, serve.Options{})
			fail(err)
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			bases = append(bases, ts.URL)
			replicaHosts[s] = append(replicaHosts[s], strings.TrimPrefix(ts.URL, "http://"))
		}
		lo, hi := 0, 0
		{
			shard, err := distsketch.OpenSketchSet(p)
			fail(err)
			lo, hi = shard.NodeRange()
			shard.Close()
		}
		routerShards[s] = serve.RouterShard{Replicas: bases, Range: distsketch.ShardRange{Lo: lo, Hi: hi}}
	}

	pair := func(i int) (int, int) { return i % n, (i*37 + 11) % n }
	hammer := func(base string, client *http.Client, queries int) (answered, degraded int, p99ms float64) {
		var lat []time.Duration
		for i := 0; i < queries; i++ {
			u, v := pair(i)
			start := time.Now()
			resp, err := client.Get(fmt.Sprintf("%s/query?u=%d&v=%d", base, u, v))
			if err != nil {
				degraded++
				continue
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				degraded++
				continue
			}
			answered++
			lat = append(lat, time.Since(start))
		}
		if len(lat) > 0 {
			sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
			p99ms = float64(lat[len(lat)*99/100].Nanoseconds()) / 1e6
		}
		return answered, degraded, p99ms
	}

	type scenario struct {
		name    string
		queries int
		hedge   time.Duration // 0 = default on, negative = off
		prep    func(ft *benchFaultTransport)
	}
	scenarios := []scenario{
		{name: "baseline", queries: 1500, prep: func(ft *benchFaultTransport) {}},
		{name: "one-replica-down", queries: 1500, prep: func(ft *benchFaultTransport) {
			ft.down[replicaHosts[0][0]] = true
		}},
		{name: "replica-set-down", queries: 1500, prep: func(ft *benchFaultTransport) {
			ft.down[replicaHosts[0][0]] = true
			ft.down[replicaHosts[0][1]] = true
		}},
		{name: "slow-replica-hedged", queries: 300, hedge: 2 * time.Millisecond, prep: func(ft *benchFaultTransport) {
			ft.delay[replicaHosts[0][0]] = 15 * time.Millisecond
		}},
		{name: "slow-replica-no-hedge", queries: 300, hedge: -1, prep: func(ft *benchFaultTransport) {
			ft.delay[replicaHosts[0][0]] = 15 * time.Millisecond
		}},
	}

	var out []routerFaultRun
	for _, sc := range scenarios {
		ft := &benchFaultTransport{down: map[string]bool{}, delay: map[string]time.Duration{}}
		sc.prep(ft)
		router, err := serve.NewRouter(routerShards, serve.RouterOptions{
			Transport:    ft,
			HedgeDelay:   sc.hedge,
			RetryBackoff: time.Millisecond,
		})
		fail(err)
		routerTS := httptest.NewServer(router.Handler())
		answered, degraded, p99 := hammer(routerTS.URL, routerTS.Client(), sc.queries)
		var stats serve.RouterStatsReply
		resp, err := routerTS.Client().Get(routerTS.URL + "/stats")
		fail(err)
		fail(json.NewDecoder(resp.Body).Decode(&stats))
		resp.Body.Close()
		routerTS.Close()
		router.Close()
		out = append(out, routerFaultRun{
			Scenario:     sc.name,
			Shards:       shards,
			Replicas:     replicas,
			Queries:      sc.queries,
			Answered:     answered,
			Degraded:     degraded,
			Availability: float64(answered) / float64(sc.queries),
			P99Ms:        p99,
			Retries:      stats.Retries,
			HedgesFired:  stats.HedgesFired,
			HedgesWon:    stats.HedgesWon,
		})
	}
	return out
}

func writeReport(path string, r *benchReport) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
