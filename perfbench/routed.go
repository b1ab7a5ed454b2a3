package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"time"

	"distsketch"
	"distsketch/internal/serve"
)

// routedPass is the fixed request sequence one pass of the read phase
// sends: each batch is followed by a few single queries. Expected
// answers come from the in-memory reference set.
type routedPass struct {
	batches    [][]serve.QueryPair
	bodies     [][]byte
	batchWant  [][]distsketch.Dist
	singles    [][]serve.QueryPair
	singleWant [][]distsketch.Dist
	crossFrac  float64
}

// fleet is one set-up of the routed topology: replica servers over
// mmap'd shard envelopes and a router in front of them.
type fleet struct {
	sets      []*distsketch.SketchSet
	shardSrvs []*httptest.Server
	router    *serve.Router
	routerSrv *httptest.Server
}

func (f *fleet) close() {
	if f.routerSrv != nil {
		f.routerSrv.Close()
	}
	if f.router != nil {
		f.router.Close()
	}
	for _, s := range f.shardSrvs {
		s.Close()
	}
	for _, s := range f.sets {
		s.Close()
	}
}

// routedRun is what one read phase measured.
type routedRun struct {
	singleNs, batchNs []float64
	pairs             int
	elapsedNs, cpuNs  float64
	passCross         []float64
	passP50           []float64 // batch p50 of each pass, ms
	mem0, mem1        memSnap
	stats             serve.RouterStatsReply
}

// runRouted measures single and batched queries through a router over
// 4 shards x 2 replicas.
func runRouted(p params, res *result, tr *tracer) error {
	g, err := distsketch.NewRandomWeightedGraph(distsketch.FamilyGeometric, p.RoutedN, minWeight, maxWeight, mix(servedGraphSeed, 100))
	if err != nil {
		return err
	}
	in := newBuildInput(p, "routed", g, mix(servedGraphSeed, 103))
	built, err := buildServed(res, in)
	if err != nil {
		return err
	}
	ref := built.set
	if tr != nil {
		if err := parallelSpeedup(res, []*buildInput{in}); err != nil {
			return err
		}
	}
	// Set-up and reads run on one P. A routed batch is one chain of ~95
	// sequential loopback hops (client, router, replicas, all in this
	// process); with a second P each hop may wake the other vCPU, and on a
	// shared 2-vCPU host that wake-up latency moved batch p50 by ~30%
	// from one minute to the next. On one P every hop hands off on the
	// same thread.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	res.Base["gomaxprocs_timed"] = 1
	ranges := distsketch.EvenShardRanges(g.N(), routedShards)
	paths, err := distsketch.SaveShards(p.WorkDir, ref, ranges)
	if err != nil {
		return err
	}
	pass := makeRoutedPass(p, ref, ranges)
	cover := coverPairs(g.N(), p.BatchPairs, mix(p.Seed, 101))
	res.Base["n"], res.Base["m"], res.Base["graph_seed"] = g.N(), g.M(), servedGraphSeed
	res.Base["shards"], res.Base["replicas"] = routedShards, routedReplicas
	res.Base["batch_pairs"], res.Base["pass"] = p.BatchPairs, fmt.Sprintf("%d batches, %d singles after each", p.PassBatches, p.SinglesPerBatch)
	res.Base["client_connections"] = 1
	envBytes := 0
	for _, path := range paths {
		envBytes += fileSize(path)
	}
	res.Base["envelope_bytes"] = envBytes

	client := newHTTPClient(nil)
	defer client.close()
	var setupNs, openNs, discoverNs []float64
	var f *fleet
	for rep := 0; rep < p.SetupReps; rep++ {
		if f != nil {
			f.close()
		}
		runtime.GC()
		t0 := time.Now()
		var opens []float64
		var disc float64
		f, opens, disc, err = startFleet(paths, client, nil)
		if err == nil {
			err = warmFleet(client, f, p.BatchPairs, cover, ref)
		}
		if err != nil {
			if f != nil {
				f.close()
			}
			return err
		}
		setupNs = append(setupNs, float64(time.Since(t0)))
		openNs = append(openNs, opens...)
		discoverNs = append(discoverNs, disc)
	}
	res.add("setup_s", quantile(setupNs, 0.5)/1e9, len(setupNs))
	res.add("distsketch.open_ms", ms(quantile(openNs, 0.5)), len(openNs))
	res.add("serve.router.discover_ms", ms(quantile(discoverNs, 0.5)), len(discoverNs))

	plain := routedPhase(p, f, client, pass, res)
	res.add("live_heap_mb", liveHeapMiB(), 1)
	f.close()
	reportRouted(res, plain)
	if tr == nil {
		return nil
	}

	tclient := newHTTPClient(tr)
	defer tclient.close()
	tf, _, _, err := startFleet(paths, client, tr)
	if err == nil {
		err = warmFleet(client, tf, p.BatchPairs, cover, ref)
	}
	if err != nil {
		if tf != nil {
			tf.close()
		}
		return err
	}
	traced := routedPhase(p, tf, tclient, pass, res)
	tf.close()
	res.add("trace.overhead_frac", quantile(traced.batchNs, 0.5)/quantile(plain.batchNs, 0.5)-1, len(traced.batchNs))
	analyzeRoutedSpans(res, tr.snapshot(), p.BatchPairs)
	replayRouted(res, ref, pass)
	return nil
}

// startFleet opens every shard envelope once per replica, serves each
// behind a serve.Server, discovers the shard map and starts a router
// with default options (plus the tracing transport when traced).
func startFleet(paths []string, client *httpClient, tr *tracer) (f *fleet, openNs []float64, discoverNs float64, err error) {
	f = &fleet{}
	var specs []string
	for _, path := range paths {
		var group []string
		for r := 0; r < routedReplicas; r++ {
			t := time.Now()
			set, err := distsketch.OpenSketchSet(path)
			if err != nil {
				return f, nil, 0, err
			}
			openNs = append(openNs, float64(time.Since(t)))
			f.sets = append(f.sets, set)
			srv, err := serve.New(set, serve.Options{})
			if err != nil {
				return f, nil, 0, err
			}
			hs := httptest.NewServer(tr.wrapHandler("shard", srv.Handler()))
			f.shardSrvs = append(f.shardSrvs, hs)
			group = append(group, hs.URL)
		}
		specs = append(specs, strings.Join(group, "|"))
	}
	t := time.Now()
	shards, err := serve.DiscoverShards(context.Background(), specs, client.c)
	if err != nil {
		return f, nil, 0, err
	}
	discoverNs = float64(time.Since(t))
	var opts serve.RouterOptions
	if tr != nil {
		opts.Transport = &tracingTransport{t: tr, base: http.DefaultTransport}
	}
	f.router, err = serve.NewRouter(shards, opts)
	if err != nil {
		return f, nil, 0, err
	}
	f.routerSrv = httptest.NewServer(tr.wrapHandler("router", f.router.Handler()))
	return f, openNs, discoverNs, nil
}

// warmFleet is the set-up's warm-up pass: every replica first decodes
// every label of its shard (mmap'd envelopes decode lazily, and a sketch
// fetch does not decode), then the cover batches go through the router so
// every node is touched end to end before any timing.
func warmFleet(client *httpClient, f *fleet, batchSize int, cover [][]serve.QueryPair, ref *distsketch.SketchSet) error {
	for i, hs := range f.shardSrvs {
		lo, hi := f.sets[i].NodeRange()
		var batches [][]serve.QueryPair
		for u := lo; u < hi; u += batchSize {
			var b []serve.QueryPair
			for v := u; v < min(u+batchSize, hi); v++ {
				b = append(b, serve.QueryPair{U: v, V: lo + (v-lo+1)%(hi-lo)})
			}
			batches = append(batches, b)
		}
		if err := warmUp(client, hs.URL, batches, ref.Query); err != nil {
			return fmt.Errorf("replica %s: %w", hs.URL, err)
		}
	}
	return warmUp(client, f.routerSrv.URL, cover, ref.Query)
}

func makeRoutedPass(p params, ref *distsketch.SketchSet, ranges []distsketch.ShardRange) *routedPass {
	r := rand.New(rand.NewPCG(mix(p.Seed, 102), 13))
	n := ref.N()
	shardOf := func(u int) int {
		for i, rg := range ranges {
			if rg.Contains(u) {
				return i
			}
		}
		return -1
	}
	pair := func() serve.QueryPair {
		u := r.IntN(n)
		v := r.IntN(n - 1)
		if v >= u {
			v++
		}
		return serve.QueryPair{U: u, V: v}
	}
	pass := &routedPass{}
	cross, total := 0, 0
	count := func(q serve.QueryPair) {
		total++
		if shardOf(q.U) != shardOf(q.V) {
			cross++
		}
	}
	for b := 0; b < p.PassBatches; b++ {
		var batch []serve.QueryPair
		var want []distsketch.Dist
		for i := 0; i < p.BatchPairs; i++ {
			q := pair()
			count(q)
			batch = append(batch, q)
			want = append(want, ref.Query(q.U, q.V))
		}
		pass.batches = append(pass.batches, batch)
		pass.bodies = append(pass.bodies, batchBody(batch))
		pass.batchWant = append(pass.batchWant, want)
		var singles []serve.QueryPair
		var swant []distsketch.Dist
		for i := 0; i < p.SinglesPerBatch; i++ {
			q := pair()
			count(q)
			singles = append(singles, q)
			swant = append(swant, ref.Query(q.U, q.V))
		}
		pass.singles = append(pass.singles, singles)
		pass.singleWant = append(pass.singleWant, swant)
	}
	pass.crossFrac = float64(cross) / float64(total)
	return pass
}

// routedPhase runs whole passes of the fixed sequence over one
// closed-loop connection until the run's seconds are spent, checking
// every answer.
func routedPhase(p params, f *fleet, client *httpClient, pass *routedPass, res *result) routedRun {
	var out routedRun
	base := f.routerSrv.URL
	stats0, err := routerStats(client, base)
	if err != nil {
		res.fail("router /stats: %v", err)
	}
	runtime.GC()
	out.mem0 = readMem()
	cpu0 := cpuTime()
	start := time.Now()
	passStart := 0
	for {
		before, err := routerStats(client, base)
		if err != nil {
			res.fail("router /stats: %v", err)
		}
		for b, body := range pass.bodies {
			res.Attempted++
			c := client.do(http.MethodPost, base+"/query", body, "client.batch")
			got, err := batchAnswers(c, pass.batches[b])
			if err == nil {
				err = compareAnswers(pass.batches[b], got, pass.batchWant[b])
			}
			if err != nil {
				res.Failed++
				res.fail("%v", err)
			} else {
				out.batchNs = append(out.batchNs, c.ns())
				out.pairs += len(got)
			}
			for i, q := range pass.singles[b] {
				res.Attempted++
				c := client.do(http.MethodGet, fmt.Sprintf("%s/query?u=%d&v=%d", base, q.U, q.V), nil, "client.query")
				d, err := singleAnswer(c)
				if err == nil && d != pass.singleWant[b][i] {
					err = fmt.Errorf("query (%d,%d) answered %d, reference %d", q.U, q.V, d, pass.singleWant[b][i])
				}
				if err != nil {
					res.Failed++
					res.fail("%v", err)
					continue
				}
				out.singleNs = append(out.singleNs, c.ns())
				out.pairs++
			}
		}
		after, err := routerStats(client, base)
		if err != nil {
			res.fail("router /stats: %v", err)
		}
		out.passP50 = append(out.passP50, ms(quantile(out.batchNs[passStart:], 0.5)))
		passStart = len(out.batchNs)
		cross := after.CrossShardPairs - before.CrossShardPairs
		same := after.SameShardPairs - before.SameShardPairs
		out.passCross = append(out.passCross, float64(cross)/float64(cross+same))
		if time.Since(start).Seconds() >= p.Seconds {
			break
		}
	}
	out.elapsedNs = float64(time.Since(start))
	out.cpuNs = float64(cpuTime() - cpu0)
	out.mem1 = readMem()
	final, err := routerStats(client, base)
	if err != nil {
		res.fail("router /stats: %v", err)
	}
	out.stats = final
	out.stats.Retries -= stats0.Retries
	out.stats.HedgesFired -= stats0.HedgesFired
	out.stats.UpstreamErrors -= stats0.UpstreamErrors
	// The determinism guard: every pass of the same sequence must split
	// into cross- and same-shard pairs exactly as the shard map predicts.
	for i, c := range out.passCross {
		if c != pass.crossFrac {
			res.fail("nondeterminism: pass %d cross-shard fraction %v, sequence has %v", i, c, pass.crossFrac)
		}
	}
	return out
}

func compareAnswers(pairs []serve.QueryPair, got, want []distsketch.Dist) error {
	for i := range pairs {
		if got[i] != want[i] {
			return fmt.Errorf("batch pair (%d,%d) answered %d, reference %d", pairs[i].U, pairs[i].V, got[i], want[i])
		}
	}
	return nil
}

func routerStats(client *httpClient, base string) (serve.RouterStatsReply, error) {
	var st serve.RouterStatsReply
	c := client.do(http.MethodGet, base+"/stats", nil, "client.stats")
	if !c.ok() {
		return st, fmt.Errorf("status %d: %v", c.status, c.err)
	}
	return st, json.Unmarshal(c.body, &st)
}

func reportRouted(res *result, r routedRun) {
	ops := len(r.batchNs) + len(r.singleNs)
	res.add("op_p50_ms", ms(quantile(r.batchNs, 0.5)), len(r.batchNs))
	res.add("cpu_ms_per_op", ms(r.cpuNs/float64(ops)), ops)
	res.add("serve.router.cross_shard_frac", mean(r.passCross), len(r.passCross))
	res.add("serve.router.retries", float64(r.stats.Retries), len(r.batchNs)+len(r.singleNs))
	res.add("serve.router.hedges_fired", float64(r.stats.HedgesFired), len(r.batchNs)+len(r.singleNs))
	res.add("serve.router.upstream_errors", float64(r.stats.UpstreamErrors), len(r.batchNs)+len(r.singleNs))
	res.add("runtime.alloc_kb_per_pair", float64(r.mem1.totalAlloc-r.mem0.totalAlloc)/1024/float64(r.pairs), r.pairs)
	res.add("runtime.gc_cycles", float64(r.mem1.numGC-r.mem0.numGC), 1)
	res.note("read phase: %d passes, %d batches, %d single queries, %.2f s; batch p50 per pass (ms) %.3f", len(r.passCross), len(r.batchNs), len(r.singleNs), r.elapsedNs/1e9, r.passP50)
	// Not metrics: across runs on a 2-vCPU host the tails' spread, and
	// that of the throughput they drive, comes too close to the largest
	// bound BENCHMARK.json may set (see the package doc).
	res.note("single query p50 %.3f ms, p90 %.3f ms, p99 %.3f ms (n=%d); batch p90 %.3f ms, p99 %.3f ms (n=%d); %.1f requests/s, %.1f pairs/s",
		ms(quantile(r.singleNs, 0.5)), ms(quantile(r.singleNs, 0.9)), ms(quantile(r.singleNs, 0.99)), len(r.singleNs),
		ms(quantile(r.batchNs, 0.9)), ms(quantile(r.batchNs, 0.99)), len(r.batchNs), float64(ops)/(r.elapsedNs/1e9), float64(r.pairs)/(r.elapsedNs/1e9))
}

// analyzeRoutedSpans splits traced requests into layers: the client
// round trip outside the router's handler, the router's own work, the
// upstream calls (sketch fetches and forwarded sub-batches or queries),
// and the replica handlers behind them.
func analyzeRoutedSpans(res *result, spans []span, batchSize int) {
	tree := indexSpans(spans)
	var (
		singleHandler, batchHandler, clientRouter, routerShard []float64
		upstreamSingle, fetches, subbatches, upUnion, selfNs   []float64
		shardNs                                                = map[string][]float64{}
		upBytes, pairCount                                     float64
		batchE2E, singleE2E                                    []float64
		batchStages, singleStages, batchParts, singleParts     []map[string]int64
	)
	for _, s := range spans {
		if s.Parent != 0 || (s.Name != "client.batch" && s.Name != "client.query") {
			continue
		}
		kids := tree.children[s.ID]
		if len(kids) != 1 {
			continue
		}
		h := kids[0]
		ups := tree.children[h.ID]
		uni := union(ups, h.Start, h.End)
		var sketchUps []span
		nFetch, nSub := 0, 0
		for _, u := range ups {
			upBytes += float64(u.Bytes)
			switch u.Name {
			case "upstream.sketch":
				nFetch++
				sketchUps = append(sketchUps, u)
			case "upstream.batch":
				nSub++
			}
			if shard := tree.children[u.ID]; len(shard) == 1 {
				shardNs[shard[0].Name] = append(shardNs[shard[0].Name], float64(shard[0].dur()))
				if s.Name == "client.query" {
					routerShard = append(routerShard, float64(u.dur()-shard[0].dur()))
				}
			}
		}
		fetchUnion := union(sketchUps, h.Start, h.End)
		parts := map[string]int64{
			"client<->router": s.dur() - h.dur(),
			"router self":     h.dur() - uni,
			"sketch fetches":  fetchUnion,
			"other upstream":  uni - fetchUnion,
		}
		if s.Name == "client.batch" {
			batchHandler = append(batchHandler, float64(h.dur()))
			fetches = append(fetches, float64(nFetch))
			subbatches = append(subbatches, float64(nSub))
			upUnion = append(upUnion, float64(uni))
			selfNs = append(selfNs, float64(h.dur()-uni))
			pairCount += float64(batchSize)
			batchE2E = append(batchE2E, float64(s.dur()))
			batchStages = append(batchStages, tree.stageSelf(s))
			batchParts = append(batchParts, parts)
		} else {
			singleHandler = append(singleHandler, float64(h.dur()))
			clientRouter = append(clientRouter, float64(s.dur()-h.dur()))
			upstreamSingle = append(upstreamSingle, float64(len(ups)))
			pairCount++
			singleE2E = append(singleE2E, float64(s.dur()))
			singleStages = append(singleStages, tree.stageSelf(s))
			singleParts = append(singleParts, parts)
		}
	}
	res.add("serve.router.handler_us.single", us(quantile(singleHandler, 0.5)), len(singleHandler))
	res.add("serve.router.handler_ms.batch", ms(quantile(batchHandler, 0.5)), len(batchHandler))
	res.add("net.client_router_us", us(quantile(clientRouter, 0.5)), len(clientRouter))
	res.add("serve.router.upstream_calls.single", mean(upstreamSingle), len(upstreamSingle))
	res.add("serve.router.sketch_fetches.batch", mean(fetches), len(fetches))
	res.add("serve.router.subbatches.batch", mean(subbatches), len(subbatches))
	res.add("serve.router.upstream_ms.batch", ms(quantile(upUnion, 0.5)), len(upUnion))
	res.add("serve.router.self_ms.batch", ms(quantile(selfNs, 0.5)), len(selfNs))
	res.add("serve.router.upstream_bytes_per_pair", upBytes/pairCount, int(pairCount))
	for _, k := range []string{"query", "sketch", "batch"} {
		xs := shardNs["shard."+k]
		res.add("serve.shard_handler_us."+k, us(quantile(xs, 0.5)), len(xs))
	}
	res.add("net.router_shard_us", us(quantile(routerShard, 0.5)), len(routerShard))

	acc := accountStages(batchE2E, batchStages)
	res.Stages["batch"] = acc
	res.Stages["query"] = accountStages(singleE2E, singleStages)
	res.Stages["batch partition"] = accountStages(batchE2E, batchParts)
	res.Stages["query partition"] = accountStages(singleE2E, singleParts)
	res.add("trace.unaccounted_frac", acc.unaccountedFrac(), acc.Band)
}

// replayRouted times the per-pair work of the run's pairs outside any
// server: the label walk of QueryChecked on the reference set, and the
// ParseSketch and Sketch.Estimate the router runs for every cross-shard
// pair on the wire bytes /sketch/{u} serves.
func replayRouted(res *result, ref *distsketch.SketchSet, pass *routedPass) {
	replayQueries(res, ref, pass.batches)
	var parseNs, estNs []float64
	for _, b := range pass.batches {
		var su, sv []*distsketch.Sketch
		for _, q := range b {
			for _, u := range []int{q.U, q.V} {
				blob := ref.SketchBytes(u)
				t := time.Now()
				sk, err := distsketch.ParseSketch(blob)
				parseNs = append(parseNs, float64(time.Since(t)))
				if err != nil {
					res.fail("replay ParseSketch(%d): %v", u, err)
					return
				}
				if u == q.U {
					su = append(su, sk)
				} else {
					sv = append(sv, sk)
				}
			}
		}
		t := time.Now()
		for i := range su {
			if _, err := su[i].Estimate(sv[i]); err != nil {
				res.fail("replay Estimate: %v", err)
			}
		}
		estNs = append(estNs, float64(time.Since(t))/float64(len(su)))
	}
	res.add("sketch.parse_us", us(quantile(parseNs, 0.5)), len(parseNs))
	res.add("sketch.estimate_ns", quantile(estNs, 0.5), len(estNs))
}

// replayQueries times QueryChecked over the batches three times and
// reports the median nanoseconds per pair of a batch.
func replayQueries(res *result, set *distsketch.SketchSet, batches [][]serve.QueryPair) {
	var queryNs []float64
	for rep := 0; rep < 3; rep++ {
		for _, b := range batches {
			t := time.Now()
			for _, q := range b {
				if _, err := set.QueryChecked(q.U, q.V); err != nil {
					res.fail("replay QueryChecked(%d,%d): %v", q.U, q.V, err)
				}
			}
			queryNs = append(queryNs, float64(time.Since(t))/float64(len(b)))
		}
	}
	res.add("distsketch.query_ns", quantile(queryNs, 0.5), len(queryNs))
}
