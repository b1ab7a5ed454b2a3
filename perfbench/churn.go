package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"time"

	"distsketch"
	"distsketch/internal/graph"
	"distsketch/internal/serve"
)

// churnUpdate is one batch of edge-weight decreases: the request body
// the writer sends and the changes a replay hands to UpdateEdges.
type churnUpdate struct {
	body    []byte
	repl    map[[2]int]distsketch.Dist
	changes []distsketch.EdgeChange
}

// churnInputs is everything churn-rw sends and checks, generated before
// set-up.
type churnInputs struct {
	built      *buildInput // the graph and envelope files
	g0, gFinal *distsketch.Graph
	updates    []churnUpdate
	reads      [][]serve.QueryPair
	bodies     [][]byte
	lo, hi     [][]distsketch.Dist // per read pair: d_final and (2k-1)*d_initial
	check      []serve.QueryPair
}

// churnServer is one set-up: a serve.Server over a heap-loaded envelope
// with the graph it was built from.
type churnServer struct {
	srv *serve.Server
	hs  *httptest.Server
}

func (c *churnServer) close() {
	if c.hs != nil {
		c.hs.Close()
	}
}

// churnRun is what one read/write phase measured.
type churnRun struct {
	updateNs, latenessNs []float64
	replaced             []int
	batchNs              []float64
	pairs                int
	readNs, cpuNs        float64
	mem0, mem1           memSnap
}

// runChurn measures an open-loop writer of edge-decrease batches beside
// a closed-loop batch reader, both talking straight to one server.
func runChurn(p params, res *result, tr *tracer) error {
	in, err := churnMakeInputs(p, res)
	if err != nil {
		return err
	}
	res.Base["n"], res.Base["m"], res.Base["graph_seed"] = in.g0.N(), in.g0.M(), servedGraphSeed
	res.Base["envelope_bytes"] = fileSize(in.built.envPath)
	res.Base["write_rate_per_s"], res.Base["update_batches"], res.Base["edges_per_update"] = p.WriteRate, len(in.updates), p.UpdateEdges
	res.Base["batch_pairs"], res.Base["read_pool_batches"] = p.BatchPairs, len(in.reads)
	res.Base["client_connections"] = 2

	client := newHTTPClient(nil)
	defer client.close()
	cover := coverPairs(in.g0.N(), p.BatchPairs, mix(p.Seed, 201))
	var setupNs, readNs, loadNs []float64
	var cs *churnServer
	for rep := 0; rep < p.SetupReps; rep++ {
		if cs != nil {
			cs.close()
		}
		runtime.GC()
		t0 := time.Now()
		var rd, ld float64
		cs, rd, ld, err = startChurnServer(in, client, cover, nil)
		if err != nil {
			return err
		}
		setupNs = append(setupNs, float64(time.Since(t0)))
		readNs, loadNs = append(readNs, rd), append(loadNs, ld)
	}
	res.add("setup_s", quantile(setupNs, 0.5)/1e9, len(setupNs))
	res.add("graph.read_ms", ms(quantile(readNs, 0.5)), len(readNs))
	res.add("distsketch.load_ms", ms(quantile(loadNs, 0.5)), len(loadNs))

	plain := churnPhase(p, in, cs, client, res)
	res.add("live_heap_mb", liveHeapMiB(), 1)
	checkFinal(res, in, cs.srv.Set())
	res.add("core.rebuild_rejected", float64(cs.srv.Counters().RebuildRejected), len(in.updates))
	cs.close()
	reportChurn(res, plain)
	if tr == nil {
		return nil
	}

	tclient := newHTTPClient(tr)
	defer tclient.close()
	tcs, _, _, err := startChurnServer(in, client, cover, tr)
	if err != nil {
		return err
	}
	traced := churnPhase(p, in, tcs, tclient, res)
	checkFinal(res, in, tcs.srv.Set())
	final := tcs.srv.Set()
	tcs.close()
	res.add("trace.overhead_frac", quantile(traced.updateNs, 0.5)/quantile(plain.updateNs, 0.5)-1, len(traced.updateNs))
	for i := range plain.replaced {
		if i < len(traced.replaced) && plain.replaced[i] != traced.replaced[i] {
			res.fail("nondeterminism: update %d replaced %d labels untraced, %d traced", i, plain.replaced[i], traced.replaced[i])
		}
	}
	handlerNs := analyzeChurnSpans(res, tr.snapshot(), traced)
	replayChurn(res, in, plain, traced, handlerNs)

	// The label walk of the reader's pairs on the final live set.
	replayQueries(res, final, in.reads)
	return parallelSpeedup(res, []*buildInput{in.built})
}

// churnMakeInputs generates the graph and its envelope (built with the
// code under test), the update schedule, the read pool with each pair's
// admissible answer range, and the final-check sample.
func churnMakeInputs(p params, res *result) (*churnInputs, error) {
	g0, err := distsketch.NewRandomWeightedGraph(distsketch.FamilyGeometric, p.ChurnN, minWeight, maxWeight, mix(servedGraphSeed, 200))
	if err != nil {
		return nil, err
	}
	built := newBuildInput(p, "churn", g0, mix(servedGraphSeed, 203))
	in := &churnInputs{built: built, g0: g0}
	served, err := buildServed(res, built)
	if err != nil {
		return nil, err
	}
	res.add("distsketch.open_ms", ms(served.openNs), 1)
	if err := writeGraphFile(in.built.graphPath, g0); err != nil {
		return nil, err
	}

	// Writes: each batch lowers UpdateEdges distinct edges of weight >= 2
	// to a weight in [w/2, w-1], so every change is a decrease.
	r := rand.New(rand.NewPCG(mix(p.Seed, 202), 17))
	edges := g0.Edges()
	cur := make(map[[2]int]distsketch.Dist, len(edges))
	for _, e := range edges {
		cur[[2]int{e.U, e.V}] = e.Weight
	}
	nUpdates := int(math.Ceil(p.Seconds * p.WriteRate))
	for i := 0; i < nUpdates; i++ {
		up := churnUpdate{repl: make(map[[2]int]distsketch.Dist)}
		var reqs []serve.UpdateRequest
		for len(reqs) < p.UpdateEdges {
			e := edges[r.IntN(len(edges))]
			key := [2]int{e.U, e.V}
			w := cur[key]
			if _, dup := up.repl[key]; dup || w < 2 {
				continue
			}
			nw := w - 1 - distsketch.Dist(r.IntN(int(w/2)))
			up.repl[key] = nw
			up.changes = append(up.changes, distsketch.EdgeChange{U: e.U, V: e.V, PrevWeight: w})
			reqs = append(reqs, serve.UpdateRequest{U: e.U, V: e.V, Weight: nw})
			cur[key] = nw
		}
		if up.body, err = json.Marshal(reqs); err != nil {
			return nil, err
		}
		in.updates = append(in.updates, up)
	}
	gb := distsketch.NewGraphBuilder(g0.N())
	for _, e := range edges {
		gb.AddEdge(e.U, e.V, cur[[2]int{e.U, e.V}])
	}
	if in.gFinal, err = gb.Freeze(); err != nil {
		return nil, err
	}

	// Reads: Zipf-skewed sources (a seeded permutation decides which
	// nodes are hot), uniform targets.
	n := g0.N()
	perm := r.Perm(n)
	zipf := rand.NewZipf(r, 1.2, 1, uint64(n-1))
	rows0 := make(map[int][]distsketch.Dist)
	rowsF := make(map[int][]distsketch.Dist)
	for b := 0; b < p.ReadPool; b++ {
		var batch []serve.QueryPair
		var lo, hi []distsketch.Dist
		for i := 0; i < p.BatchPairs; i++ {
			u := perm[zipf.Uint64()]
			v := r.IntN(n - 1)
			if v >= u {
				v++
			}
			if rows0[u] == nil {
				rows0[u], _ = graph.MultiSourceDijkstra(in.g0, []int{u})
				rowsF[u], _ = graph.MultiSourceDijkstra(in.gFinal, []int{u})
			}
			batch = append(batch, serve.QueryPair{U: u, V: v})
			lo = append(lo, rowsF[u][v])
			hi = append(hi, stretchCap*rows0[u][v])
		}
		in.reads = append(in.reads, batch)
		in.bodies = append(in.bodies, batchBody(batch))
		in.lo, in.hi = append(in.lo, lo), append(in.hi, hi)
	}
	for i := 0; i < p.CheckPairs; i++ {
		in.check = append(in.check, serve.QueryPair{U: r.IntN(n), V: r.IntN(n)})
	}
	return in, nil
}

// startChurnServer is the sketchserve -graph start-up path: ReadGraph,
// LoadSketchSet, serve.New, then a warm-up pass touching every node.
func startChurnServer(in *churnInputs, client *httpClient, cover [][]serve.QueryPair, tr *tracer) (cs *churnServer, readNs, loadNs float64, err error) {
	t0 := time.Now()
	g, err := readGraphFile(in.built.graphPath)
	if err != nil {
		return nil, 0, 0, err
	}
	t1 := time.Now()
	set, err := distsketch.LoadSketchSet(in.built.envPath)
	if err != nil {
		return nil, 0, 0, err
	}
	t2 := time.Now()
	srv, err := serve.New(set, serve.Options{Graph: g})
	if err != nil {
		return nil, 0, 0, err
	}
	cs = &churnServer{srv: srv, hs: httptest.NewServer(tr.wrapHandler("server", srv.Handler()))}
	if err := warmUp(client, cs.hs.URL, cover, set.Query); err != nil {
		cs.close()
		return nil, 0, 0, err
	}
	return cs, float64(t1.Sub(t0)), float64(t2.Sub(t1)), nil
}

// churnPhase runs the writer on its fixed schedule and the reader in a
// closed loop beside it until the last update is acknowledged.
func churnPhase(p params, in *churnInputs, cs *churnServer, client *httpClient, res *result) churnRun {
	var out churnRun
	base := cs.hs.URL
	runtime.GC()
	out.mem0 = readMem()
	cpu0 := cpuTime()
	start := time.Now()
	done := make(chan struct{})
	var wg sync.WaitGroup
	var mu sync.Mutex // guards res between the two loops
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		period := time.Duration(float64(time.Second) / p.WriteRate)
		for i, up := range in.updates {
			due := start.Add(time.Duration(i) * period)
			time.Sleep(time.Until(due))
			c := client.do(http.MethodPost, base+"/update-edge", up.body, "client.update")
			var reply serve.UpdateReply
			err := c.err
			if err == nil && c.status != http.StatusOK {
				err = fmt.Errorf("status %d: %s", c.status, c.body)
			}
			if err == nil {
				err = json.Unmarshal(c.body, &reply)
			}
			mu.Lock()
			res.Attempted++
			if err != nil {
				res.Failed++
				res.fail("update %d: %v", i, err)
			}
			mu.Unlock()
			out.updateNs = append(out.updateNs, float64(c.end.Sub(due)))
			out.latenessNs = append(out.latenessNs, float64(c.start.Sub(due)))
			out.replaced = append(out.replaced, reply.LabelsReplaced)
		}
	}()
	for j := 0; ; j++ {
		select {
		case <-done:
			wg.Wait()
			out.readNs = float64(time.Since(start))
			out.cpuNs = float64(cpuTime() - cpu0)
			out.mem1 = readMem()
			return out
		default:
		}
		b := j % len(in.reads)
		c := client.do(http.MethodPost, base+"/query", in.bodies[b], "client.batch")
		got, err := batchAnswers(c, in.reads[b])
		for i := 0; err == nil && i < len(got); i++ {
			if got[i] < in.lo[b][i] || got[i] > in.hi[b][i] {
				q := in.reads[b][i]
				err = fmt.Errorf("read (%d,%d) = %d outside [d_final %d, (2k-1)*d_initial %d]", q.U, q.V, got[i], in.lo[b][i], in.hi[b][i])
			}
		}
		mu.Lock()
		res.Attempted++
		if err != nil {
			res.Failed++
			res.fail("%v", err)
		}
		mu.Unlock()
		if err == nil {
			out.batchNs = append(out.batchNs, c.ns())
			out.pairs += len(got)
		}
	}
}

// checkFinal compares the served set after the run with a fresh build
// on the final graph: repair must equal rebuild on the check sample.
func checkFinal(res *result, in *churnInputs, served *distsketch.SketchSet) {
	fresh, err := distsketch.Build(in.gFinal, sketchOptions())
	if err != nil {
		res.fail("fresh build on the final graph: %v", err)
		return
	}
	for _, q := range in.check {
		got, err := served.QueryChecked(q.U, q.V)
		if err != nil || got != fresh.Query(q.U, q.V) {
			res.fail("after the run, served (%d,%d) = %d (%v), fresh build %d", q.U, q.V, got, err, fresh.Query(q.U, q.V))
			return
		}
	}
}

func reportChurn(res *result, r churnRun) {
	ops := len(r.updateNs) + len(r.batchNs)
	res.add("op_p50_ms", ms(quantile(r.updateNs, 0.5)), len(r.updateNs))
	res.add("cpu_ms_per_op", ms(r.cpuNs/float64(ops)), ops)
	res.add("bench.lateness_ms", ms(quantile(r.latenessNs, 0.9)), len(r.latenessNs))
	res.add("runtime.alloc_kb_per_pair", float64(r.mem1.totalAlloc-r.mem0.totalAlloc)/1024/float64(r.pairs), r.pairs)
	replaced := make([]float64, len(r.replaced))
	for i, x := range r.replaced {
		replaced[i] = float64(x)
	}
	res.add("core.labels_replaced_per_update", mean(replaced), len(replaced))
	res.add("runtime.gc_cycles", float64(r.mem1.numGC-r.mem0.numGC), 1)
	res.note("read/write phase: %d updates, %d read batches, %.2f s; update p90 %.3f ms (n=%d); read batch p50 %.3f ms, p90 %.3f ms, p99 %.3f ms (n=%d); %.1f requests/s, %.1f pairs/s",
		len(r.updateNs), len(r.batchNs), r.readNs/1e9, ms(quantile(r.updateNs, 0.9)), len(r.updateNs),
		ms(quantile(r.batchNs, 0.5)), ms(quantile(r.batchNs, 0.9)), ms(quantile(r.batchNs, 0.99)), len(r.batchNs),
		float64(ops)/(r.readNs/1e9), float64(r.pairs)/(r.readNs/1e9))
}

// analyzeChurnSpans reads the update and batch handler spans and returns
// each update's handler time, in schedule order.
func analyzeChurnSpans(res *result, spans []span, run churnRun) []float64 {
	tree := indexSpans(spans)
	var updates, batches []span
	handler := make(map[uint64]span)
	for _, s := range spans {
		switch s.Name {
		case "client.update":
			updates = append(updates, s)
		case "client.batch":
			batches = append(batches, s)
		}
		if kids := tree.children[s.ID]; s.Parent == 0 && len(kids) == 1 {
			handler[s.ID] = kids[0]
		}
	}
	sort.Slice(updates, func(i, j int) bool { return updates[i].Start < updates[j].Start })
	var handlerNs, waitNs, e2e []float64
	var stages []map[string]int64
	var updHandlers []span
	for i, s := range updates {
		h, ok := handler[s.ID]
		if !ok || i >= len(run.updateNs) {
			res.fail("update %d has no handler span", i)
			return nil
		}
		updHandlers = append(updHandlers, h)
		handlerNs = append(handlerNs, float64(h.dur()))
		waitNs = append(waitNs, run.updateNs[i]-float64(h.dur()))
		e2e = append(e2e, run.updateNs[i])
		st := tree.stageSelf(s)
		st["bench.lateness"] = int64(run.latenessNs[i])
		stages = append(stages, st)
	}
	res.add("serve.update_handler_ms", ms(quantile(handlerNs, 0.5)), len(handlerNs))
	res.add("net.update_wait_ms", ms(quantile(waitNs, 0.5)), len(waitNs))
	acc := accountStages(e2e, stages)
	res.Stages["update"] = acc
	res.add("trace.unaccounted_frac", acc.unaccountedFrac(), acc.Band)

	var batchHandler []float64
	overlapping := 0
	for _, s := range batches {
		if h, ok := handler[s.ID]; ok {
			batchHandler = append(batchHandler, float64(h.dur()))
		}
		for _, u := range updHandlers {
			if u.Start < s.End && s.Start < u.End {
				overlapping++
				break
			}
		}
	}
	res.add("serve.batch_handler_us", us(quantile(batchHandler, 0.5)), len(batchHandler))
	res.add("serve.reads_overlapping_update_frac", float64(overlapping)/float64(len(batches)), len(batches))
	return handlerNs
}

// replayChurn re-applies every update batch outside the server, from a
// fresh load of the envelope: the graph rebuild, Clone and UpdateEdges
// the update handler runs. The labels each replay replaces must match
// what the server reported (the determinism guard).
func replayChurn(res *result, in *churnInputs, run, traced churnRun, handlerNs []float64) {
	set, err := distsketch.LoadSketchSet(in.built.envPath)
	if err != nil {
		res.fail("replay: loading envelope: %v", err)
		return
	}
	for u := 0; u < set.N(); u++ {
		set.Sketch(u)
	}
	g := in.g0
	var cloneNs, repairNs, overheadNs, allocBytes []float64
	var parts []map[string]int64
	for i, up := range in.updates {
		runtime.GC()
		m0 := readMem()
		gb := distsketch.NewGraphBuilder(g.N())
		for _, e := range g.Edges() {
			if w, ok := up.repl[[2]int{e.U, e.V}]; ok {
				gb.AddEdge(e.U, e.V, w)
			} else {
				gb.AddEdge(e.U, e.V, e.Weight)
			}
		}
		next, err := gb.Freeze()
		if err != nil {
			res.fail("replay %d: %v", i, err)
			return
		}
		t1 := time.Now()
		c := set.Clone()
		t2 := time.Now()
		if _, err := c.UpdateEdges(next, up.changes); err != nil {
			res.fail("replay %d: UpdateEdges: %v", i, err)
			return
		}
		t3 := time.Now()
		replaced := 0
		for u := 0; u < c.N(); u++ {
			if c.Sketch(u) != set.Sketch(u) {
				replaced++
			}
		}
		m1 := readMem()
		if i < len(run.replaced) && replaced != run.replaced[i] {
			res.fail("nondeterminism: update %d replaced %d labels in the server, %d in the replay", i, run.replaced[i], replaced)
		}
		cloneNs = append(cloneNs, float64(t2.Sub(t1)))
		repairNs = append(repairNs, float64(t3.Sub(t2)))
		allocBytes = append(allocBytes, float64(m1.totalAlloc-m0.totalAlloc))
		if i < len(handlerNs) {
			overheadNs = append(overheadNs, handlerNs[i]-float64(t3.Sub(t1)))
			late := int64(traced.latenessNs[i])
			parts = append(parts, map[string]int64{
				"bench.lateness":     late,
				"client<->server":    int64(traced.updateNs[i]-handlerNs[i]) - late,
				"distsketch.clone":   int64(t2.Sub(t1)),
				"core.repair":        int64(t3.Sub(t2)),
				"serve.update other": int64(handlerNs[i]) - int64(t3.Sub(t1)),
			})
		}
		set, g = c, next
	}
	if len(parts) == len(traced.updateNs) {
		res.Stages["update partition"] = accountStages(traced.updateNs, parts)
	}
	res.add("distsketch.clone_us", us(quantile(cloneNs, 0.5)), len(cloneNs))
	res.add("core.repair_ms", ms(quantile(repairNs, 0.5)), len(repairNs))
	res.add("serve.update_overhead_ms", ms(quantile(overheadNs, 0.5)), len(overheadNs))
	res.add("runtime.alloc_mb_per_update", quantile(allocBytes, 0.5)/(1<<20), len(allocBytes))
}
