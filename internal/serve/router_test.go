package serve

// Router coverage: the three serving topologies (heap full set, mmap
// full set, 4-shard fleet behind a router) must answer byte-identical
// estimates; fan-out is pinned to ≤ 2 shards per query, and a batch to
// one sketch fetch and one sub-batch per shard, by a counting
// transport; and a dead shard degrades only the pairs it owns.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"distsketch"
)

// buildShardedFixture builds a 100-node landmark set, saves it, slices
// it into shards shard envelopes, and starts one test server per shard.
// It returns the full set, the shard servers' base URLs, and the shard
// ranges.
func buildShardedFixture(t testing.TB, shards int) (*distsketch.SketchSet, []string, []distsketch.ShardRange) {
	t.Helper()
	g, err := distsketch.NewRandomWeightedGraph(distsketch.FamilyGeometric, 100, 10, 100, 13)
	if err != nil {
		t.Fatal(err)
	}
	full, err := distsketch.Build(g, distsketch.Options{Kind: distsketch.KindLandmark, Eps: 0.25, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ranges := distsketch.EvenShardRanges(full.N(), shards)
	paths, err := distsketch.SaveShards(dir, full, ranges)
	if err != nil {
		t.Fatal(err)
	}
	bases := make([]string, len(paths))
	for i, path := range paths {
		shard, err := distsketch.OpenSketchSet(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { shard.Close() })
		srv, err := New(shard, Options{})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		bases[i] = ts.URL
	}
	return full, bases, ranges
}

// countingTransport records every upstream request — which shard host
// was contacted, with what method and path — the seam pinning the
// ≤2-shards-per-query guarantee and the per-shard batch fetch shape.
type countingTransport struct {
	mu    sync.Mutex
	calls []upstreamCall // every upstream request, in order
	// down marks hosts that refuse connections (fault injection).
	down map[string]bool
}

// upstreamCall is one request the router made to a shard.
type upstreamCall struct {
	host, method, path string
}

func (ct *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ct.mu.Lock()
	ct.calls = append(ct.calls, upstreamCall{host: req.URL.Host, method: req.Method, path: req.URL.Path})
	isDown := ct.down[req.URL.Host]
	ct.mu.Unlock()
	if isDown {
		return nil, fmt.Errorf("injected fault: %s is down", req.URL.Host)
	}
	return http.DefaultTransport.RoundTrip(req)
}

// distinctHostsSince returns the distinct hosts contacted since mark.
func (ct *countingTransport) distinctHostsSince(mark int) []string {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	seen := map[string]bool{}
	var out []string
	for _, c := range ct.calls[mark:] {
		if !seen[c.host] {
			seen[c.host] = true
			out = append(out, c.host)
		}
	}
	return out
}

// callsSince returns the upstream requests made since mark.
func (ct *countingTransport) callsSince(mark int) []upstreamCall {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	return append([]upstreamCall(nil), ct.calls[mark:]...)
}

func (ct *countingTransport) mark() int {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	return len(ct.calls)
}

func newRouterServer(t *testing.T, bases []string, ranges []distsketch.ShardRange, ct *countingTransport) *httptest.Server {
	t.Helper()
	shards := make([]RouterShard, len(bases))
	for i := range bases {
		shards[i] = RouterShard{Replicas: []string{bases[i]}, Range: ranges[i]}
	}
	var transport http.RoundTripper
	if ct != nil {
		transport = ct
	}
	rt, err := NewRouter(shards, RouterOptions{Transport: transport})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// TestServingEquivalence is the acceptance pin: heap serving, mmap
// serving, and 4-shard routed serving answer byte-identical query
// results on the same envelope.
func TestServingEquivalence(t *testing.T) {
	full, bases, ranges := buildShardedFixture(t, 4)

	heapSrv := newTestServer(t, full, Options{})

	dir := t.TempDir()
	mmapPath := dir + "/full.dsk"
	if err := distsketch.SaveSketchSet(mmapPath, full, distsketch.SetVersion2); err != nil {
		t.Fatal(err)
	}
	mmapSet, err := distsketch.OpenSketchSet(mmapPath)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mmapSet.Close() })
	mmapSrv := newTestServer(t, mmapSet, Options{})

	routerSrv := newRouterServer(t, bases, ranges, nil)

	fetch := func(base string, u, v int) string {
		resp, err := http.Get(fmt.Sprintf("%s/query?u=%d&v=%d", base, u, v))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s (%d,%d): status %d", base, u, v, resp.StatusCode)
		}
		var res QueryResult
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			t.Fatal(err)
		}
		b, _ := json.Marshal(res)
		return string(b)
	}
	for u := 0; u < full.N(); u += 7 {
		for v := 0; v < full.N(); v += 11 {
			heap := fetch(heapSrv.URL, u, v)
			if mm := fetch(mmapSrv.URL, u, v); mm != heap {
				t.Fatalf("(%d,%d): mmap %s != heap %s", u, v, mm, heap)
			}
			if routed := fetch(routerSrv.URL, u, v); routed != heap {
				t.Fatalf("(%d,%d): routed %s != heap %s", u, v, routed, heap)
			}
		}
	}
	// GET /sketch/{u}: status, body and the kind and size headers, on
	// every shard and on both sides of the id space.
	sketchOf := func(base string, u int) string {
		resp, err := http.Get(fmt.Sprintf("%s/sketch/%d", base, u))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%d kind=%q words=%q body=%x", resp.StatusCode,
			resp.Header.Get("X-Sketch-Kind"), resp.Header.Get("X-Sketch-Words"), body)
	}
	for _, u := range []int{-1, 0, 13, 26, 51, 76, full.N() - 1, full.N()} {
		heap := sketchOf(heapSrv.URL, u)
		if mm := sketchOf(mmapSrv.URL, u); mm != heap {
			t.Fatalf("GET /sketch/%d: mmap %s != heap %s", u, mm, heap)
		}
		if routed := sketchOf(routerSrv.URL, u); routed != heap {
			t.Fatalf("GET /sketch/%d: routed %s != heap %s", u, routed, heap)
		}
	}
}

// TestRouterBatchEquivalence: the router's batch endpoint answers the
// same results (in request order) as a full server's, mixing same- and
// cross-shard pairs and out-of-range errors.
func TestRouterBatchEquivalence(t *testing.T) {
	full, bases, ranges := buildShardedFixture(t, 4)
	heapSrv := newTestServer(t, full, Options{})
	routerSrv := newRouterServer(t, bases, ranges, nil)

	var pairs []string
	for u := 0; u < full.N(); u += 5 {
		v := (u*37 + 13) % full.N()
		pairs = append(pairs, fmt.Sprintf(`{"u":%d,"v":%d}`, u, v))
	}
	// A node repeated across cross-shard pairs is fetched once.
	pairs = append(pairs, `{"u":1,"v":99}`, `{"u":1,"v":98}`, `{"u":1,"v":97}`)
	body := `{"pairs":[` + strings.Join(pairs, ",") + `]}`

	var fromHeap, fromRouter BatchReply
	if code := postJSON(t, heapSrv.URL+"/query", body, &fromHeap); code != http.StatusOK {
		t.Fatalf("heap batch: status %d", code)
	}
	if code := postJSON(t, routerSrv.URL+"/query", body, &fromRouter); code != http.StatusOK {
		t.Fatalf("routed batch: status %d", code)
	}
	if len(fromRouter.Results) != len(fromHeap.Results) {
		t.Fatalf("routed batch: %d results, want %d", len(fromRouter.Results), len(fromHeap.Results))
	}
	for i := range fromHeap.Results {
		h, _ := json.Marshal(fromHeap.Results[i])
		r, _ := json.Marshal(fromRouter.Results[i])
		if string(h) != string(r) {
			t.Fatalf("pair %d: routed %s != heap %s", i, r, h)
		}
	}
	// Out-of-range ids degrade per pair, not per batch, on both.
	var errReply BatchReply
	badBody := fmt.Sprintf(`{"pairs":[{"u":0,"v":1},{"u":%d,"v":0}]}`, full.N()+5)
	if code := postJSON(t, routerSrv.URL+"/query", badBody, &errReply); code != http.StatusOK {
		t.Fatalf("routed batch with bad pair: status %d", code)
	}
	if errReply.Results[0].Error != "" || errReply.Results[1].Error == "" {
		t.Fatalf("routed batch error placement: %+v", errReply.Results)
	}
	// The router's POST /sketch answers byte for byte what a full server
	// answers: frames from every shard in request order, duplicates
	// included, and the full server's 404 for an id outside the set.
	for _, body := range []string{
		`{"nodes":[0,99,26,51,1,76,99,0]}`,
		fmt.Sprintf(`{"nodes":[3,%d,4]}`, full.N()+2),
	} {
		heapCode, heapRaw := postRaw(t, heapSrv.URL+"/sketch", body)
		routedCode, routedRaw := postRaw(t, routerSrv.URL+"/sketch", body)
		if routedCode != heapCode || !bytes.Equal(routedRaw, heapRaw) {
			t.Fatalf("POST /sketch %s: routed %d %q != heap %d %q", body, routedCode, routedRaw, heapCode, heapRaw)
		}
	}
}

// TestRouterBatchFetchShape pins what a routed batch costs upstream: a
// 64-pair batch over 4 shards makes at most one POST /sketch and one
// POST /query per shard, and no per-node GET /sketch/{u} at all.
func TestRouterBatchFetchShape(t *testing.T) {
	full, bases, ranges := buildShardedFixture(t, 4)
	ct := &countingTransport{}
	routerSrv := newRouterServer(t, bases, ranges, ct)

	rng := rand.New(rand.NewSource(64))
	items := make([]string, 64)
	for i := range items {
		items[i] = fmt.Sprintf(`{"u":%d,"v":%d}`, rng.Intn(full.N()), rng.Intn(full.N()))
	}
	body := `{"pairs":[` + strings.Join(items, ",") + `]}`
	baseline := batchBaseline(t, full, body)

	mark := ct.mark()
	requireBatchMatches(t, routerSrv.URL, body, baseline)
	perShard := map[upstreamCall]int{}
	for _, c := range ct.callsSince(mark) {
		perShard[c]++
	}
	var fetches, subBatches int
	for c, n := range perShard {
		switch {
		case c.method == http.MethodPost && c.path == "/sketch":
			fetches += n
		case c.method == http.MethodPost && c.path == "/query":
			subBatches += n
		default:
			t.Errorf("batch made %d %s %s calls to %s; want only POST /sketch and POST /query", n, c.method, c.path, c.host)
		}
		if n > 1 {
			t.Errorf("batch made %d %s %s calls to %s; want at most 1 per shard", n, c.method, c.path, c.host)
		}
	}
	// The seeded pairs cross shards and share them, so both call kinds
	// must show up — the bounds above are not met vacuously.
	if fetches == 0 || subBatches == 0 {
		t.Fatalf("batch made %d sketch fetches and %d sub-batches; want both nonzero", fetches, subBatches)
	}
}

// TestRouterFanout pins the paper-shaped guarantee: one query contacts
// at most 2 shards — exactly 1 when the pair shares a shard, exactly 2
// otherwise.
func TestRouterFanout(t *testing.T) {
	full, bases, ranges := buildShardedFixture(t, 4)
	ct := &countingTransport{}
	routerSrv := newRouterServer(t, bases, ranges, ct)

	query := func(u, v int) []string {
		mark := ct.mark()
		resp, err := http.Get(fmt.Sprintf("%s/query?u=%d&v=%d", routerSrv.URL, u, v))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("(%d,%d): status %d", u, v, resp.StatusCode)
		}
		return ct.distinctHostsSince(mark)
	}
	// Same shard: both nodes inside ranges[0].
	sameLo, sameHi := ranges[0].Lo, ranges[0].Hi
	if hosts := query(sameLo, sameHi-1); len(hosts) != 1 {
		t.Errorf("same-shard pair contacted %d shards %v, want exactly 1", len(hosts), hosts)
	}
	// Cross shard: first node of shard 0, last node of shard 3.
	if hosts := query(ranges[0].Lo, ranges[3].Hi-1); len(hosts) != 2 {
		t.Errorf("cross-shard pair contacted %d shards %v, want exactly 2", len(hosts), hosts)
	}
	// Sweep: no query may ever touch a third shard.
	for u := 0; u < full.N(); u += 9 {
		v := (u*53 + 7) % full.N()
		if hosts := query(u, v); len(hosts) > 2 {
			t.Fatalf("(%d,%d) contacted %d shards %v; fan-out must be ≤ 2", u, v, len(hosts), hosts)
		}
	}
}

// TestRouterShardDown injects a dead shard: queries owned by live
// shards keep answering, queries touching the dead shard fail loudly
// (502 on the single path, per-pair errors in a batch), and the
// router's upstream-error counter moves.
func TestRouterShardDown(t *testing.T) {
	_, bases, ranges := buildShardedFixture(t, 4)
	ct := &countingTransport{down: map[string]bool{}}
	u2, err := url.Parse(bases[2])
	if err != nil {
		t.Fatal(err)
	}
	ct.down[u2.Host] = true
	routerSrv := newRouterServer(t, bases, ranges, ct)

	// A pair wholly inside a live shard answers normally.
	resp, err := http.Get(fmt.Sprintf("%s/query?u=%d&v=%d", routerSrv.URL, ranges[0].Lo, ranges[0].Lo+1))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("live-shard query: status %d", resp.StatusCode)
	}
	// A pair inside the dead shard fails as a gateway error.
	resp, err = http.Get(fmt.Sprintf("%s/query?u=%d&v=%d", routerSrv.URL, ranges[2].Lo, ranges[2].Lo+1))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("dead-shard query: status %d, want 502", resp.StatusCode)
	}
	// A cross-shard pair touching the dead shard fails too.
	resp, err = http.Get(fmt.Sprintf("%s/query?u=%d&v=%d", routerSrv.URL, ranges[0].Lo, ranges[2].Lo))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("cross-into-dead query: status %d, want 502", resp.StatusCode)
	}
	// A mixed batch degrades only the pairs the dead shard owns.
	body := fmt.Sprintf(`{"pairs":[{"u":%d,"v":%d},{"u":%d,"v":%d},{"u":%d,"v":%d}]}`,
		ranges[0].Lo, ranges[0].Lo+1, // live
		ranges[2].Lo, ranges[2].Lo+1, // dead
		ranges[1].Lo, ranges[3].Lo) // cross, both live
	var batch BatchReply
	if code := postJSON(t, routerSrv.URL+"/query", body, &batch); code != http.StatusOK {
		t.Fatalf("mixed batch: status %d", code)
	}
	if batch.Results[0].Error != "" {
		t.Errorf("live pair errored: %s", batch.Results[0].Error)
	}
	if batch.Results[1].Error == "" {
		t.Error("dead-shard pair did not error")
	}
	if batch.Results[2].Error != "" {
		t.Errorf("cross live pair errored: %s", batch.Results[2].Error)
	}
	// The router's stats record the upstream failures.
	var stats RouterStatsReply
	if code := getJSON(t, routerSrv.URL+"/stats", &stats); code != http.StatusOK {
		t.Fatalf("router stats: status %d", code)
	}
	if stats.UpstreamErrors == 0 {
		t.Error("upstream_errors did not move after shard faults")
	}
	if stats.TotalNodes == 0 || len(stats.Shards) != 4 {
		t.Errorf("router stats shape: %+v", stats)
	}
}

// TestShardServer421 pins the shard server's redirect contract: an id
// owned by a different shard answers 421 with the serving shard's range
// as a typed hint, and /stats reports the shard range and backing.
func TestShardServer421(t *testing.T) {
	full, bases, ranges := buildShardedFixture(t, 4)
	// bases[1] serves ranges[1]; ask it for a node owned by shard 0.
	resp, err := http.Get(fmt.Sprintf("%s/query?u=%d&v=%d", bases[1], ranges[0].Lo, ranges[1].Lo))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("other-shard id: status %d, want 421", resp.StatusCode)
	}
	var reply struct {
		Error string     `json:"error"`
		Shard *ShardHint `json:"shard"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		t.Fatal(err)
	}
	if reply.Shard == nil || reply.Shard.Lo != ranges[1].Lo || reply.Shard.Hi != ranges[1].Hi || reply.Shard.Total != full.N() {
		t.Fatalf("421 shard hint: %+v, want [%d,%d) of %d", reply.Shard, ranges[1].Lo, ranges[1].Hi, full.N())
	}
	// POST /sketch fails as a whole with the same 421 and hint when any
	// requested id is owned by another shard.
	code, raw := postRaw(t, bases[1]+"/sketch", fmt.Sprintf(`{"nodes":[%d,%d]}`, ranges[1].Lo, ranges[0].Lo))
	if code != http.StatusMisdirectedRequest {
		t.Fatalf("POST /sketch with an other-shard id: status %d (%s), want 421", code, raw)
	}
	reply.Shard = nil
	if err := json.Unmarshal(raw, &reply); err != nil {
		t.Fatal(err)
	}
	if reply.Shard == nil || reply.Shard.Lo != ranges[1].Lo || reply.Shard.Hi != ranges[1].Hi || reply.Shard.Total != full.N() {
		t.Fatalf("POST /sketch 421 shard hint: %+v, want [%d,%d) of %d", reply.Shard, ranges[1].Lo, ranges[1].Hi, full.N())
	}
	// So does POST /query when any pair names an id another shard owns,
	// so a router with a stale map sees the 421 under batch traffic too.
	code, raw = postRaw(t, bases[1]+"/query", fmt.Sprintf(`{"pairs":[{"u":%d,"v":%d},{"u":%d,"v":%d}]}`,
		ranges[1].Lo, ranges[1].Lo+1, ranges[1].Lo, ranges[0].Lo))
	if code != http.StatusMisdirectedRequest {
		t.Fatalf("POST /query with an other-shard id: status %d (%s), want 421", code, raw)
	}
	reply.Shard = nil
	if err := json.Unmarshal(raw, &reply); err != nil {
		t.Fatal(err)
	}
	if reply.Shard == nil || reply.Shard.Lo != ranges[1].Lo || reply.Shard.Hi != ranges[1].Hi || reply.Shard.Total != full.N() {
		t.Fatalf("POST /query 421 shard hint: %+v, want [%d,%d) of %d", reply.Shard, ranges[1].Lo, ranges[1].Hi, full.N())
	}
	// An id outside the whole id space keeps its per-pair error.
	var batch BatchReply
	code = postJSON(t, bases[1]+"/query", fmt.Sprintf(`{"pairs":[{"u":%d,"v":%d},{"u":%d,"v":%d}]}`,
		ranges[1].Lo, ranges[1].Lo+1, full.N()+5, ranges[1].Lo), &batch)
	if code != http.StatusOK || len(batch.Results) != 2 || batch.Results[0].Error != "" || batch.Results[1].Error == "" {
		t.Fatalf("POST /query with a nonexistent id: status %d results %+v, want 200 with one per-pair error", code, batch.Results)
	}
	// A nonexistent id is still a plain 404 — not redirectable.
	if code := getJSON(t, fmt.Sprintf("%s/query?u=%d&v=%d", bases[1], full.N()+5, ranges[1].Lo), nil); code != http.StatusNotFound {
		t.Fatalf("nonexistent id on a shard: status %d, want 404", code)
	}
	// The shard's /stats advertise range and backing.
	var stats StatsReply
	if code := getJSON(t, bases[1]+"/stats", &stats); code != http.StatusOK {
		t.Fatalf("shard stats: status %d", code)
	}
	if stats.Shard == nil || stats.Shard.Lo != ranges[1].Lo || stats.Shard.Hi != ranges[1].Hi {
		t.Fatalf("shard stats range: %+v", stats.Shard)
	}
	if stats.Backing != "mmap" && stats.Backing != "heap" {
		t.Fatalf("shard stats backing: %q", stats.Backing)
	}
	if stats.Backing == "mmap" && stats.MappedBytes == 0 {
		t.Fatal("mmap backing with zero mapped_bytes")
	}
}

// TestDiscoverShards: the router learns the shard map from /stats, and
// a single unsharded server maps as one shard covering everything.
func TestDiscoverShards(t *testing.T) {
	full, bases, ranges := buildShardedFixture(t, 4)
	shards, err := DiscoverShards(context.Background(), bases, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 4 {
		t.Fatalf("discovered %d shards, want 4", len(shards))
	}
	for i, sh := range shards {
		if sh.Range.Lo != ranges[i].Lo || sh.Range.Hi != ranges[i].Hi {
			t.Fatalf("shard %d: discovered %s, want %s", i, sh.Range, ranges[i])
		}
	}
	if _, err := NewRouter(shards, RouterOptions{}); err != nil {
		t.Fatalf("discovered shard map rejected: %v", err)
	}

	fullSrv := newTestServer(t, full, Options{})
	single, err := DiscoverShards(context.Background(), []string{fullSrv.URL}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(single) != 1 || single[0].Range.Lo != 0 || single[0].Range.Hi != full.N() {
		t.Fatalf("unsharded discovery: %+v", single)
	}

	// A replica written with a trailing slash must route like any other:
	// "base/" + "/query" would be redirected as a body-less GET.
	full, _, group := buildReplicatedFixture(t, 2, 2)
	specs := []string{group[0][0] + "/|" + group[0][1], group[1][0] + "/|" + group[1][1]}
	slashed, err := DiscoverShards(context.Background(), specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newFaultRouter(t, slashed, RouterOptions{})
	n := full.N()
	pairs := []string{}
	for i := 0; i < 8; i++ {
		pairs = append(pairs, fmt.Sprintf(`{"u":%d,"v":%d}`, i, i+1), fmt.Sprintf(`{"u":%d,"v":%d}`, i, n-1-i))
	}
	body := `{"pairs":[` + strings.Join(pairs, ",") + `]}`
	requireBatchMatches(t, ts.URL, body, batchBaseline(t, full, body))
}

// TestNewRouterValidation: shard maps that do not tile one id space are
// refused at construction.
func TestNewRouterValidation(t *testing.T) {
	mk := func(ranges ...distsketch.ShardRange) []RouterShard {
		out := make([]RouterShard, len(ranges))
		for i, r := range ranges {
			out[i] = RouterShard{Replicas: []string{fmt.Sprintf("http://shard%d", i)}, Range: r}
		}
		return out
	}
	bad := [][]RouterShard{
		{},
		mk(distsketch.ShardRange{Lo: 1, Hi: 10}), // missing node 0
		mk(distsketch.ShardRange{Lo: 0, Hi: 5}, distsketch.ShardRange{Lo: 6, Hi: 9}), // gap
		mk(distsketch.ShardRange{Lo: 0, Hi: 5}, distsketch.ShardRange{Lo: 4, Hi: 9}), // overlap
		mk(distsketch.ShardRange{Lo: 0, Hi: 0}),                                      // empty
	}
	for i, shards := range bad {
		if _, err := NewRouter(shards, RouterOptions{}); err == nil {
			t.Errorf("case %d: NewRouter accepted %+v", i, shards)
		}
	}
	// Unordered input is fine — the router sorts.
	ok := mk(distsketch.ShardRange{Lo: 5, Hi: 10}, distsketch.ShardRange{Lo: 0, Hi: 5})
	rt, err := NewRouter(ok, RouterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rt.TotalNodes() != 10 {
		t.Fatalf("TotalNodes = %d, want 10", rt.TotalNodes())
	}
}
