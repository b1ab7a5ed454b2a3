package serve

// httptest coverage for every endpoint, including the malformed inputs a
// public server must survive: non-integer and out-of-range node ids, bad
// JSON, oversized batches, updates without a topology, and weight
// increases the repair protocol cannot handle. Nothing here may panic —
// a handler panic fails the test via the httptest server.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"distsketch"
)

// buildSet constructs a small landmark set and its topology for serving
// tests. Every kind repairs through the same batched pipeline now;
// landmark stays the default because its repairs carry CONGEST cost
// numbers the update replies can assert on. The returned set honors the
// DISTSKETCH_TEST_BACKING matrix, so the whole serve suite runs against
// both heap- and mmap-backed sets in CI.
func buildSet(t *testing.T) (*distsketch.SketchSet, *distsketch.Graph) {
	t.Helper()
	g, err := distsketch.NewRandomWeightedGraph(distsketch.FamilyGeometric, 64, 10, 100, 7)
	if err != nil {
		t.Fatal(err)
	}
	set, err := distsketch.Build(g, distsketch.Options{Kind: distsketch.KindLandmark, Eps: 0.25, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return reloadForBacking(t, set), g
}

// reloadForBacking round-trips a built set through a saved envelope
// opened with OpenSketchSet when DISTSKETCH_TEST_BACKING=mmap; by
// default the built (heap) set is served as-is. Estimates are identical
// either way — that equivalence is pinned by the router tests — so the
// serve assertions need not know which backing they run against.
func reloadForBacking(t *testing.T, set *distsketch.SketchSet) *distsketch.SketchSet {
	t.Helper()
	switch mode := os.Getenv("DISTSKETCH_TEST_BACKING"); mode {
	case "", "heap":
		return set
	case "mmap":
		path := filepath.Join(t.TempDir(), "set.dsk")
		if err := distsketch.SaveSketchSet(path, set, distsketch.SetVersion2); err != nil {
			t.Fatal(err)
		}
		reopened, err := distsketch.OpenSketchSet(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { reopened.Close() })
		return reopened
	default:
		t.Fatalf("unknown DISTSKETCH_TEST_BACKING %q (want heap or mmap)", mode)
		return nil
	}
}

func newTestServer(t *testing.T, set *distsketch.SketchSet, opts Options) *httptest.Server {
	t.Helper()
	srv, err := New(set, opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// getJSON issues a GET and decodes the reply, returning the status code.
func getJSON(t testing.TB, url string, into any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if into != nil {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("GET %s: decoding body: %v", url, err)
		}
	}
	return resp.StatusCode
}

func postJSON(t *testing.T, url, body string, into any) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if into != nil {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("POST %s: decoding body: %v", url, err)
		}
	}
	return resp.StatusCode
}

// getRaw issues a GET and returns the status code and the raw body.
func getRaw(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", url, err)
	}
	return resp.StatusCode, body
}

// postRaw issues a JSON POST and returns the status code and the raw
// body.
func postRaw(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("POST %s: reading body: %v", url, err)
	}
	return resp.StatusCode, raw
}

func TestQueryEndpoint(t *testing.T) {
	set, g := buildSet(t)
	ts := newTestServer(t, set, Options{Graph: g})
	for _, pair := range [][2]int{{0, 63}, {5, 40}, {17, 17}, {63, 0}} {
		var res QueryResult
		url := fmt.Sprintf("%s/query?u=%d&v=%d", ts.URL, pair[0], pair[1])
		if code := getJSON(t, url, &res); code != http.StatusOK {
			t.Fatalf("GET %s: status %d", url, code)
		}
		want := set.Query(pair[0], pair[1])
		if res.Estimate == nil || *res.Estimate != want {
			t.Errorf("query (%d,%d): got %v, want %d", pair[0], pair[1], res.Estimate, want)
		}
		if res.U != pair[0] || res.V != pair[1] || res.Unreachable || res.Error != "" {
			t.Errorf("query (%d,%d): malformed echo %+v", pair[0], pair[1], res)
		}
	}
}

func TestQueryMalformed(t *testing.T) {
	set, _ := buildSet(t)
	ts := newTestServer(t, set, Options{})
	cases := []struct {
		path string
		want int
	}{
		{"/query", http.StatusBadRequest},              // both params missing
		{"/query?u=3", http.StatusBadRequest},          // v missing
		{"/query?u=3&v=banana", http.StatusBadRequest}, // non-integer
		{"/query?u=3.5&v=4", http.StatusBadRequest},    // non-integer
		{"/query?u=-1&v=4", http.StatusNotFound},       // below range
		{"/query?u=3&v=64", http.StatusNotFound},       // above range
		{"/query?u=3&v=99999999", http.StatusNotFound}, // far above range
		{"/nosuchendpoint", http.StatusNotFound},       // unrouted
	}
	for _, c := range cases {
		var er struct {
			Error string `json:"error"`
		}
		resp, err := http.Get(ts.URL + c.path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("GET %s: status %d, want %d (body %q)", c.path, resp.StatusCode, c.want, body)
		}
		if resp.StatusCode == http.StatusBadRequest {
			if json.Unmarshal(body, &er) != nil || er.Error == "" {
				t.Errorf("GET %s: expected a JSON error body, got %q", c.path, body)
			}
		}
	}
	// Wrong method on a routed pattern.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/query?u=1&v=2", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("DELETE /query: status %d, want 405", resp.StatusCode)
	}
}

func TestBatchEndpoint(t *testing.T) {
	set, _ := buildSet(t)
	ts := newTestServer(t, set, Options{})
	body := `{"pairs":[{"u":0,"v":63},{"u":12,"v":12},{"u":-5,"v":3},{"u":3,"v":1000},{"u":40,"v":9}]}`
	var reply BatchReply
	if code := postJSON(t, ts.URL+"/query", body, &reply); code != http.StatusOK {
		t.Fatalf("batch: status %d", code)
	}
	if len(reply.Results) != 5 {
		t.Fatalf("batch: %d results, want 5", len(reply.Results))
	}
	for i, pair := range [][2]int{{0, 63}, {12, 12}, {-1, -1}, {-1, -1}, {40, 9}} {
		res := reply.Results[i]
		if pair[0] < 0 { // the out-of-range entries
			if res.Error == "" || res.Estimate != nil {
				t.Errorf("batch[%d]: expected per-entry error, got %+v", i, res)
			}
			continue
		}
		want := set.Query(pair[0], pair[1])
		if res.Error != "" || res.Estimate == nil || *res.Estimate != want {
			t.Errorf("batch[%d]: got %+v, want estimate %d", i, res, want)
		}
	}
}

func TestBatchMalformed(t *testing.T) {
	set, _ := buildSet(t)
	ts := newTestServer(t, set, Options{MaxBatch: 3})
	if code := postJSON(t, ts.URL+"/query", `{"pairs":`, nil); code != http.StatusBadRequest {
		t.Errorf("truncated JSON: status %d, want 400", code)
	}
	if code := postJSON(t, ts.URL+"/query", `not json at all`, nil); code != http.StatusBadRequest {
		t.Errorf("non-JSON: status %d, want 400", code)
	}
	over := `{"pairs":[{"u":0,"v":1},{"u":0,"v":2},{"u":0,"v":3},{"u":0,"v":4}]}`
	if code := postJSON(t, ts.URL+"/query", over, nil); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized batch: status %d, want 413", code)
	}
	// A body past the byte cap is cut off before it is ever decoded.
	var huge strings.Builder
	huge.WriteString(`{"pairs":[`)
	for i := 0; i < 1000; i++ {
		if i > 0 {
			huge.WriteString(",")
		}
		fmt.Fprintf(&huge, `{"u":%d,"v":%d}`, i, i+1)
	}
	huge.WriteString("]}")
	if code := postJSON(t, ts.URL+"/query", huge.String(), nil); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413", code)
	}
	var reply BatchReply
	if code := postJSON(t, ts.URL+"/query", `{"pairs":[]}`, &reply); code != http.StatusOK || len(reply.Results) != 0 {
		t.Errorf("empty batch: status %d results %d, want 200 with 0", code, len(reply.Results))
	}
	// The empty reply must be "results":[] — never "results":null, and
	// not dependent on what an earlier batch left in the scratch pool.
	for i := 0; i < 2; i++ {
		resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(`{"pairs":[]}`))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if !strings.Contains(string(raw), `"results":[]`) {
			t.Errorf("empty batch body = %s, want \"results\":[]", raw)
		}
		// Populate the pool's scratch between the two empty batches.
		if code := postJSON(t, ts.URL+"/query", `{"pairs":[{"u":0,"v":1}]}`, nil); code != http.StatusOK {
			t.Fatalf("warmup batch: status %d", code)
		}
	}
}

func TestSketchEndpoint(t *testing.T) {
	set, _ := buildSet(t)
	ts := newTestServer(t, set, Options{MaxBatch: 8})
	resp, err := http.Get(ts.URL + "/sketch/13")
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /sketch/13: status %d", resp.StatusCode)
	}
	if !bytes.Equal(blob, set.SketchBytes(13)) {
		t.Error("served sketch bytes differ from SketchBytes(13)")
	}
	if got := resp.Header.Get("X-Sketch-Kind"); got != string(set.Kind()) {
		t.Errorf("X-Sketch-Kind = %q, want %q", got, set.Kind())
	}
	// The wire bytes must round-trip through the peer-side decode path.
	sk, err := distsketch.ParseSketch(blob)
	if err != nil {
		t.Fatalf("ParseSketch on served bytes: %v", err)
	}
	if sk.Owner() != 13 {
		t.Errorf("served sketch owner %d, want 13", sk.Owner())
	}

	for path, want := range map[string]int{
		"/sketch/banana": http.StatusBadRequest,
		"/sketch/-1":     http.StatusNotFound,
		"/sketch/64":     http.StatusNotFound,
		"/sketch/":       http.StatusNotFound, // empty wildcard: unrouted
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s: status %d, want %d", path, resp.StatusCode, want)
		}
	}

	// POST /sketch, the batch form: one frame per requested node, in
	// request order and duplicates included, each holding exactly the
	// bytes GET /sketch/{u} serves.
	nodes := []int{13, 0, 63, 13, 7, 0}
	code, raw := postRaw(t, ts.URL+"/sketch", `{"nodes":[13,0,63,13,7,0]}`)
	if code != http.StatusOK {
		t.Fatalf("POST /sketch: status %d (%s)", code, raw)
	}
	blobs, err := splitSketchFrames(raw, len(nodes))
	if err != nil {
		t.Fatalf("POST /sketch frames: %v", err)
	}
	for i, u := range nodes {
		if _, want := getRaw(t, fmt.Sprintf("%s/sketch/%d", ts.URL, u)); !bytes.Equal(blobs[i], want) {
			t.Errorf("POST /sketch frame %d (node %d) differs from GET /sketch/%d", i, u, u)
		}
	}
	if code, raw := postRaw(t, ts.URL+"/sketch", `{"nodes":[]}`); code != http.StatusOK || len(raw) != 0 {
		t.Errorf("POST /sketch with no nodes: status %d body %q, want 200 and empty", code, raw)
	}
	huge := `{"nodes":[` + strings.Repeat("1,", 1000) + `1]}`
	for body, want := range map[string]int{
		`{"nodes":`:                     http.StatusBadRequest,
		`not json at all`:               http.StatusBadRequest,
		`{"nodes":[0,1,2,3,4,5,6,7,8]}`: http.StatusRequestEntityTooLarge, // over MaxBatch
		huge:                            http.StatusRequestEntityTooLarge, // past the byte bound
	} {
		if code, raw := postRaw(t, ts.URL+"/sketch", body); code != want {
			t.Errorf("POST /sketch %.30q: status %d (%s), want %d", body, code, raw, want)
		}
	}
	// One id the set cannot answer fails the whole request with the
	// status and body GET gives that id.
	getCode, getBody := getRaw(t, ts.URL+"/sketch/64")
	code, raw = postRaw(t, ts.URL+"/sketch", `{"nodes":[1,64,2]}`)
	if code != http.StatusNotFound || getCode != http.StatusNotFound || !bytes.Equal(raw, getBody) {
		t.Errorf("POST /sketch with id 64: %d %s, want GET's %d %s", code, raw, getCode, getBody)
	}
}

func TestStatsEndpoint(t *testing.T) {
	set, g := buildSet(t)
	ts := newTestServer(t, set, Options{Graph: g})
	var before StatsReply
	if code := getJSON(t, ts.URL+"/stats", &before); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	if before.Kind != string(set.Kind()) || before.Nodes != set.N() {
		t.Errorf("stats identity: %+v", before)
	}
	if before.MaxSketchWords != set.MaxSketchWords() || before.MeanSketchWords != set.MeanSketchWords() {
		t.Errorf("stats sizes: got (%d, %g), want (%d, %g)",
			before.MaxSketchWords, before.MeanSketchWords, set.MaxSketchWords(), set.MeanSketchWords())
	}
	if before.Cost.Rounds != set.Rounds() || before.Cost.Messages != set.Messages() {
		t.Errorf("stats cost: %+v", before.Cost)
	}
	if !before.UpdatesSupported {
		t.Error("landmark set with graph should report updates_supported")
	}
	// The served-queries counter must move with traffic.
	getJSON(t, ts.URL+"/query?u=1&v=2", nil)
	getJSON(t, ts.URL+"/query?u=3&v=4", nil)
	var after StatsReply
	getJSON(t, ts.URL+"/stats", &after)
	if after.QueriesServed != before.QueriesServed+2 {
		t.Errorf("queries_served %d -> %d, want +2", before.QueriesServed, after.QueriesServed)
	}

	noGraph := newTestServer(t, set, Options{})
	var ng StatsReply
	getJSON(t, noGraph.URL+"/stats", &ng)
	if ng.UpdatesSupported {
		t.Error("server without a graph must not report updates_supported")
	}
}

func TestUpdateEdgeEndpoint(t *testing.T) {
	set, g := buildSet(t)
	ts := newTestServer(t, set, Options{Graph: g})
	e := g.Edges()[0]
	if e.Weight < 2 {
		t.Fatalf("test graph edge %v too light to decrease", e)
	}

	// A decrease must apply, and the served estimates must be
	// byte-identical to an in-process repair of the same edge.
	expect := set.Clone()
	g2, err := g.Reweighted([]distsketch.Edge{{U: e.U, V: e.V, Weight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	wantStats, err := expect.UpdateEdges(g2, []distsketch.EdgeChange{{U: e.U, V: e.V}})
	if err != nil {
		t.Fatal(err)
	}
	var rep UpdateReply
	body := fmt.Sprintf(`{"u":%d,"v":%d,"weight":1}`, e.U, e.V)
	if code := postJSON(t, ts.URL+"/update-edge", body, &rep); code != http.StatusOK {
		t.Fatalf("update-edge decrease: status %d", code)
	}
	if rep.Messages != wantStats.Messages || rep.Rounds != wantStats.Rounds {
		t.Errorf("repair stats: got %+v, want %+v", rep, wantStats)
	}
	for _, pair := range [][2]int{{0, 63}, {e.U, e.V}, {9, 44}} {
		var res QueryResult
		getJSON(t, fmt.Sprintf("%s/query?u=%d&v=%d", ts.URL, pair[0], pair[1]), &res)
		want := expect.Query(pair[0], pair[1])
		if res.Estimate == nil || *res.Estimate != want {
			t.Errorf("post-repair query (%d,%d): got %v, want %d", pair[0], pair[1], res.Estimate, want)
		}
	}
	var st StatsReply
	getJSON(t, ts.URL+"/stats", &st)
	if st.UpdatesApplied != 1 {
		t.Errorf("updates_applied = %d, want 1", st.UpdatesApplied)
	}

	// An idempotent retry (same weight again) is a free 200 no-op.
	var noop UpdateReply
	if code := postJSON(t, ts.URL+"/update-edge", body, &noop); code != http.StatusOK {
		t.Fatalf("update-edge no-op retry: status %d", code)
	}
	if noop.Messages != 0 || noop.Rounds != 0 {
		t.Errorf("no-op retry should cost nothing, got %+v", noop)
	}

	// A weight increase must be refused (422) and leave the served set
	// untouched.
	before := map[[2]int]distsketch.Dist{}
	for _, pair := range [][2]int{{0, 63}, {9, 44}} {
		before[pair] = expect.Query(pair[0], pair[1])
	}
	body = fmt.Sprintf(`{"u":%d,"v":%d,"weight":%d}`, e.U, e.V, e.Weight*100)
	var er struct {
		Error string `json:"error"`
	}
	if code := postJSON(t, ts.URL+"/update-edge", body, &er); code != http.StatusUnprocessableEntity {
		t.Fatalf("update-edge increase: status %d, want 422 (%+v)", code, er)
	}
	if !strings.Contains(er.Error, "rebuild") {
		t.Errorf("increase error should direct the caller to rebuild: %q", er.Error)
	}
	for pair, want := range before {
		var res QueryResult
		getJSON(t, fmt.Sprintf("%s/query?u=%d&v=%d", ts.URL, pair[0], pair[1]), &res)
		if res.Estimate == nil || *res.Estimate != want {
			t.Errorf("estimate (%d,%d) changed after refused increase: got %v, want %d",
				pair[0], pair[1], res.Estimate, want)
		}
	}
}

func TestUpdateEdgeMalformed(t *testing.T) {
	set, g := buildSet(t)
	ts := newTestServer(t, set, Options{Graph: g})
	cases := []struct {
		body string
		want int
	}{
		{`{"u":0,"v":`, http.StatusBadRequest},               // truncated JSON
		{`{"u":0,"v":1,"weight":-3}`, http.StatusBadRequest}, // negative weight
		{`{"u":0,"v":1,"weight":0}`, http.StatusBadRequest},  // zero weight (verification needs > 0)
		{`{"u":-1,"v":1,"weight":3}`, http.StatusNotFound},   // node below range
		{`{"u":0,"v":64,"weight":3}`, http.StatusNotFound},   // node above range
		{`{"u":0,"v":0,"weight":3}`, http.StatusNotFound},    // self-loop: no such edge
	}
	// {0, x} for a non-neighbor x: find one.
	nonNeighbor := -1
	for v := 1; v < g.N(); v++ {
		if !g.HasEdge(0, v) {
			nonNeighbor = v
			break
		}
	}
	if nonNeighbor >= 0 {
		cases = append(cases, struct {
			body string
			want int
		}{fmt.Sprintf(`{"u":0,"v":%d,"weight":3}`, nonNeighbor), http.StatusNotFound})
	}
	for _, c := range cases {
		if code := postJSON(t, ts.URL+"/update-edge", c.body, nil); code != c.want {
			t.Errorf("update-edge %q: status %d, want %d", c.body, code, c.want)
		}
	}

	// Without a topology the endpoint is a 409, not a crash.
	noGraph := newTestServer(t, set, Options{})
	if code := postJSON(t, noGraph.URL+"/update-edge", `{"u":0,"v":1,"weight":1}`, nil); code != http.StatusConflict {
		t.Errorf("update-edge without graph: status %d, want 409", code)
	}

	// Every kind repairs through the same batch pipeline now: a TZ set
	// accepts a decrease (the result is verified against the new graph),
	// and a same-weight retry is an idempotent 200 no-op.
	g2, err := distsketch.NewRandomWeightedGraph(distsketch.FamilyGeometric, 32, 2, 20, 3)
	if err != nil {
		t.Fatal(err)
	}
	tzSet, err := distsketch.Build(g2, distsketch.Options{Kind: distsketch.KindTZ, K: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	e := g2.Edges()[0]
	tzServer := newTestServer(t, tzSet, Options{Graph: g2})
	var upd UpdateReply
	body := fmt.Sprintf(`{"u":%d,"v":%d,"weight":1}`, e.U, e.V)
	if code := postJSON(t, tzServer.URL+"/update-edge", body, &upd); code != http.StatusOK {
		t.Errorf("update-edge decrease on tz set: status %d, want 200", code)
	} else if upd.EdgesApplied != 1 {
		t.Errorf("tz decrease applied %d edges, want 1", upd.EdgesApplied)
	}
	body = fmt.Sprintf(`{"u":%d,"v":%d,"weight":1}`, e.U, e.V)
	upd = UpdateReply{}
	if code := postJSON(t, tzServer.URL+"/update-edge", body, &upd); code != http.StatusOK || upd.EdgesApplied != 0 {
		t.Errorf("idempotent retry: status %d, applied %d; want 200, 0", code, upd.EdgesApplied)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, Options{}); err == nil {
		t.Error("New(nil) should fail")
	}
	set, _ := buildSet(t)
	other, err := distsketch.NewRandomWeightedGraph(distsketch.FamilyRing, 10, 1, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(set, Options{Graph: other}); err == nil {
		t.Error("New with mismatched graph size should fail")
	}
}

func TestSaveEndpointSnapshots(t *testing.T) {
	set, _ := buildSet(t)
	path := t.TempDir() + "/snap.dsk"
	ts := newTestServer(t, set, Options{SnapshotPath: path})
	var rep SaveReply
	if code := postJSON(t, ts.URL+"/save", "", &rep); code != http.StatusOK {
		t.Fatalf("POST /save: status %d", code)
	}
	if rep.Path != path || rep.Nodes != set.N() || rep.EnvelopeVersion != distsketch.SetVersion2 {
		t.Errorf("save reply %+v", rep)
	}
	// The snapshot round-trips through the recovering loader and answers
	// identically to the served set.
	loaded, err := distsketch.LoadSketchSet(path)
	if err != nil {
		t.Fatalf("loading the snapshot: %v", err)
	}
	for _, p := range [][2]int{{0, 63}, {5, 40}, {17, 17}} {
		if got, want := loaded.Query(p[0], p[1]), set.Query(p[0], p[1]); got != want {
			t.Errorf("snapshot Query(%d,%d) = %d, want %d", p[0], p[1], got, want)
		}
	}
	var st StatsReply
	getJSON(t, ts.URL+"/stats", &st)
	if st.SnapshotsSaved != 1 {
		t.Errorf("snapshots_saved = %d, want 1", st.SnapshotsSaved)
	}

	// Without a configured path the endpoint refuses rather than writing
	// somewhere surprising.
	bare := newTestServer(t, set, Options{})
	if code := postJSON(t, bare.URL+"/save", "", nil); code != http.StatusConflict {
		t.Errorf("POST /save without a snapshot path: status %d, want 409", code)
	}
}

func TestHealthAndReadyEndpoints(t *testing.T) {
	set, _ := buildSet(t)
	srv, err := New(set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	var h HealthReply
	if code := getJSON(t, ts.URL+"/healthz", &h); code != http.StatusOK || h.Status != "ok" {
		t.Errorf("/healthz: status %d reply %+v", code, h)
	}
	var r ReadyReply
	if code := getJSON(t, ts.URL+"/readyz", &r); code != http.StatusOK || !r.Ready || r.Nodes != set.N() {
		t.Errorf("/readyz: status %d reply %+v", code, r)
	}
	srv.BeginDrain()
	if code := getJSON(t, ts.URL+"/readyz", nil); code != http.StatusServiceUnavailable {
		t.Errorf("/readyz after BeginDrain: status %d, want 503", code)
	}
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Errorf("/healthz after BeginDrain: status %d, want 200 (liveness is not readiness)", code)
	}
	var st StatsReply
	getJSON(t, ts.URL+"/stats", &st)
	if !st.Draining {
		t.Error("stats should report draining")
	}
}
