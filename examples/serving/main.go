// Serving scenario: the paper's end-to-end story. A one-time distributed
// construction builds the sketches (the expensive part the theorems
// bound); the set is persisted to an envelope; and a separate serving
// process — which never sees the construction — loads the envelope and
// answers distance queries over HTTP for "millions of users", repairing
// the live set in place when a link improves.
//
// This walkthrough runs all three roles in one process against a
// loopback server, exercising every sketchserve endpoint the way curl
// would:
//
//	GET  /query?u=&v=     GET /sketch/{u}     GET /stats
//	POST /query (batch)   POST /sketch (batch)   POST /update-edge
//
// Run with: go run ./examples/serving
package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"

	"distsketch"
	"distsketch/internal/serve"
)

func main() {
	// ---- Build once (the operator's box) ------------------------------
	const n = 256
	g, err := distsketch.NewRandomWeightedGraph(distsketch.FamilyGeometric, n, 10, 100, 42)
	if err != nil {
		log.Fatal(err)
	}
	set, err := distsketch.Build(g, distsketch.Options{Kind: distsketch.KindLandmark, Eps: 0.25, Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "distsketch-serving")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	envelope := filepath.Join(dir, "net.dsk")
	f, err := os.Create(envelope)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := set.WriteTo(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("built:   %d nodes, %d rounds, %d messages; envelope %s\n",
		set.N(), set.Rounds(), set.Messages(), envelope)

	// ---- Load and serve (the serving process) -------------------------
	// The server rebuilds nothing: ReadSketchSet decodes every sketch
	// once and queries run from the in-memory cache.
	ef, err := os.Open(envelope)
	if err != nil {
		log.Fatal(err)
	}
	loaded, err := distsketch.ReadSketchSet(ef)
	ef.Close()
	if err != nil {
		log.Fatal(err)
	}
	srv, err := serve.New(loaded, serve.Options{Graph: g})
	if err != nil {
		log.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	fmt.Printf("serving: %s (kind=%s, mean sketch %.1f words)\n\n", ts.URL, loaded.Kind(), loaded.MeanSketchWords())

	// ---- Single queries -----------------------------------------------
	for _, pair := range [][2]int{{0, 255}, {17, 203}, {99, 100}} {
		var res serve.QueryResult
		getJSON(ts.URL+fmt.Sprintf("/query?u=%d&v=%d", pair[0], pair[1]), &res)
		fmt.Printf("GET /query?u=%d&v=%d       -> d ≈ %s (in-process: %d)\n",
			pair[0], pair[1], estStr(res), set.Query(pair[0], pair[1]))
	}

	// ---- Batched queries ----------------------------------------------
	// One request, many estimates: the handler overhead is paid once.
	var body strings.Builder
	body.WriteString(`{"pairs":[`)
	for i := 0; i < 5; i++ {
		if i > 0 {
			body.WriteString(",")
		}
		fmt.Fprintf(&body, `{"u":%d,"v":%d}`, i*13, 255-i*11)
	}
	body.WriteString("]}")
	resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(body.String()))
	if err != nil {
		log.Fatal(err)
	}
	var batch serve.BatchReply
	if err := json.NewDecoder(resp.Body).Decode(&batch); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	fmt.Printf("\nPOST /query with %d pairs -> ", len(batch.Results))
	for _, r := range batch.Results {
		fmt.Printf("d(%d,%d)≈%s ", r.U, r.V, estStr(r))
	}
	fmt.Println()

	// ---- Peer-side sketch fetch (Section 2.1) -------------------------
	// A peer asks the server for both sketches in one POST /sketch and
	// estimates locally — the query needs no further help from the
	// server. Each frame holds exactly the bytes GET /sketch/{u} serves.
	blobs := fetchSketches(ts.URL, 0, 255)
	if !bytes.Equal(blobs[0], getBytes(ts.URL+"/sketch/0")) {
		log.Fatal("POST /sketch frame differs from GET /sketch/0")
	}
	a, err := distsketch.ParseSketch(blobs[0])
	if err != nil {
		log.Fatal(err)
	}
	b, err := distsketch.ParseSketch(blobs[1])
	if err != nil {
		log.Fatal(err)
	}
	est, err := a.Estimate(b)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nPOST /sketch {0,255}, estimated peer-side: d ≈ %d (GET /sketch/0 serves the same bytes)\n", est)

	// ---- A link improves: repair behind the atomic swap ---------------
	e := g.Edges()[0]
	upd := fmt.Sprintf(`{"u":%d,"v":%d,"weight":1}`, e.U, e.V)
	resp, err = http.Post(ts.URL+"/update-edge", "application/json", strings.NewReader(upd))
	if err != nil {
		log.Fatal(err)
	}
	var rep serve.UpdateReply
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	fmt.Printf("\nPOST /update-edge (%d,%d) %d->1: repaired in %d messages (build took %d)\n",
		e.U, e.V, e.Weight, rep.Messages, set.Messages())
	var res serve.QueryResult
	getJSON(ts.URL+fmt.Sprintf("/query?u=%d&v=%d", e.U, e.V), &res)
	fmt.Printf("GET /query?u=%d&v=%d now     -> d ≈ %s\n", e.U, e.V, estStr(res))

	// A weight *increase* is refused — the warm-start repair cannot
	// restore exact labels, so the server keeps serving the old set and
	// tells the operator to rebuild.
	upd = fmt.Sprintf(`{"u":%d,"v":%d,"weight":%d}`, e.U, e.V, e.Weight*10)
	resp, err = http.Post(ts.URL+"/update-edge", "application/json", strings.NewReader(upd))
	if err != nil {
		log.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	fmt.Printf("POST /update-edge (increase) -> HTTP %d: %s\n", resp.StatusCode, bytes.TrimSpace(msg))

	// ---- Operator stats ----------------------------------------------
	var stats serve.StatsReply
	getJSON(ts.URL+"/stats", &stats)
	fmt.Printf("\nGET /stats -> %d queries served, %d updates applied, construction %d rounds / %d messages\n",
		stats.QueriesServed, stats.UpdatesApplied, stats.Cost.Rounds, stats.Cost.Messages)
}

// estStr renders a query result's estimate, honoring the unreachable
// and per-pair error cases the wire format can carry.
func estStr(r serve.QueryResult) string {
	switch {
	case r.Error != "":
		return "error: " + r.Error
	case r.Estimate == nil:
		return "∞"
	default:
		return fmt.Sprintf("%d", *r.Estimate)
	}
}

func getJSON(url string, into any) {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		log.Fatal(err)
	}
}

func getBytes(url string) []byte {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatal(err)
	}
	return blob
}

// fetchSketches asks for the nodes' wire sketches with one POST /sketch
// and splits the reply: per node, in request order, a uvarint length
// followed by that many sketch bytes.
func fetchSketches(base string, nodes ...int) [][]byte {
	req, err := json.Marshal(serve.SketchBatchRequest{Nodes: nodes})
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.Post(base+"/sketch", "application/json", bytes.NewReader(req))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		log.Fatalf("POST /sketch: status %d, %v", resp.StatusCode, err)
	}
	blobs := make([][]byte, 0, len(nodes))
	for len(body) > 0 {
		n, k := binary.Uvarint(body)
		if k <= 0 || n > uint64(len(body)-k) {
			log.Fatal("POST /sketch: malformed frame")
		}
		blobs = append(blobs, body[k:k+int(n)])
		body = body[k+int(n):]
	}
	if len(blobs) != len(nodes) {
		log.Fatalf("POST /sketch: %d frames for %d nodes", len(blobs), len(nodes))
	}
	return blobs
}
