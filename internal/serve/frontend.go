package serve

// The serving surface both tiers share. In the paper's query model
// (§2.1) an estimate needs only the two endpoints' sketches, so a
// full-set Server and a Router over node-range shards answer the same
// routes: one frontend parses, caps, gates and maps errors to statuses,
// over a backend that answers from a set snapshot or a shard map.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"log"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"distsketch"
)

// backend is what the frontend needs from a serving tier. Failures are
// errors; the frontend maps them to statuses (see fail).
type backend interface {
	// query answers one pair.
	query(ctx context.Context, u, v int) (distsketch.Dist, error)
	// batch answers pairs into sc.results, with finite estimates in
	// sc.dists (both sized to len(pairs)). It returns the pairs served
	// and how many it reached before the request deadline, len(pairs)
	// when it finished; an error fails the whole batch.
	batch(ctx context.Context, pairs []QueryPair, sc *batchScratch) (served int64, reached int, err error)
	// sketch returns node u's wire sketch, its kind and its size in words.
	sketch(ctx context.Context, u int) (blob []byte, kind distsketch.Kind, words int, err error)
	// sketches writes one frame per node, in request order, to buf.
	sketches(ctx context.Context, nodes []int, buf *bytes.Buffer) error
	// shardHint is the node range a 421 reply names.
	shardHint() *ShardHint
	// stats builds the GET /stats reply.
	stats() any
	// ready answers GET /readyz while the tier is not draining; an error
	// answers 503.
	ready() (ReadyReply, error)
}

// frontend is the route set, middleware and counters a Server and a
// Router embed.
type frontend struct {
	be         backend
	maxBatch   int
	reqTimeout time.Duration // 0 = disabled
	sem        chan struct{} // admission gate; nil = disabled
	logger     *log.Logger
	// failStatus answers a backend failure that is neither the client's
	// fault nor a routing miss: 500 for a local set, 502 for a router,
	// whose failures are its upstreams'.
	failStatus int
	draining   atomic.Bool

	queries        atomic.Int64 // estimates served (single + batched)
	shed           atomic.Int64 // requests rejected by the admission gate
	panics         atomic.Int64 // handler panics recovered
	deadlines      atomic.Int64 // requests cut off by the per-request deadline
	decodeFailures atomic.Int64 // corrupt lazily loaded labels hit by traffic
}

// setup applies the option defaults both tiers share: zero means the
// default, and a negative MaxInFlight or RequestTimeout disables the
// gate or the deadline.
func (f *frontend) setup(be backend, failStatus, maxBatch, maxInFlight int, reqTimeout time.Duration, logger *log.Logger) {
	f.be, f.failStatus, f.maxBatch, f.logger = be, failStatus, maxBatch, logger
	if f.maxBatch <= 0 {
		f.maxBatch = DefaultMaxBatch
	}
	if f.logger == nil {
		f.logger = log.Default()
	}
	switch {
	case reqTimeout == 0:
		f.reqTimeout = DefaultRequestTimeout
	case reqTimeout > 0:
		f.reqTimeout = reqTimeout
	}
	if maxInFlight == 0 {
		maxInFlight = DefaultMaxInFlight
	}
	if maxInFlight > 0 {
		f.sem = make(chan struct{}, maxInFlight)
	}
}

// routes returns the shared route table. Method mismatches answer 405.
func (f *frontend) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("GET /query", f.guard(f.handleQuery))
	mux.Handle("POST /query", f.guard(f.handleBatch))
	mux.Handle("GET /sketch/{u}", f.guard(f.handleSketch))
	mux.Handle("POST /sketch", f.guard(f.handleSketchBatch))
	// Observability and probes bypass the gate: they must answer exactly
	// when the tier is too busy (or too broken) to do real work.
	mux.Handle("GET /stats", deadlineMiddleware(f.reqTimeout, http.HandlerFunc(f.handleStats)))
	mux.HandleFunc("GET /healthz", f.handleHealthz)
	mux.HandleFunc("GET /readyz", f.handleReadyz)
	return mux
}

// guard wraps a work-doing route in the admission gate and the
// per-request deadline.
func (f *frontend) guard(h http.HandlerFunc) http.Handler {
	return gateMiddleware(f.sem, &f.shed, deadlineMiddleware(f.reqTimeout, h))
}

// fail writes a backend failure. An out-of-range id is the client's
// fault (404); an id owned by a different node-range shard is a routing
// miss (421 Misdirected Request, with the serving shard's range as the
// redirect hint); anything else answers failStatus. A corrupt lazily
// loaded label is counted: its error text already names the node and
// its envelope byte offset, so the operator can find the bad bytes.
func (f *frontend) fail(w http.ResponseWriter, err error) {
	reply := errorReply{Error: err.Error()}
	status := f.failStatus
	switch {
	case errors.Is(err, distsketch.ErrShardRange):
		status = http.StatusMisdirectedRequest
		reply.Shard = f.be.shardHint()
	case errors.Is(err, distsketch.ErrNodeRange):
		status = http.StatusNotFound
	default:
		f.countDecodeFailure(err)
	}
	writeJSON(w, status, reply)
}

// countDecodeFailure bumps the decode_failures counter when err is (or
// wraps) a corrupt-label error.
func (f *frontend) countDecodeFailure(err error) {
	var cl *distsketch.ErrCorruptLabel
	if errors.As(err, &cl) {
		f.decodeFailures.Add(1)
	}
}

func (f *frontend) handleQuery(w http.ResponseWriter, r *http.Request) {
	u, err := queryParam(r, "u")
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	v, err := queryParam(r, "v")
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	d, err := f.be.query(r.Context(), u, v)
	if err != nil {
		f.fail(w, err)
		return
	}
	f.queries.Add(1)
	// One escaping estimate per request is noise next to the JSON encode.
	var slot distsketch.Dist
	writeJSON(w, http.StatusOK, resultInto(u, v, d, nil, &slot))
}

// decodeBatchBody decodes the JSON body of a batch request (POST /query
// or POST /sketch) into into, answering 413 or 400 itself when it
// cannot. The bytes read are bounded before decoding: the item cap
// alone would let a huge body allocate its whole array first. ~64 bytes
// covers any one encoded pair or node id.
func decodeBatchBody(w http.ResponseWriter, r *http.Request, maxBatch int, into any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, int64(maxBatch)*64+1024)
	if err := json.NewDecoder(r.Body).Decode(into); err != nil {
		if maxErr := (*http.MaxBytesError)(nil); errors.As(err, &maxErr) {
			writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", maxErr.Limit)
			return false
		}
		writeError(w, http.StatusBadRequest, "decoding request body: %v", err)
		return false
	}
	return true
}

// handleBatch answers POST /query. Per-pair failures land in that pair's
// Error field and the batch still answers 200; a batch cut off by the
// request deadline answers 503.
func (f *frontend) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if !decodeBatchBody(w, r, f.maxBatch, &req) {
		return
	}
	n := len(req.Pairs)
	if n > f.maxBatch {
		writeError(w, http.StatusRequestEntityTooLarge, "%d pairs exceed the %d-pair batch cap", n, f.maxBatch)
		return
	}
	sc := batchScratchPool.Get().(*batchScratch)
	defer batchScratchPool.Put(sc)
	if sc.results == nil || cap(sc.results) < n {
		// Never leave results nil (a fresh pool entry): an empty batch
		// must encode as "results":[], not "results":null.
		sc.results = make([]QueryResult, 0, n)
	}
	sc.results = sc.results[:n]
	// The estimate arena is pre-sized before the backend runs: resultInto
	// hands out interior pointers into it, so it must never grow (and
	// move) mid-batch.
	if cap(sc.dists) < n {
		sc.dists = make([]distsketch.Dist, n)
	}
	sc.dists = sc.dists[:n]
	served, reached, err := f.be.batch(r.Context(), req.Pairs, sc)
	// One contended atomic per batch, not per pair — the counter must
	// not tax the hot path batching exists to amortize.
	f.queries.Add(served)
	if err != nil {
		f.fail(w, err)
		return
	}
	if reached < n {
		f.deadlines.Add(1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable,
			"request deadline exceeded after %d of %d pairs; split the batch or retry", reached, n)
		return
	}
	// Encode into the pooled buffer and write in one shot: one reused
	// allocation per batch instead of an encoder buffer per request.
	sc.buf.Reset()
	if err := json.NewEncoder(&sc.buf).Encode(BatchReply{Results: sc.results}); err != nil {
		writeError(w, http.StatusInternalServerError, "encoding reply: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(sc.buf.Bytes())
}

// batchScratch is the per-batch reusable state: the sort permutation,
// the result slice the reply serializes from, the estimate arena those
// results point into, and the output buffer (JSON for POST /query,
// sketch frames for POST /sketch). Pooling it keeps both batch
// endpoints' per-request allocations flat regardless of batch size.
type batchScratch struct {
	order   []int
	results []QueryResult
	dists   []distsketch.Dist
	buf     bytes.Buffer
}

var batchScratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

func (f *frontend) handleSketch(w http.ResponseWriter, r *http.Request) {
	u, err := strconv.Atoi(r.PathValue("u"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "node id %q is not an integer", r.PathValue("u"))
		return
	}
	blob, kind, words, err := f.be.sketch(r.Context(), u)
	if err != nil {
		f.fail(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Sketch-Kind", string(kind))
	w.Header().Set("X-Sketch-Words", strconv.Itoa(words))
	w.Write(blob)
}

// handleSketchBatch is the batch form of GET /sketch/{u}, the way
// POST /query is the batch form of GET /query: one round trip returns
// every sketch a caller needs. The whole request fails with the status
// GET would give the first id the backend cannot answer (404, or 421
// with the shard hint), so a 200 always carries every requested blob.
func (f *frontend) handleSketchBatch(w http.ResponseWriter, r *http.Request) {
	var req SketchBatchRequest
	if !decodeBatchBody(w, r, f.maxBatch, &req) {
		return
	}
	if len(req.Nodes) > f.maxBatch {
		writeError(w, http.StatusRequestEntityTooLarge, "%d nodes exceed the %d-node batch cap", len(req.Nodes), f.maxBatch)
		return
	}
	sc := batchScratchPool.Get().(*batchScratch)
	defer batchScratchPool.Put(sc)
	sc.buf.Reset()
	if err := f.be.sketches(r.Context(), req.Nodes, &sc.buf); err != nil {
		f.fail(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(sc.buf.Bytes())
}

func (f *frontend) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, f.be.stats())
}

// handleHealthz is the liveness probe: 200 whenever the process is up
// and routing requests. It deliberately does no work — liveness failing
// should mean "restart me", and a momentarily overloaded tier must not
// be restarted into a thundering herd.
func (f *frontend) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, HealthReply{Status: "ok"})
}

// handleReadyz is the readiness probe: 200 while the tier should
// receive traffic, 503 once a drain has begun (load balancers pull the
// backend while in-flight requests finish) or when the backend reports
// itself unready.
func (f *frontend) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if f.draining.Load() {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	reply, err := f.be.ready()
	if err != nil {
		f.countDecodeFailure(err)
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, reply)
}
