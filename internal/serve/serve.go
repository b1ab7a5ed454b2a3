// Package serve is the HTTP serving shell around a built sketch set —
// the paper's "millions of users" story made concrete. A process loads a
// persisted envelope once (distsketch.ReadSketchSet), holds the decoded
// sketch cache, and answers distance queries from the sketches alone:
//
//	GET  /query?u=&v=   one estimate
//	POST /query         many pairs per request (amortizes handler overhead)
//	GET  /sketch/{u}    node u's wire bytes, what a peer would request (§2.1)
//	POST /sketch        many nodes' wire bytes in one reply, each behind a
//	                    uvarint length (the batch form of GET /sketch/{u})
//	GET  /stats         construction cost breakdown + sketch-size summary
//	POST /update-edge   batched incremental repair behind one atomic set swap
//	POST /save          crash-safe snapshot of the served set (SnapshotPath)
//	GET  /healthz       liveness: the process is up and routing
//	GET  /readyz        readiness: envelope loaded, not draining
//
// All request input is untrusted: node ids are validated with the
// facade's checked accessors (distsketch.ErrNodeRange), malformed JSON
// and oversized batches get client errors, and nothing a request
// carries can panic the process.
//
// Failure model: the handler stack is wrapped in three middlewares.
// Panic recovery turns a handler panic into a logged 500 (the process
// survives; a panic after the response started aborts the connection so
// the client never sees a silently truncated 200). A bounded in-flight
// admission gate sheds excess load with 503 + Retry-After instead of
// queueing unboundedly — overload degrades into fast, explicit
// rejections rather than collapse. A per-request deadline
// (context.WithTimeout) is plumbed into batch execution so one enormous
// batch cannot pin a worker past the configured budget. The /healthz
// and /readyz probes bypass the gate: an overloaded server is still
// alive, and readiness must answer during a drain. /stats bypasses it
// too, so operators can watch the shed counters while the gate is
// rejecting work.
//
// Server and Router share one frontend (frontend.go) over a backend:
// a local sketch set for Server, the shard map for Router.
//
// Concurrency model: the current (set, graph) pair lives behind one
// atomic.Pointer. Queries load the pointer and read immutable decoded
// sketches — no locks on the hot path. An update repairs a clone of the
// set off to the side and swaps the pointer only on success, so a query
// observes either the pre-repair or the post-repair set, never a
// half-repaired one. Updates serialize among themselves on a mutex.
// Graceful shutdown: call BeginDrain (flips /readyz to 503), then
// http.Server.Shutdown — in-flight queries and the in-flight update
// swap complete; new connections are refused.
package serve

import (
	"fmt"
	"log"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"distsketch"
)

// DefaultMaxBatch is the POST /query pair cap (and the POST /sketch node
// cap) when Options.MaxBatch is 0.
const DefaultMaxBatch = 4096

// DefaultMaxInFlight is the admission-gate capacity when
// Options.MaxInFlight is 0: at most this many requests execute
// concurrently; excess load is shed with 503 + Retry-After.
const DefaultMaxInFlight = 256

// DefaultRequestTimeout is the per-request execution deadline when
// Options.RequestTimeout is 0.
const DefaultRequestTimeout = 30 * time.Second

// Options configures a Server.
type Options struct {
	// Graph is the current topology, required for POST /update-edge (the
	// repair needs the changed graph). Nil disables updates; queries are
	// unaffected.
	Graph *distsketch.Graph
	// MaxBatch caps the pairs accepted per POST /query request and the
	// nodes per POST /sketch request (default DefaultMaxBatch). Larger
	// batches get 413.
	MaxBatch int
	// MaxInFlight bounds concurrently executing requests (default
	// DefaultMaxInFlight; negative disables the gate). Requests beyond
	// the bound are shed immediately with 503 + Retry-After — bounded
	// work, not an unbounded queue. /healthz, /readyz and /stats bypass
	// the gate.
	MaxInFlight int
	// RequestTimeout is the per-request execution deadline (default
	// DefaultRequestTimeout; negative disables it). Batch query execution
	// checks the deadline between pairs and answers 503 when it expires.
	RequestTimeout time.Duration
	// SnapshotPath enables POST /save: the served set is written there
	// crash-safely (distsketch.SaveSketchSet). Empty disables the
	// endpoint.
	SnapshotPath string
	// ProbeDecode makes GET /readyz decode node 0's label through the
	// query path, proving the envelope's bytes actually decode — not
	// merely that its directory scanned — before a load balancer routes
	// traffic here. Costs one first-touch decode on lazily loaded sets.
	ProbeDecode bool
	// Logger receives panic stacks and lifecycle lines. Nil means
	// log.Default().
	Logger *log.Logger
}

// state is the atomically-swapped unit: the sketch set and the topology
// it was built (or last repaired) against always travel together.
type state struct {
	set *distsketch.SketchSet
	g   *distsketch.Graph
}

// Server answers distance queries from a sketch set. Create one with New
// and mount Handler on an http.Server. All methods are safe for
// concurrent use.
type Server struct {
	frontend
	cur          atomic.Pointer[state]
	updateMu     sync.Mutex // serializes /update-edge clone-repair-swap cycles
	saveMu       sync.Mutex // serializes /save snapshots (concurrent saves waste duplicate serialization)
	snapshotPath string
	probeDecode  bool

	updates         atomic.Int64 // repair batches applied
	updateEdges     atomic.Int64 // edge changes applied across all batches
	rebuildRejected atomic.Int64 // batches refused with rebuild_required
	labelsReplaced  atomic.Int64 // labels replaced by applied swaps
	labelsShared    atomic.Int64 // labels shared across applied swaps
	snapshots       atomic.Int64 // POST /save snapshots written

	// queryHook, when non-nil, runs before each batched pair executes —
	// a test seam for deadline and overload fault injection.
	queryHook func()
	// repairHook, when non-nil, observes the update pipeline's stages
	// ("clone" just before the set clone, "swap" just before the pointer
	// store) — a test seam pinning the one-clone-one-swap-per-batch
	// contract.
	repairHook func(stage string)
}

// New creates a server over a built (typically reloaded) sketch set.
func New(set *distsketch.SketchSet, opts Options) (*Server, error) {
	if set == nil || set.N() == 0 {
		return nil, fmt.Errorf("serve: empty sketch set")
	}
	if set.Sharded() && opts.Graph != nil {
		// A shard is read-only (repair needs every label); holding a
		// topology would advertise /update-edge support it cannot honor.
		return nil, fmt.Errorf("serve: a node-range shard is read-only; serve it without a graph (repair the full set and re-split)")
	}
	if opts.Graph != nil && opts.Graph.N() != set.N() {
		return nil, fmt.Errorf("serve: graph has %d nodes, sketch set has %d", opts.Graph.N(), set.N())
	}
	s := &Server{snapshotPath: opts.SnapshotPath, probeDecode: opts.ProbeDecode}
	s.setup(s, http.StatusInternalServerError, opts.MaxBatch, opts.MaxInFlight, opts.RequestTimeout, opts.Logger)
	s.cur.Store(&state{set: set, g: opts.Graph})
	return s, nil
}

// Set returns the currently served sketch set (the latest swapped-in
// snapshot; an in-flight repair is not visible until it commits).
func (s *Server) Set() *distsketch.SketchSet { return s.cur.Load().set }

// BeginDrain flips /readyz to 503 so load balancers stop routing new
// traffic here while in-flight requests finish. Queries keep being
// answered (a drain is not a refusal — connections already routed
// deserve their responses); call it just before http.Server.Shutdown.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Counters is a point-in-time snapshot of the server's traffic and
// failure counters, as surfaced in /stats — the final shutdown log line
// reads it after the drain completes.
type Counters struct {
	Queries          int64
	Updates          int64 // applied repair batches
	UpdateEdges      int64 // edge changes applied across all batches
	RebuildRejected  int64 // batches refused with rebuild_required
	LabelsReplaced   int64 // labels replaced by applied swaps
	LabelsShared     int64 // labels shared across applied swaps
	Shed             int64
	PanicsRecovered  int64
	DeadlineExceeded int64
	DecodeFailures   int64
	Snapshots        int64
}

// Counters returns a snapshot of the server's counters.
func (s *Server) Counters() Counters {
	return Counters{
		Queries:          s.queries.Load(),
		Updates:          s.updates.Load(),
		UpdateEdges:      s.updateEdges.Load(),
		RebuildRejected:  s.rebuildRejected.Load(),
		LabelsReplaced:   s.labelsReplaced.Load(),
		LabelsShared:     s.labelsShared.Load(),
		Shed:             s.shed.Load(),
		PanicsRecovered:  s.panics.Load(),
		DeadlineExceeded: s.deadlines.Load(),
		DecodeFailures:   s.decodeFailures.Load(),
		Snapshots:        s.snapshots.Load(),
	}
}

// Handler returns the route table wrapped in the middleware stack
// (panic recovery outermost, then per-route admission gate and request
// deadline). Method mismatches answer 405.
func (s *Server) Handler() http.Handler {
	mux := s.routes()
	mux.Handle("POST /update-edge", s.guard(s.handleUpdateEdges))
	mux.Handle("POST /save", s.guard(s.handleSave))
	return s.withRecover(mux)
}
