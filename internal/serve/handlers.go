package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"

	"distsketch"
)

// Wire types. Status conventions: 400 for input that does not parse
// (non-integer ids, bad JSON, negative weights), 404 for well-formed ids
// naming a node or edge that does not exist, 421 with the shard hint for
// ids another node-range shard owns, 413 for oversized batches, 409 for
// /update-edge without a loaded topology (or /save without a snapshot
// path), 422 with rebuild_required:true when a batch cannot be repaired
// incrementally (a weight increase the kind cannot verify exact) and the
// caller must rebuild instead, 503 with Retry-After when the admission
// gate sheds load, the per-request deadline expires mid-execution, or
// /readyz is draining, 500 with node/offset context when a lazily loaded
// label turns out to be corrupt (distsketch.ErrCorruptLabel; counted in
// /stats as decode_failures), and 502 from a router whose upstream failed.

// QueryResult is one estimate in a single or batched query reply.
type QueryResult struct {
	U int `json:"u"`
	V int `json:"v"`
	// Estimate is null when the two sketches share no common reference
	// (the in-process query's Inf sentinel) — see Unreachable — or when
	// Error is set.
	Estimate    *distsketch.Dist `json:"estimate"`
	Unreachable bool             `json:"unreachable,omitempty"`
	// Error reports a per-pair failure inside a batch (out-of-range ids);
	// the batch as a whole still answers 200.
	Error string `json:"error,omitempty"`
}

// QueryPair is one u,v pair of a batched query request.
type QueryPair struct {
	U int `json:"u"`
	V int `json:"v"`
}

// BatchRequest is the POST /query body.
type BatchRequest struct {
	Pairs []QueryPair `json:"pairs"`
}

// BatchReply is the POST /query response: one result per request pair,
// in order.
type BatchReply struct {
	Results []QueryResult `json:"results"`
}

// SketchBatchRequest is the POST /sketch body: the nodes whose wire
// sketches to return. The reply is application/octet-stream holding,
// for each requested node in request order (duplicates included), a
// uvarint length followed by exactly the bytes GET /sketch/{u} returns.
type SketchBatchRequest struct {
	Nodes []int `json:"nodes"`
}

// UpdateRequest is one edge change of a POST /update-edge request: the
// new weight of an existing edge {u,v}. The body is either a single
// object or a JSON array of them; an array is applied as one batch — one
// clone, one repair, one atomic swap — and rejects atomically, so a bad
// change means no change was applied.
type UpdateRequest struct {
	U      int             `json:"u"`
	V      int             `json:"v"`
	Weight distsketch.Dist `json:"weight"`
}

// UpdateReply reports an applied repair batch: how many edge changes it
// covered after dedup and no-op elimination, how the served labels moved
// (replaced vs shared pointer-identical with the previous set), and the
// CONGEST cost of the repair (zero for the centralized hierarchy repairs
// of tz/cdg/graceful sketches).
type UpdateReply struct {
	EdgesApplied   int   `json:"edges_applied"`
	LabelsReplaced int   `json:"labels_replaced"`
	LabelsShared   int   `json:"labels_shared"`
	Rounds         int   `json:"rounds"`
	Messages       int64 `json:"messages"`
	Words          int64 `json:"words"`
}

// StatsReply is the GET /stats response.
type StatsReply struct {
	Kind            string  `json:"kind"`
	Nodes           int     `json:"nodes"`
	MaxSketchWords  int     `json:"max_sketch_words"`
	MeanSketchWords float64 `json:"mean_sketch_words"`
	// EnvelopeVersion is the envelope version the served set was loaded
	// from (0 when the set was built in process rather than loaded).
	EnvelopeVersion int `json:"envelope_version"`
	// EnvelopeChecksum is the crc32 of the envelope payload the served
	// set was loaded from (0 for an in-process build). Replicated routing
	// compares it across the replicas of a shard group: replicas serving
	// the same node range must serve byte-identical envelopes.
	EnvelopeChecksum uint32 `json:"envelope_checksum"`
	// SketchesDecoded counts the set's currently decoded sketches; with
	// a lazily loaded (version-2) envelope it grows from 0 toward Nodes
	// as traffic touches labels.
	SketchesDecoded int `json:"sketches_decoded"`
	// SketchesPending counts labels not yet decoded (lazy sets only).
	SketchesPending int `json:"sketches_pending"`
	// Backing reports how the served set's payload bytes are owned:
	// "mmap" for a set opened zero-copy over its envelope file, "heap"
	// otherwise.
	Backing string `json:"backing"`
	// MappedBytes is the size of the mmap'd envelope region (0 for heap
	// backing).
	MappedBytes int `json:"mapped_bytes"`
	// Shard is the node-range shard this server answers for, when the
	// served set is a shard of a larger set; absent for a full set.
	Shard         *ShardHint  `json:"shard,omitempty"`
	Cost          CostReply   `json:"cost"`
	Phases        []CostPhase `json:"phases,omitempty"`
	QueriesServed int64       `json:"queries_served"`
	// UpdatesApplied counts applied update batches (a single-object
	// request is a one-edge batch).
	UpdatesApplied   int64 `json:"updates_applied"`
	UpdatesSupported bool  `json:"updates_supported"`
	// Repair summarizes the batched-repair pipeline since startup.
	Repair RepairReply `json:"repair"`
	// RequestsShed counts requests rejected by the bounded in-flight
	// admission gate (503 + Retry-After).
	RequestsShed int64 `json:"requests_shed"`
	// PanicsRecovered counts handler panics the recovery middleware
	// absorbed; any nonzero value deserves a look at the logs.
	PanicsRecovered int64 `json:"panics_recovered"`
	// DeadlineExceeded counts requests cut off by the per-request
	// execution deadline.
	DeadlineExceeded int64 `json:"deadline_exceeded"`
	// DecodeFailures counts queries that hit a corrupt lazily loaded
	// label (distsketch.ErrCorruptLabel) — the envelope is damaged behind
	// its checksum and should be replaced.
	DecodeFailures int64 `json:"decode_failures"`
	// SnapshotsSaved counts POST /save snapshots written.
	SnapshotsSaved int64 `json:"snapshots_saved"`
	// Draining is true once graceful shutdown has begun (readiness is
	// already answering 503).
	Draining bool `json:"draining"`
}

// SaveReply is the POST /save response.
type SaveReply struct {
	Path            string `json:"path"`
	Nodes           int    `json:"nodes"`
	EnvelopeVersion int    `json:"envelope_version"`
}

// HealthReply is the GET /healthz response.
type HealthReply struct {
	Status string `json:"status"`
}

// ReadyReply is the GET /readyz response (200 only).
type ReadyReply struct {
	Ready           bool `json:"ready"`
	Nodes           int  `json:"nodes"`
	SketchesDecoded int  `json:"sketches_decoded"`
}

// CostReply mirrors distsketch.CostBreakdown's totals in wire casing.
type CostReply struct {
	Rounds          int   `json:"rounds"`
	Messages        int64 `json:"messages"`
	Words           int64 `json:"words"`
	DataMessages    int64 `json:"data_messages,omitempty"`
	EchoMessages    int64 `json:"echo_messages,omitempty"`
	ControlMessages int64 `json:"control_messages,omitempty"`
	SetupRounds     int   `json:"setup_rounds,omitempty"`
}

// CostPhase is one named construction phase's cost.
type CostPhase struct {
	Name     string `json:"name"`
	Rounds   int    `json:"rounds"`
	Messages int64  `json:"messages"`
	Words    int64  `json:"words"`
}

// RepairReply is the /stats repair section: per-batch counters for the
// clone-repair-verify-swap pipeline, with edge totals broken out per
// sketch kind (a server serves one kind, so the map names the kinds the
// process has actually repaired).
type RepairReply struct {
	// Batches counts applied repair batches (same as updates_applied).
	Batches int64 `json:"batches"`
	// Edges counts edge changes applied across all batches, after dedup
	// and no-op elimination.
	Edges int64 `json:"edges"`
	// RebuildRejected counts batches refused with rebuild_required (the
	// repair could not be verified sound; the served set was untouched).
	RebuildRejected int64 `json:"rebuild_rejected"`
	// LabelsReplaced and LabelsShared total, across applied batches, how
	// many served labels each swap replaced vs shared with its
	// predecessor — the repair-locality measure.
	LabelsReplaced int64 `json:"labels_replaced"`
	LabelsShared   int64 `json:"labels_shared"`
	// EdgesByKind breaks Edges down by sketch kind.
	EdgesByKind map[string]int64 `json:"edges_by_kind,omitempty"`
}

// ShardHint is the typed redirect hint a shard server attaches to a 421
// (Misdirected Request) reply when a query names a node that exists but
// is owned by a different node-range shard: this server answers for
// global ids [Lo, Hi) out of Total. A router (or any client holding the
// shard map) uses it to re-aim the request; a client without the map
// learns the id was valid, just mis-routed.
type ShardHint struct {
	Lo    int `json:"lo"`
	Hi    int `json:"hi"`
	Total int `json:"total"`
}

type errorReply struct {
	Error string `json:"error"`
	// RebuildRequired marks a 422 from /update-edge meaning this batch
	// cannot be repaired incrementally (typically a weight increase a
	// kind cannot verify) and the set must be rebuilt; the served set is
	// untouched.
	RebuildRequired bool `json:"rebuild_required,omitempty"`
	// Shard carries the serving shard's node range on a 421 reply (the
	// requested node exists but lives in a different shard).
	Shard *ShardHint `json:"shard,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	// Encoding our own reply types cannot fail; a broken connection is
	// the client's problem.
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorReply{Error: fmt.Sprintf(format, args...)})
}

// queryParam parses a required integer query parameter.
func queryParam(r *http.Request, name string) (int, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return 0, fmt.Errorf("missing query parameter %q", name)
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, fmt.Errorf("query parameter %s=%q is not an integer", name, raw)
	}
	return v, nil
}

// resultInto formats one checked query outcome as a wire QueryResult,
// storing a finite estimate in *slot and referencing it from the result.
// The caller owns slot's lifetime: the batch path hands out slots from a
// pooled per-batch arena, so filling a result does not heap-allocate a
// Dist per pair the way `res.Estimate = &d` on a loop variable did.
//
//sketchlint:hotpath
func resultInto(u, v int, d distsketch.Dist, err error, slot *distsketch.Dist) QueryResult {
	res := QueryResult{U: u, V: v}
	switch {
	case err != nil:
		res.Error = err.Error()
	case d == distsketch.Inf:
		res.Unreachable = true
	default:
		*slot = d
		res.Estimate = slot
	}
	return res
}

// The local backend: Server answers from the set snapshot each request
// loads once from s.cur.

func (s *Server) query(_ context.Context, u, v int) (distsketch.Dist, error) {
	return s.cur.Load().set.QueryChecked(u, v)
}

// batch answers pairs from one snapshot: every pair is answered from the
// same set version even if a repair swaps mid-request.
func (s *Server) batch(ctx context.Context, pairs []QueryPair, sc *batchScratch) (int64, int, error) {
	set := s.cur.Load().set
	if err := shardMiss(set, pairs); err != nil {
		return 0, 0, err
	}
	// Answer in (u, v)-sorted order while keeping the reply in request
	// order: a batch with repeated sources runs each source's queries
	// back to back, so the merge-intersections of one source's label hit
	// a warm cache (and a lazily loaded set decodes that label exactly
	// once for its whole group) instead of re-faulting it per scattered
	// pair. Sorting n small ints is noise next to the queries it speeds.
	order := sc.order[:0]
	for i := range pairs {
		order = append(order, i)
	}
	sort.Slice(order, func(x, y int) bool {
		px, py := pairs[order[x]], pairs[order[y]]
		if px.U != py.U {
			return px.U < py.U
		}
		return px.V < py.V
	})
	sc.order = order
	served, reached, _ := s.executePairs(ctx, set, pairs, order, sc.results, sc.dists)
	return served, reached, nil
}

// shardMiss returns the facade's ErrShardRange error for the first id
// of pairs that exists in the full id space but lies outside the shard
// set serves (never, for an unsharded set), or nil. A shard fails such
// a batch as a whole, as POST /sketch does: a per-pair error inside a
// 200 would hide the 421 that tells a router its shard map is stale.
func shardMiss(set *distsketch.SketchSet, pairs []QueryPair) error {
	lo, hi := set.NodeRange()
	total := set.TotalNodes()
	for _, p := range pairs {
		for _, u := range [2]int{p.U, p.V} {
			if (u < lo || u >= hi) && u >= 0 && u < total {
				_, err := set.SketchChecked(u)
				return err
			}
		}
	}
	return nil
}

// writeSketchFrame appends one POST /sketch reply frame to buf: blob's
// uvarint length, then blob.
func writeSketchFrame(buf *bytes.Buffer, blob []byte) {
	buf.Write(binary.AppendUvarint(buf.AvailableBuffer(), uint64(len(blob))))
	buf.Write(blob)
}

// executePairs is the batch serving hot loop: it answers every pair (in
// the cache-friendly sorted order) into results, storing finite
// estimates in the pre-sized dists arena. The per-request deadline is
// polled between pairs (every 64, so the check costs nothing against
// the ~100ns-per-query loop): a batch that outlives its budget reports
// finished=false and the index it stopped at, and the handler answers
// 503 instead of pinning the worker until the client's own timeout
// fires. The loop itself performs zero allocations per pair — every
// byte it writes lands in pooled storage owned by the caller.
//
//sketchlint:hotpath
func (s *Server) executePairs(ctx context.Context, set *distsketch.SketchSet, pairs []QueryPair, order []int, results []QueryResult, dists []distsketch.Dist) (served int64, stopped int, finished bool) {
	for k, i := range order {
		if k&63 == 0 && ctx.Err() != nil {
			return served, k, false
		}
		if s.queryHook != nil {
			s.queryHook()
		}
		p := pairs[i]
		d, err := set.QueryChecked(p.U, p.V)
		results[i] = resultInto(p.U, p.V, d, err, &dists[i])
		if err == nil {
			served++
		} else {
			s.countDecodeFailure(err)
		}
	}
	return served, len(order), true
}

func (s *Server) sketch(_ context.Context, u int) ([]byte, distsketch.Kind, int, error) {
	set := s.cur.Load().set
	blob, err := set.SketchBytesChecked(u)
	if err != nil {
		return nil, "", 0, err
	}
	return blob, set.Kind(), set.SketchWords(u), nil
}

func (s *Server) sketches(_ context.Context, nodes []int, buf *bytes.Buffer) error {
	set := s.cur.Load().set
	for _, u := range nodes {
		blob, err := set.SketchBytesChecked(u)
		if err != nil {
			return err
		}
		writeSketchFrame(buf, blob)
	}
	return nil
}

// shardHint names the served set's range. Only a shard reports
// ErrShardRange, and a shard is never swapped (it serves without a
// graph), so this is the range of the set the failing request read.
func (s *Server) shardHint() *ShardHint {
	set := s.cur.Load().set
	lo, hi := set.NodeRange()
	return &ShardHint{Lo: lo, Hi: hi, Total: set.TotalNodes()}
}

func (s *Server) stats() any {
	st := s.cur.Load()
	cost := st.set.Cost()
	decoded := st.set.DecodedSketches()
	reply := StatsReply{
		Kind:             string(st.set.Kind()),
		Nodes:            st.set.N(),
		MaxSketchWords:   st.set.MaxSketchWords(),
		MeanSketchWords:  st.set.MeanSketchWords(),
		EnvelopeVersion:  st.set.EnvelopeVersion(),
		EnvelopeChecksum: st.set.Checksum(),
		SketchesDecoded:  decoded,
		SketchesPending:  st.set.N() - decoded,
		Backing:          st.set.Backing(),
		MappedBytes:      st.set.MappedBytes(),
		Cost: CostReply{
			Rounds:          cost.Total.Rounds,
			Messages:        cost.Total.Messages,
			Words:           cost.Total.Words,
			DataMessages:    cost.DataMessages,
			EchoMessages:    cost.EchoMessages,
			ControlMessages: cost.ControlMessages,
			SetupRounds:     cost.SetupRounds,
		},
		QueriesServed:    s.queries.Load(),
		UpdatesApplied:   s.updates.Load(),
		UpdatesSupported: st.g != nil,
		Repair: RepairReply{
			Batches:         s.updates.Load(),
			Edges:           s.updateEdges.Load(),
			RebuildRejected: s.rebuildRejected.Load(),
			LabelsReplaced:  s.labelsReplaced.Load(),
			LabelsShared:    s.labelsShared.Load(),
		},
		RequestsShed:     s.shed.Load(),
		PanicsRecovered:  s.panics.Load(),
		DeadlineExceeded: s.deadlines.Load(),
		DecodeFailures:   s.decodeFailures.Load(),
		SnapshotsSaved:   s.snapshots.Load(),
		Draining:         s.draining.Load(),
	}
	if st.set.Sharded() {
		reply.Shard = s.shardHint()
	}
	if edges := s.updateEdges.Load(); edges > 0 {
		reply.Repair.EdgesByKind = map[string]int64{string(st.set.Kind()): edges}
	}
	for _, p := range cost.Phases {
		reply.Phases = append(reply.Phases, CostPhase{
			Name: p.Name, Rounds: p.Rounds, Messages: p.Messages, Words: p.Words,
		})
	}
	return reply
}

// ready reports the served set ready. With Options.ProbeDecode it
// first proves the envelope decodes by touching the set's first node's
// label through the query path — a lazily loaded envelope corrupted
// behind its checksum fails here, before traffic is routed to it.
func (s *Server) ready() (ReadyReply, error) {
	set := s.cur.Load().set
	if s.probeDecode {
		// Probe the first node this set actually holds — node 0 belongs to
		// a different shard on all but the first shard server.
		lo, _ := set.NodeRange()
		if _, err := set.QueryChecked(lo, lo); err != nil {
			return ReadyReply{}, fmt.Errorf("decode probe failed: %w", err)
		}
	}
	return ReadyReply{Ready: true, Nodes: set.N(), SketchesDecoded: set.DecodedSketches()}, nil
}

// decodeUpdateBody parses a POST /update-edge body: a JSON array of
// UpdateRequest (the batch form) or a single object (the 1-element
// case), distinguished by the first non-space byte.
func decodeUpdateBody(body []byte) ([]UpdateRequest, error) {
	trimmed := bytes.TrimLeft(body, " \t\r\n")
	if len(trimmed) > 0 && trimmed[0] == '[' {
		var reqs []UpdateRequest
		if err := json.Unmarshal(trimmed, &reqs); err != nil {
			return nil, err
		}
		return reqs, nil
	}
	var req UpdateRequest
	if err := json.Unmarshal(trimmed, &req); err != nil {
		return nil, err
	}
	return []UpdateRequest{req}, nil
}

func (s *Server) handleUpdateEdges(w http.ResponseWriter, r *http.Request) {
	// ~96 bytes covers any one encoded change; the batch cap shared with
	// POST /query bounds the array form.
	r.Body = http.MaxBytesReader(w, r.Body, int64(s.maxBatch)*96+4096)
	body, err := io.ReadAll(r.Body)
	if err != nil {
		if maxErr := (*http.MaxBytesError)(nil); errors.As(err, &maxErr) {
			writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", maxErr.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, "reading request body: %v", err)
		return
	}
	reqs, err := decodeUpdateBody(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "decoding request body: %v", err)
		return
	}
	if len(reqs) == 0 {
		writeError(w, http.StatusBadRequest, "empty update batch")
		return
	}
	if len(reqs) > s.maxBatch {
		writeError(w, http.StatusRequestEntityTooLarge, "%d changes exceed the %d-change batch cap", len(reqs), s.maxBatch)
		return
	}
	// Weights below 1 are refused even though the graph model allows 0:
	// the repair verification's exactness argument needs strictly
	// positive weights (a zero-weight cycle could mutually support stale
	// labels and sneak a wrong set past the swap).
	for _, q := range reqs {
		if q.Weight < 1 || q.Weight >= distsketch.Inf {
			writeError(w, http.StatusBadRequest, "edge (%d,%d): weight %d outside [1, Inf)", q.U, q.V, q.Weight)
			return
		}
	}
	// Serialize the whole clone-repair-swap cycle; the topology read must
	// happen under the lock so back-to-back updates compose.
	s.updateMu.Lock()
	defer s.updateMu.Unlock()
	// The deadline may have expired while this request queued behind
	// other updates; refuse before paying for the O(m) reweight and the
	// repair rather than committing a swap the client stopped waiting
	// for.
	if r.Context().Err() != nil {
		s.deadlines.Add(1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "request deadline exceeded while queued behind earlier updates")
		return
	}
	st := s.cur.Load()
	if st.g == nil {
		writeError(w, http.StatusConflict, "server holds no topology; restart with a graph to enable /update-edge")
		return
	}
	n := st.g.N()
	// Validate every change against the held topology before any repair
	// work: the batch rejects as a whole or applies as a whole. Repeats of
	// the same edge collapse to the last-written weight (the batch behaves
	// like applying its changes in order).
	repl := make(map[[2]int]distsketch.Dist, len(reqs))
	order := make([][2]int, 0, len(reqs))
	for _, q := range reqs {
		if q.U < 0 || q.U >= n || q.V < 0 || q.V >= n {
			writeError(w, http.StatusNotFound, "edge (%d,%d): node id outside [0,%d)", q.U, q.V, n)
			return
		}
		a, b := q.U, q.V
		if a > b {
			a, b = b, a
		}
		key := [2]int{a, b}
		if _, ok := st.g.EdgeWeight(a, b); !ok {
			writeError(w, http.StatusNotFound, "edge (%d,%d) not in graph", q.U, q.V)
			return
		}
		if _, seen := repl[key]; !seen {
			order = append(order, key)
		}
		repl[key] = q.Weight
	}
	// Drop no-ops (final weight equals the held topology's weight): an
	// all-no-op batch is an idempotent retry — the current set already is
	// the repaired set — and skips the clone-repair-verify cycle. (Like
	// every update path, this trusts that the startup -graph matched the
	// served set; a wrong graph file is an operator error no single
	// request can reliably detect.)
	changes := make([]distsketch.EdgeChange, 0, len(order))
	edits := make([]distsketch.Edge, 0, len(order))
	for _, key := range order {
		old, _ := st.g.EdgeWeight(key[0], key[1])
		if repl[key] == old {
			continue
		}
		changes = append(changes, distsketch.EdgeChange{U: key[0], V: key[1], PrevWeight: old})
		edits = append(edits, distsketch.Edge{U: key[0], V: key[1], Weight: repl[key]})
	}
	if len(changes) == 0 {
		writeJSON(w, http.StatusOK, UpdateReply{LabelsShared: st.set.N()})
		return
	}
	next, err := st.g.Reweighted(edits)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Repair a clone off to the side; readers keep hitting the old set
	// until the swap below. A failed repair leaves them on it for good.
	// The whole batch pays exactly one clone and one swap.
	if s.repairHook != nil {
		s.repairHook("clone")
	}
	setClone := st.set.Clone()
	stats, err := setClone.UpdateEdges(next, changes)
	if err != nil {
		rebuild := errors.Is(err, distsketch.ErrRebuildRequired)
		if rebuild {
			s.rebuildRejected.Add(1)
		}
		writeJSON(w, http.StatusUnprocessableEntity, errorReply{Error: err.Error(), RebuildRequired: rebuild})
		return
	}
	// Diff the swap for the reply and the repair-locality counters: the
	// repair shares unchanged labels pointer-identically, so comparing
	// sketch pointers counts exactly the replaced ones.
	replaced := 0
	for u := 0; u < setClone.N(); u++ {
		if setClone.Sketch(u) != st.set.Sketch(u) {
			replaced++
		}
	}
	if s.repairHook != nil {
		s.repairHook("swap")
	}
	s.cur.Store(&state{set: setClone, g: next})
	s.updates.Add(1)
	s.updateEdges.Add(int64(len(changes)))
	s.labelsReplaced.Add(int64(replaced))
	s.labelsShared.Add(int64(setClone.N() - replaced))
	writeJSON(w, http.StatusOK, UpdateReply{
		EdgesApplied:   len(changes),
		LabelsReplaced: replaced,
		LabelsShared:   setClone.N() - replaced,
		Rounds:         stats.Rounds, Messages: stats.Messages, Words: stats.Words,
	})
}

// handleSave writes the served set to the configured snapshot path
// crash-safely: a kill at any instant leaves either the previous
// snapshot or the new one, never a torn file (distsketch.SaveSketchSet).
func (s *Server) handleSave(w http.ResponseWriter, r *http.Request) {
	if s.snapshotPath == "" {
		writeError(w, http.StatusConflict, "server has no snapshot path; restart with one to enable POST /save")
		return
	}
	// One snapshot at a time: concurrent saves would serialize the same
	// set twice and race the final rename for no benefit. The set pointer
	// is loaded under the lock, so back-to-back saves are monotone.
	s.saveMu.Lock()
	defer s.saveMu.Unlock()
	st := s.cur.Load()
	version := distsketch.SetVersion2
	if st.set.Sharded() {
		// A shard can only round-trip through the shard envelope (the
		// node range has nowhere to live in version 2).
		version = distsketch.SetVersion3
	}
	if err := distsketch.SaveSketchSet(s.snapshotPath, st.set, version); err != nil {
		writeError(w, http.StatusInternalServerError, "snapshot failed: %v", err)
		return
	}
	s.snapshots.Add(1)
	writeJSON(w, http.StatusOK, SaveReply{
		Path: s.snapshotPath, Nodes: st.set.N(), EnvelopeVersion: version,
	})
}
