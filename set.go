package distsketch

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"runtime"
	"sync/atomic"

	"distsketch/internal/congest"
	"distsketch/internal/core"
	"distsketch/internal/sketch"
)

// ErrNodeRange reports a node id outside a set's [0, N()) range. The
// checked accessors (QueryChecked, SketchChecked, SketchBytesChecked)
// wrap it, so servers validating untrusted request input can match it
// with errors.Is and answer with a client error instead of crashing.
var ErrNodeRange = errors.New("node id out of range")

// ErrRebuildRequired reports that an incremental repair cannot restore
// exact labels — typically because the changed edge's weight increased,
// which invalidates the warm-start upper bounds — and the set must be
// rebuilt from scratch with Build. UpdateEdges wraps it; the set is left
// unchanged when it is returned.
var ErrRebuildRequired = errors.New("incremental repair cannot restore exact labels; rebuild the sketch set")

// Stats is the CONGEST cost of a construction, one of its phases, or an
// incremental repair: synchronous rounds executed (Rounds), messages
// delivered (Messages), and total message words (Words) — exactly the
// quantities the paper's theorems bound. Add and Sub combine costs
// componentwise; String formats one as "rounds=R messages=M words=W".
type Stats = congest.Stats

// PhaseCost is the cost of one named construction phase.
type PhaseCost struct {
	Name string
	Stats
}

// CostBreakdown separates a construction's total cost into the paper's
// accounting categories.
type CostBreakdown struct {
	// Total is the whole construction (plus any later UpdateEdges
	// repairs, which accumulate into it).
	Total Stats
	// Phases breaks the construction into its phases in execution
	// order: the Thorup–Zwick Bellman–Ford phases k-1..0 for KindTZ,
	// the wave/adopt/net-TZ/ship stages for KindCDG, one entry per
	// slack level for KindGraceful.
	Phases []PhaseCost
	// DataMessages counts Bellman–Ford data messages only.
	DataMessages int64
	// EchoMessages counts Section 3.3 ECHO messages (zero outside
	// detection mode).
	EchoMessages int64
	// ControlMessages counts BFS setup, COMPLETE, START and FINISH
	// messages (detection mode).
	ControlMessages int64
	// SetupRounds is the leader-election/BFS-tree prologue (detection).
	SetupRounds int
}

// SketchSet is a built set of distance sketches: one Sketch per node
// plus the CONGEST cost of constructing them. It is a plain value — it
// can be queried, persisted with WriteTo, reloaded with ReadSketchSet,
// and repaired in place with UpdateEdges.
type SketchSet struct {
	kind   Kind
	labels labelStore
	// envVersion records which envelope version the set was loaded from:
	// 0 for a set built in process, otherwise SetVersion2 or SetVersion3.
	envVersion int
	cost       CostBreakdown
	// net is the landmark density net, retained (and persisted) so a
	// reloaded set still supports incremental repair. Net ids are global
	// node ids (against shardTotal for a shard). Nil for other kinds.
	net []int
	// graph is the graph of the last successful UpdateEdges, the one the
	// labels were last verified exact on (TZ, landmark) or certified for
	// (CDG, graceful); nil after Build or a load, which would otherwise
	// hold a graph no repair may ever need. Clones share it, and it is
	// never persisted. A TZ repair whose graph equals it except at the
	// batch's edges checks only what the batch changed.
	graph *Graph
	// shardLo and shardTotal describe a node-range shard sliced from a
	// larger set (envelope version 3): this set holds the sketches of
	// global nodes [shardLo, shardLo+N()) out of shardTotal. shardTotal
	// is 0 for an unsharded set.
	shardLo    int
	shardTotal int
	// backing owns the mapped byte region the stored blobs point into
	// for a set opened with OpenSketchSet; nil for heap-backed sets.
	// closed is set by Close and makes label access fail with
	// ErrSetClosed instead of touching a possibly unmapped region.
	backing *backing
	closed  bool
	// envCRC is the crc32-IEEE checksum of the envelope payload the set
	// was loaded from (0 for a set built in process). Replicated serving
	// uses it as a cheap content-identity check: two replicas claiming
	// the same node range must have loaded byte-identical envelopes.
	envCRC uint32
}

// labelStore holds a set's labels: one slot per node. A built or
// repaired set fills every slot up front. A set loaded from an envelope
// keeps each node's wire blob (a sub-slice of the retained payload —
// zero copies at load time) and the directory's word count, and fills
// a slot on first touch. Slots are atomic pointers, so concurrent
// queries may race to decode the same label; the decode is
// deterministic and the loser adopts the winner's value, making
// first-touch decoding safe under the serving layer's lock-free reads.
//
// Clones share a store, so nothing but a first-touch decode ever writes
// into one: UpdateEdges and Materialize install a fresh store instead.
// The zero value is an empty store.
type labelStore struct {
	slots []atomic.Pointer[Sketch]
	// decoded counts the filled slots of every handle sharing the store.
	decoded *atomic.Int64
	// blobs, words and offsets are nil unless the store was loaded from
	// an envelope. offsets holds each blob's byte offset within that
	// envelope, so a first-touch decode failure can point the operator
	// at the corrupt bytes (ErrCorruptLabel.Offset).
	blobs   [][]byte
	words   []int
	offsets []int64
}

// filledStore returns a store of n slots, slot i holding at(i), with no
// stored blobs: the store of a built, materialized or repaired set.
func filledStore(n int, at func(i int) *Sketch) labelStore {
	st := labelStore{slots: make([]atomic.Pointer[Sketch], n), decoded: new(atomic.Int64)}
	for i := range st.slots {
		st.slots[i].Store(at(i))
	}
	st.decoded.Store(int64(n))
	return st
}

// builtStore wraps the labels a construction produced, one per node.
func builtStore[L sketch.Label](kind Kind, labels []L) labelStore {
	return filledStore(len(labels), func(i int) *Sketch { return &Sketch{kind: kind, label: labels[i]} })
}

// get returns slot i's sketch, decoding its stored blob on first touch;
// node is the slot's global id, which a decode failure names.
func (st *labelStore) get(i, node int) (*Sketch, error) {
	if sk := st.slots[i].Load(); sk != nil {
		return sk, nil
	}
	sk, err := ParseSketch(st.blobs[i])
	if err != nil {
		// Unreachable for envelopes written by WriteTo (the payload is
		// checksummed and each blob was a marshaled label); reachable for
		// a crafted envelope whose directory passes the load-time tag and
		// owner checks but whose blob body is structurally invalid. The
		// typed error carries the node and the blob's envelope offset so a
		// server can answer 500-with-context and count the failure.
		return nil, &ErrCorruptLabel{Node: node, Offset: st.offsets[i], Err: err}
	}
	// The directory's word count was trusted for size statistics before
	// this label was ever decoded; reconcile it now so a crafted
	// envelope cannot keep lying once the label is actually served.
	if w := sk.Words(); w != st.words[i] {
		return nil, &ErrCorruptLabel{Node: node, Offset: st.offsets[i],
			Err: fmt.Errorf("directory claims %d words, label has %d", st.words[i], w)}
	}
	if st.slots[i].CompareAndSwap(nil, sk) {
		st.decoded.Add(1)
	} else {
		sk = st.slots[i].Load()
	}
	return sk, nil
}

// slice returns a view of slots [lo, hi) sharing the store's arrays.
func (st *labelStore) slice(lo, hi int) labelStore {
	v := labelStore{slots: st.slots[lo:hi], decoded: st.decoded}
	if st.blobs != nil {
		v.blobs, v.words, v.offsets = st.blobs[lo:hi], st.words[lo:hi], st.offsets[lo:hi]
	}
	return v
}

// Kind returns the construction used.
func (s *SketchSet) Kind() Kind { return s.kind }

// N returns the number of nodes this set holds sketches for (the shard
// size for a sharded set; see NodeRange and TotalNodes).
func (s *SketchSet) N() int { return len(s.labels.slots) }

// NodeRange returns the half-open global node-id range [lo, hi) this
// set answers for: [0, N()) for an unsharded set, the shard's slice of
// the full id space for a set loaded from a shard envelope.
func (s *SketchSet) NodeRange() (lo, hi int) {
	return s.shardLo, s.shardLo + s.N()
}

// TotalNodes returns the node count of the full sketch set this one was
// sliced from — the id space queries are addressed in. For an unsharded
// set it equals N().
func (s *SketchSet) TotalNodes() int {
	if s.shardTotal != 0 {
		return s.shardTotal
	}
	return s.N()
}

// Sharded reports whether this set is a node-range shard of a larger
// set (loaded from a version-3 envelope or sliced by WriteShard).
func (s *SketchSet) Sharded() bool { return s.shardTotal != 0 }

// sketchAt returns node u's decoded sketch, decoding lazily loaded
// labels on first touch. u must already be range-checked against
// NodeRange; it is translated to the shard-local slot here.
func (s *SketchSet) sketchAt(u int) (*Sketch, error) {
	if s.closed {
		return nil, ErrSetClosed
	}
	return s.labels.get(u-s.shardLo, u)
}

// Sketch returns node u's decoded sketch (decoding it on first touch
// for a lazily loaded set). The returned value shares state with the
// set; treat it as read-only. It panics if u is out of range or if a
// lazily loaded label turns out to be undecodable (possible only for a
// crafted envelope); callers handling untrusted input use SketchChecked.
func (s *SketchSet) Sketch(u int) *Sketch {
	sk, err := s.sketchAt(u)
	if err != nil {
		panic(err)
	}
	return sk
}

// checkNode validates a node id against the set's range. An id outside
// the whole id space wraps ErrNodeRange (the client named a node that
// does not exist); an id that exists but lives in a different shard
// wraps ErrShardRange — the typed redirect hint a shard server turns
// into "ask the right shard" rather than "no such node".
func (s *SketchSet) checkNode(u int) error {
	lo, hi := s.NodeRange()
	if u >= lo && u < hi {
		return nil
	}
	if s.shardTotal != 0 && u >= 0 && u < s.shardTotal {
		return fmt.Errorf("distsketch: node %d outside shard [%d,%d) of %d nodes: %w", u, lo, hi, s.shardTotal, ErrShardRange)
	}
	return fmt.Errorf("distsketch: node %d outside [%d,%d): %w", u, lo, hi, ErrNodeRange)
}

// SketchChecked is Sketch with bounds checking: an out-of-range node id
// (or an undecodable lazily loaded label) yields an error instead of a
// panic. This is the variant for ids arriving from untrusted input
// (network requests, command lines).
func (s *SketchSet) SketchChecked(u int) (*Sketch, error) {
	if err := s.checkNode(u); err != nil {
		return nil, err
	}
	return s.sketchAt(u)
}

// Query estimates the distance between u and v from their two sketches
// alone, on the decode-once path (no per-query unmarshaling; a lazily
// loaded label decodes on its first touch and is cached). It panics if
// either id is out of range; callers handling untrusted ids use
// QueryChecked.
func (s *SketchSet) Query(u, v int) Dist {
	d, err := sketch.Query(s.Sketch(u).label, s.Sketch(v).label)
	if err != nil {
		// Unreachable: a set holds sketches of one kind by construction.
		panic(err)
	}
	return d
}

// QueryChecked is Query with bounds checking: an out-of-range node id
// yields an error wrapping ErrNodeRange instead of a panic, so a server
// can answer a malformed request without dying.
func (s *SketchSet) QueryChecked(u, v int) (Dist, error) {
	if err := s.checkNode(u); err != nil {
		return 0, err
	}
	if err := s.checkNode(v); err != nil {
		return 0, err
	}
	su, err := s.sketchAt(u)
	if err != nil {
		return 0, err
	}
	sv, err := s.sketchAt(v)
	if err != nil {
		return 0, err
	}
	d, err := sketch.Query(su.label, sv.label)
	if err != nil {
		return 0, fmt.Errorf("distsketch: %w", err)
	}
	return d, nil
}

// sketchBytesAt returns node u's serialized sketch; u must already be
// range-checked. For a lazily loaded set the stored envelope bytes are
// cloned out of the backing, so the returned slice stays valid after
// the set is closed or swapped away.
func (s *SketchSet) sketchBytesAt(u int) ([]byte, error) {
	if s.closed {
		return nil, ErrSetClosed
	}
	i := u - s.shardLo
	if s.labels.blobs != nil {
		return bytes.Clone(s.labels.blobs[i]), nil
	}
	return sketch.Marshal(s.labels.slots[i].Load().label), nil
}

// SketchBytes returns node u's serialized sketch (what u would hand to a
// peer that asks for it; Section 2.1 of the paper). For a lazily loaded
// set the stored envelope bytes are returned without decoding the label.
// It panics if u is out of range; callers handling untrusted ids use
// SketchBytesChecked.
func (s *SketchSet) SketchBytes(u int) []byte {
	b, err := s.sketchBytesAt(u)
	if err != nil {
		panic(err)
	}
	return b
}

// SketchBytesChecked is SketchBytes with bounds checking: an
// out-of-range node id yields an error wrapping ErrNodeRange (or
// ErrShardRange for an id held by a different shard) instead of a
// panic.
func (s *SketchSet) SketchBytesChecked(u int) ([]byte, error) {
	if err := s.checkNode(u); err != nil {
		return nil, err
	}
	return s.sketchBytesAt(u)
}

// wordsAt returns the sketch size in words of the shard-local slot i.
func (s *SketchSet) wordsAt(i int) int {
	if s.labels.words != nil {
		return s.labels.words[i]
	}
	return s.labels.slots[i].Load().Words()
}

// SketchWords returns node u's sketch size in O(log n)-bit words. For a
// lazily loaded set the count comes from the envelope's directory, not
// from decoding the label.
func (s *SketchSet) SketchWords(u int) int {
	return s.wordsAt(u - s.shardLo)
}

// MaxSketchWords returns the largest sketch size in words. Answered from
// the directory for lazily loaded sets (no decoding).
func (s *SketchSet) MaxSketchWords() int {
	m := 0
	for i, n := 0, s.N(); i < n; i++ {
		if w := s.wordsAt(i); w > m {
			m = w
		}
	}
	return m
}

// MeanSketchWords returns the average sketch size in words, or 0 for an
// empty set. Answered from the directory for lazily loaded sets.
func (s *SketchSet) MeanSketchWords() float64 {
	n := s.N()
	if n == 0 {
		return 0
	}
	t := 0
	for i := 0; i < n; i++ {
		t += s.wordsAt(i)
	}
	return float64(t) / float64(n)
}

// EnvelopeVersion reports which envelope version the set was loaded
// from: SetVersion2 for a full set, SetVersion3 for a node-range shard,
// 0 for a set built in process.
func (s *SketchSet) EnvelopeVersion() int { return s.envVersion }

// Checksum returns the crc32-IEEE checksum of the envelope payload the
// set was loaded from, or 0 for a set built in process. Two replica
// servers claiming the same node range should report equal nonzero
// checksums — it is the cheap way to detect a replica serving the wrong
// (or stale) envelope before routing traffic to it.
func (s *SketchSet) Checksum() uint32 { return s.envCRC }

// DecodedSketches reports how many of the set's sketches are currently
// decoded: N() for built or materialized sets; the number of labels
// touched so far for a set loaded from an envelope.
func (s *SketchSet) DecodedSketches() int {
	if s.labels.decoded == nil {
		return 0
	}
	return int(s.labels.decoded.Load())
}

// Materialize decodes every not-yet-decoded sketch of a set loaded from
// an envelope and drops the stored blobs; afterwards the set behaves
// exactly like a built one. It is a no-op for sets that hold no blobs.
// Materialize is not safe to call concurrently with queries on the same
// value; clone first (the clone shares the decode cache).
func (s *SketchSet) Materialize() error {
	if s.labels.blobs == nil {
		return nil
	}
	if s.closed {
		return ErrSetClosed
	}
	old := s.labels
	for i := range old.slots {
		if _, err := old.get(i, s.shardLo+i); err != nil {
			return err
		}
	}
	s.labels = filledStore(len(old.slots), func(i int) *Sketch { return old.slots[i].Load() })
	// Every label now lives on the heap; this handle has no further use
	// for a mapped backing, so its reference is dropped here — this is
	// what lets the serving layer's clone-repair-swap run against an
	// mmap-opened set without leaking the mapping.
	return s.dropBacking()
}

// Clone returns an independent copy of the set that shares its label
// store: the decoded (immutable) sketch values and, for a set loaded
// from an envelope, the first-touch decode cache. A later UpdateEdges
// or Materialize on either copy installs a fresh store rather than
// writing into the shared one, so the other copy is unaffected — this
// is the primitive behind copy-on-write serving: repair a clone off to
// the side, then atomically swap it in while readers keep querying the
// original.
func (s *SketchSet) Clone() *SketchSet {
	c := new(SketchSet)
	*c = *s
	c.net = append([]int(nil), s.net...)
	c.cost.Phases = append([]PhaseCost(nil), s.cost.Phases...)
	if c.backing != nil && !c.closed {
		// The clone reads the same mapped region, so it holds its own
		// reference — the region stays mapped until every handle drops.
		c.backing.retain()
		runtime.SetFinalizer(c, (*SketchSet).finalize)
	} else {
		c.backing = nil
	}
	return c
}

// Cost returns the full CONGEST cost breakdown of the construction,
// including per-phase rounds, messages and words.
func (s *SketchSet) Cost() CostBreakdown { return s.cost }

// Rounds returns the CONGEST rounds the construction took.
func (s *SketchSet) Rounds() int { return s.cost.Total.Rounds }

// Messages returns the total messages the construction sent.
func (s *SketchSet) Messages() int64 { return s.cost.Total.Messages }

// Words returns the total message words the construction sent.
func (s *SketchSet) Words() int64 { return s.cost.Total.Words }

// EdgeChange identifies, for UpdateEdges, one edge (U, V) of the new
// topology whose weight changed. PrevWeight is the edge's weight before the
// change when the caller knows it (a server holding the pre-change graph
// does), or 0 for unknown. Landmark repairs never consult it. TZ repairs
// are verified exact against the new graph directly and use it only for
// speed: a batch whose every change carries it and decreases (or keeps)
// the weight propagates the decreases from the old labels, touching only
// the entries that change, instead of regrowing whole clusters found by
// a Dijkstra per changed edge's endpoint. CDG and graceful
// repairs require it: their labels cover only the density net, so
// exactness cannot be checked after the fact and soundness instead
// demands a certified decrease-only batch. A CDG or graceful batch with
// an unknown PrevWeight, or one covering an increase, is rejected with
// ErrRebuildRequired.
type EdgeChange = core.EdgeChange

// UpdateEdges repairs the set in place after a batch of edge weight
// changes, for every sketch kind, in one clone-repair-verify step. g
// must be the new topology (same node set and edge set as the build
// graph, with the changed weights). The whole batch converges together —
// overlapping affected regions are traversed once, not once per edge —
// and labels the repair did not change are kept pointer-identical, so
// Sketch values handed out earlier stay valid and a serving layer can
// diff the swap cheaply. The returned Stats is the cost of the repair
// alone (the landmark wave's messages; the centralized hierarchy repairs
// of the other kinds report zero); it also accumulates into
// Cost().Total.
//
// On success the repaired labels are byte-identical to a fresh Build on
// the mutated graph: structure (hierarchy levels, density nets) is
// sampled from weight-independent coin streams, so a rebuild keeps it,
// and the repair recomputes exactly the distances that could have
// changed, verifying the result where a complete check exists (landmark
// and TZ) or certifying the batch decrease-only up front (CDG and
// graceful — see EdgeChange.PrevWeight).
//
// The set keeps g after a successful non-empty batch (Clone shares it,
// WriteTo does not persist it). When the next batch's graph equals the
// kept one everywhere except at the batch's edges, the TZ verification
// evaluates only the conditions those edges, the nodes whose level
// distances moved and the changed entries touch; it reaches the
// whole-graph check's verdict because the labels were exact on the kept
// graph. A set just built or loaded keeps no graph, so its first repair
// checks the whole graph, and so does any batch whose graph differs from
// the kept one elsewhere.
//
// The rejection contract is atomic: any error leaves the set exactly as
// it was, with no partial batch applied. An error wrapping
// ErrRebuildRequired means this batch cannot be repaired soundly —
// typically a weight increase — and the set must be rebuilt with Build.
// Other errors (unknown edges, out-of-range nodes, non-positive
// weights) indicate a request that rebuilding would not fix.
//
// UpdateEdges is not safe for concurrent use with Query on the same
// set; a process serving queries while repairing must synchronize the
// swap (internal/serve clones, repairs the clone, and swaps an atomic
// pointer).
func (s *SketchSet) UpdateEdges(g *Graph, edges []EdgeChange) (Stats, error) {
	if s.closed {
		return Stats{}, ErrSetClosed
	}
	if s.Sharded() {
		// A shard holds only its range's labels; a repair must see (and
		// may rewrite) any label in the graph. Repair the full envelope
		// and re-split instead.
		return Stats{}, fmt.Errorf("distsketch: a node-range shard is read-only; repair the full sketch set and re-split")
	}
	n := s.N()
	if g.N() != n {
		return Stats{}, fmt.Errorf("distsketch: graph has %d nodes, set has %d", g.N(), n)
	}
	for _, e := range edges {
		if err := s.checkNode(e.U); err != nil {
			return Stats{}, err
		}
		if err := s.checkNode(e.V); err != nil {
			return Stats{}, err
		}
	}
	// The exactness verifications are unsound with zero-weight edges (a
	// zero-weight cycle could mutually support stale labels), so such
	// graphs are refused up front, before any repair work is paid.
	// Deliberately not ErrRebuildRequired: rebuilding cannot make this
	// graph repairable, so the sentinel's remedy would mislead.
	for _, e := range g.Edges() {
		if e.Weight == 0 {
			return Stats{}, fmt.Errorf("distsketch: graph has zero-weight edge (%d,%d); incremental repair requires strictly positive weights", e.U, e.V)
		}
	}
	// The repair reads every label, so a set loaded from an envelope is
	// fully decoded first (repair is a control-plane operation; laziness
	// exists for the query path).
	if err := s.Materialize(); err != nil {
		return Stats{}, err
	}
	// core.Repair treats prev as read-only (repaired labels go to fresh
	// storage), so the live labels can be handed over directly — a
	// mid-run failure cannot leave the set half-repaired.
	old := s.labels
	prev := make([]sketch.Label, n)
	for u := range prev {
		prev[u] = old.slots[u].Load().label
	}
	res, err := core.Repair(g, prev, &core.Prior{Graph: s.graph, Net: s.net}, edges, congest.Config{})
	if err != nil {
		if errors.Is(err, core.ErrUnsound) {
			return Stats{}, fmt.Errorf("distsketch: %v: %w", err, ErrRebuildRequired)
		}
		return Stats{}, fmt.Errorf("distsketch: %w", err)
	}
	// The old store may be shared with clones and their in-flight
	// readers, so the repaired labels go into a fresh one.
	s.labels = filledStore(n, func(u int) *Sketch {
		if res.Labels[u] == prev[u] {
			return old.slots[u].Load() // unchanged label: keep the existing Sketch value
		}
		return &Sketch{kind: s.kind, label: res.Labels[u]}
	})
	if len(edges) > 0 {
		// An empty batch verifies nothing, so the labels stay exact on the
		// graph they were exact on before.
		s.graph = g
	}
	s.cost.Total = s.cost.Total.Add(res.Cost)
	return res.Cost, nil
}

// Sketch-set envelope: a versioned container so a built set can be saved
// and served later without rebuilding. Layout:
//
//	magic "DSKSET" | version byte | payload length (uvarint) |
//	payload | crc32(payload) (4 bytes, little-endian)
//
// The payload holds the kind tag, node count, full cost breakdown, the
// landmark density net (repair support), and each node's sketch in the
// ParseSketch wire format, all integers as uvarints. The sketches are a
// per-node directory — one (blob length, label words) uvarint pair per
// node — followed by the concatenated blobs. ReadSketchSet performs an
// O(n) directory scan, points each node's blob into the retained payload
// buffer with zero per-entry copies, and decodes a label only when a
// query first touches it. Size statistics (SketchWords and friends)
// answer from the directory without decoding anything.
//
// Version 2 holds a full set. Version 3 is the node-range shard
// envelope: version 2's layout plus the shard's (first node, total
// nodes) recorded right after the node count, so a shard knows which
// global ids it answers for and how large the full id space is.
// WriteShard emits it; a shard set loads exactly like version 2 and
// addresses its sketches by global node id. Any other version byte —
// including the retired eager version 1 — is rejected as corrupt.
const (
	setMagic = "DSKSET"
	// SetVersion2 is the envelope version of a full (unsharded) set.
	SetVersion2 = 2
	// SetVersion3 is the node-range shard envelope: version 2 plus the
	// shard range. Only sharded sets (WriteShard slices) use it.
	SetVersion3 = 3
)

// checkVersion rejects an envelope version byte this build cannot read.
func checkVersion(version int) error {
	if version < SetVersion2 || version > SetVersion3 {
		return corrupt(int64(len(setMagic)), "unsupported sketch-set version %d (this build reads versions %d through %d)", version, SetVersion2, SetVersion3)
	}
	return nil
}

func putUvarint(buf *bytes.Buffer, v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	buf.Write(tmp[:n])
}

func putStats(buf *bytes.Buffer, s Stats) {
	putUvarint(buf, uint64(s.Rounds))
	putUvarint(buf, uint64(s.Messages))
	putUvarint(buf, uint64(s.Words))
}

// WriteTo serializes the set in its envelope format, which ReadSketchSet
// reads back with byte-identical query results: version 2 for an
// unsharded set, version 3 (version 2 plus the shard range) for a
// node-range shard. A set loaded from an envelope writes its stored
// blobs directly, without decoding pending labels. It implements
// io.WriterTo.
func (s *SketchSet) WriteTo(w io.Writer) (int64, error) {
	if s.closed {
		return 0, ErrSetClosed
	}
	version := s.writeVersion()
	n := s.N()
	var payload bytes.Buffer
	payload.WriteByte(tagOfKind(s.kind))
	putUvarint(&payload, uint64(n))
	if version == SetVersion3 {
		putUvarint(&payload, uint64(s.shardLo))
		putUvarint(&payload, uint64(s.shardTotal))
	}
	putStats(&payload, s.cost.Total)
	putUvarint(&payload, uint64(s.cost.DataMessages))
	putUvarint(&payload, uint64(s.cost.EchoMessages))
	putUvarint(&payload, uint64(s.cost.ControlMessages))
	putUvarint(&payload, uint64(s.cost.SetupRounds))
	putUvarint(&payload, uint64(len(s.cost.Phases)))
	for _, p := range s.cost.Phases {
		putUvarint(&payload, uint64(len(p.Name)))
		payload.WriteString(p.Name)
		putStats(&payload, p.Stats)
	}
	putUvarint(&payload, uint64(len(s.net)))
	for _, u := range s.net {
		putUvarint(&payload, uint64(u))
	}
	// Directory first (blob length + label words per node), then the
	// concatenated blobs: a reader can locate and size every label from
	// the directory alone. Stored blobs are written as loaded.
	blobs := make([][]byte, n)
	for u := range blobs {
		if s.labels.blobs != nil {
			blobs[u] = s.labels.blobs[u]
		} else {
			blobs[u] = sketch.Marshal(s.labels.slots[u].Load().label)
		}
		putUvarint(&payload, uint64(len(blobs[u])))
		putUvarint(&payload, uint64(s.wordsAt(u)))
	}
	for _, b := range blobs {
		payload.Write(b)
	}

	var head bytes.Buffer
	head.WriteString(setMagic)
	head.WriteByte(byte(version))
	putUvarint(&head, uint64(payload.Len()))
	var total int64
	nw, err := w.Write(head.Bytes())
	total += int64(nw)
	if err != nil {
		return total, err
	}
	nw, err = w.Write(payload.Bytes())
	total += int64(nw)
	if err != nil {
		return total, err
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(payload.Bytes()))
	nw, err = w.Write(crc[:])
	total += int64(nw)
	return total, err
}

// writeVersion is the one envelope version that can hold the set.
func (s *SketchSet) writeVersion() int {
	if s.Sharded() {
		return SetVersion3
	}
	return SetVersion2
}

func tagOfKind(k Kind) byte {
	switch k {
	case KindTZ:
		return sketch.TagTZ
	case KindLandmark:
		return sketch.TagLandmark
	case KindCDG:
		return sketch.TagCDG
	case KindGraceful:
		return sketch.TagGraceful
	default:
		panic(fmt.Sprintf("distsketch: unknown kind %q", k))
	}
}

func getUvarint(r *bytes.Reader) (uint64, error) {
	return binary.ReadUvarint(r)
}

// getCount reads a uvarint that counts elements of at least minBytes
// bytes each and bounds it by the remaining input, so a corrupt count
// cannot drive a huge allocation or loop.
//
//sketchlint:bounded
func getCount(r *bytes.Reader, minBytes int) (int, error) {
	v, err := getUvarint(r)
	if err != nil {
		return 0, err
	}
	if v > uint64(r.Len()/minBytes)+1 {
		return 0, fmt.Errorf("count %d exceeds input", v)
	}
	return int(v), nil
}

// corrupt reports locally detected envelope corruption at offset off.
func corrupt(off int64, format string, args ...any) error {
	return &ErrCorruptEnvelope{Offset: off, Err: fmt.Errorf(format, args...)}
}

// readFail classifies a read failure at offset off: the EOF family
// means the envelope ends early (a torn file — typed corruption, so the
// startup path can quarantine it); anything else is the reader's own
// I/O failure and passes through undisguised.
func readFail(off int64, what string, err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return corrupt(off, "%s: %v", what, err)
	}
	return fmt.Errorf("distsketch: %s: %w", what, err)
}

func getStats(r *bytes.Reader) (Stats, error) {
	var s Stats
	v, err := getUvarint(r)
	if err != nil {
		return s, err
	}
	s.Rounds = int(v)
	if v, err = getUvarint(r); err != nil {
		return s, err
	}
	s.Messages = int64(v)
	if v, err = getUvarint(r); err != nil {
		return s, err
	}
	s.Words = int64(v)
	return s, nil
}

// ReadSketchSet deserializes a set written by WriteTo.
// The input is validated end to end: envelope version, payload checksum,
// and every node's directory entry and sketch header (kind and owner
// must match its slot), so a corrupt or truncated file yields an error,
// never a panic or a silently wrong set. An envelope holding zero
// sketches is rejected too — every query against such a set would be out
// of range.
//
// Truncation, checksum failures, unparseable payloads and unsupported
// versions (the retired version 1 among them) return a typed
// *ErrCorruptEnvelope carrying the byte offset where the corruption was
// detected (match with errors.As); LoadSketchSet builds its quarantine
// behavior on that distinction. I/O errors from r itself pass through
// untyped.
//
// Loading is lazy: the directory is scanned (O(n)), each label's bytes
// are pointed into the retained payload buffer with zero copies, the tag
// and owner of every label are verified, and full decoding happens on
// first touch — serving startup does not pay for labels nobody queries.
func ReadSketchSet(r io.Reader) (*SketchSet, error) {
	cr := &countingReader{r: r}
	head := make([]byte, len(setMagic)+1)
	if _, err := io.ReadFull(cr, head); err != nil {
		return nil, readFail(cr.n, "reading sketch-set header", err)
	}
	if string(head[:len(setMagic)]) != setMagic {
		return nil, corrupt(0, "not a sketch set (bad magic)")
	}
	version := int(head[len(setMagic)])
	if err := checkVersion(version); err != nil {
		return nil, err
	}
	br := newByteReader(cr)
	plen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, readFail(cr.n, "reading payload length", err)
	}
	const maxPayload = 1<<32 - 1 // sanity cap against corrupt lengths
	if plen > maxPayload {
		return nil, corrupt(int64(len(setMagic)+1), "payload length %d exceeds cap", plen)
	}
	// base is where the payload starts in the envelope; every offset a
	// parse failure (or a lazy label) reports is base-relative-absolute.
	base := cr.n
	// Copy incrementally rather than pre-allocating plen bytes: the
	// length field is attacker-controlled, and a lying value must cost
	// only as much memory as data actually arrives.
	var payloadBuf bytes.Buffer
	if _, err := io.CopyN(&payloadBuf, br, int64(plen)); err != nil {
		return nil, readFail(cr.n, "reading payload", err)
	}
	payload := payloadBuf.Bytes()
	var crc [4]byte
	if _, err := io.ReadFull(br, crc[:]); err != nil {
		return nil, readFail(cr.n, "reading checksum", err)
	}
	got := crc32.ChecksumIEEE(payload)
	if got != binary.LittleEndian.Uint32(crc[:]) {
		return nil, corrupt(base+int64(plen), "sketch-set checksum mismatch")
	}
	set, err := parseSetPayload(payload, version, base)
	if err != nil {
		return nil, err
	}
	set.envCRC = got
	return set, nil
}

// parseSetPayload decodes a checksummed payload. base is the payload's
// byte offset within the envelope, so every corruption error reports an
// absolute file position.
func parseSetPayload(payload []byte, version int, base int64) (*SketchSet, error) {
	pr := bytes.NewReader(payload)
	pos := func() int64 { return base + int64(len(payload)-pr.Len()) }
	fail := func(format string, args ...any) error { return corrupt(pos(), format, args...) }
	tag, err := pr.ReadByte()
	if err != nil {
		return nil, fail("%v", err)
	}
	kind := kindOfTag(tag)
	if kind == "" {
		return nil, fail("unknown sketch kind tag %d", tag)
	}
	set := &SketchSet{kind: kind, envVersion: version}
	n, err := getCount(pr, 2) // each directory entry costs ≥ 2 payload bytes
	if err != nil {
		return nil, fail("node count: %v", err)
	}
	if n == 0 {
		// A zero-node set cannot answer any query; refuse to construct it
		// rather than hand back a value whose every accessor is a trap.
		return nil, fail("envelope holds no sketches")
	}
	if version == SetVersion3 {
		lo, err := getUvarint(pr)
		if err != nil {
			return nil, fail("shard range: %v", err)
		}
		total, err := getUvarint(pr)
		if err != nil {
			return nil, fail("shard range: %v", err)
		}
		if lo > math.MaxInt32 || total > math.MaxInt32 {
			return nil, fail("implausible shard range (first node %d of %d)", lo, total)
		}
		if total == 0 || lo+uint64(n) > total {
			return nil, fail("shard range [%d,%d) exceeds %d total nodes", lo, lo+uint64(n), total)
		}
		set.shardLo = int(lo)
		set.shardTotal = int(total)
	}
	if set.cost.Total, err = getStats(pr); err != nil {
		return nil, fail("cost totals: %v", err)
	}
	v, err := getUvarint(pr)
	if err != nil {
		return nil, fail("cost breakdown: %v", err)
	}
	set.cost.DataMessages = int64(v)
	if v, err = getUvarint(pr); err != nil {
		return nil, fail("cost breakdown: %v", err)
	}
	set.cost.EchoMessages = int64(v)
	if v, err = getUvarint(pr); err != nil {
		return nil, fail("cost breakdown: %v", err)
	}
	set.cost.ControlMessages = int64(v)
	if v, err = getUvarint(pr); err != nil {
		return nil, fail("cost breakdown: %v", err)
	}
	set.cost.SetupRounds = int(v)
	phases, err := getCount(pr, 4) // name length + 3 stats uvarints
	if err != nil {
		return nil, fail("phase count: %v", err)
	}
	for i := 0; i < phases; i++ {
		nameLen, err := getCount(pr, 1)
		if err != nil {
			return nil, fail("phase %d: %v", i, err)
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(pr, name); err != nil {
			return nil, fail("phase %d: %v", i, err)
		}
		st, err := getStats(pr)
		if err != nil {
			return nil, fail("phase %d: %v", i, err)
		}
		set.cost.Phases = append(set.cost.Phases, PhaseCost{Name: string(name), Stats: st})
	}
	netLen, err := getCount(pr, 1)
	if err != nil {
		return nil, fail("net size: %v", err)
	}
	// Net ids are global node ids: a shard keeps the full set's net (the
	// id space it validates against is the total, not the shard size).
	idSpace := n
	if set.shardTotal != 0 {
		idSpace = set.shardTotal
	}
	for i := 0; i < netLen; i++ {
		u, err := getUvarint(pr)
		if err != nil {
			return nil, fail("net node %d: %v", i, err)
		}
		if u >= uint64(idSpace) {
			return nil, fail("net node %d out of range [0,%d)", u, idSpace)
		}
		set.net = append(set.net, int(u))
	}
	return parseSketches(set, payload, pr, n, base)
}

// parseSketches reads a payload's sketch section: the per-node
// directory, then zero-copy blob slices into the retained payload. Each
// blob's leading tag byte and owner varint are verified at load; the
// label body decodes on first touch. base is the payload's envelope
// offset, recorded per blob so a first-touch decode failure can name
// the bad bytes.
func parseSketches(set *SketchSet, payload []byte, pr *bytes.Reader, n int, base int64) (*SketchSet, error) {
	pos := func() int64 { return base + int64(len(payload)-pr.Len()) }
	fail := func(format string, args ...any) error { return corrupt(pos(), format, args...) }
	st := labelStore{
		slots:   make([]atomic.Pointer[Sketch], n),
		decoded: new(atomic.Int64),
		blobs:   make([][]byte, n),
		words:   make([]int, n),
		offsets: make([]int64, n),
	}
	lens := make([]int, n)
	for u := 0; u < n; u++ {
		blobLen, err := getCount(pr, 1)
		if err != nil {
			return nil, fail("directory entry %d: %v", u, err)
		}
		words, err := getUvarint(pr)
		if err != nil {
			return nil, fail("directory entry %d: %v", u, err)
		}
		if words > math.MaxInt32 {
			return nil, fail("directory entry %d: implausible word count %d", u, words)
		}
		lens[u] = blobLen
		st.words[u] = int(words)
	}
	off := len(payload) - pr.Len()
	kindTag := tagOfKind(set.kind)
	for u := 0; u < n; u++ {
		if lens[u] < 2 {
			return nil, corrupt(base+int64(off), "node %d: blob length %d too short for a label", u, lens[u])
		}
		if lens[u] > len(payload)-off {
			return nil, corrupt(base+int64(off), "node %d: blob length %d exceeds payload", u, lens[u])
		}
		blob := payload[off : off+lens[u] : off+lens[u]]
		st.offsets[u] = base + int64(off)
		off += lens[u]
		if blob[0] != kindTag {
			return nil, corrupt(st.offsets[u], "node %d: sketch tag %d in a %s set", u, blob[0], set.kind)
		}
		owner, vn := binary.Varint(blob[1:])
		if vn <= 0 {
			return nil, corrupt(st.offsets[u], "node %d: unreadable sketch owner", u)
		}
		// Slot u of a shard envelope holds global node shardLo+u; the
		// blob's owner field must agree, or the shard would serve some
		// other node's label under this id.
		if owner != int64(set.shardLo+u) {
			return nil, corrupt(st.offsets[u], "node %d: sketch owned by %d", set.shardLo+u, owner)
		}
		st.blobs[u] = blob
	}
	if off != len(payload) {
		return nil, corrupt(base+int64(off), "%d trailing payload bytes", len(payload)-off)
	}
	set.labels = st
	return set, nil
}

// countingReader tracks how many bytes have been consumed from r, so
// corruption errors can report the envelope offset they were detected
// at.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// newByteReader adapts r for binary.ReadUvarint without buffering ahead
// (a bufio.Reader could consume bytes past the envelope).
func newByteReader(r io.Reader) *oneByteReader {
	if br, ok := r.(*oneByteReader); ok {
		return br
	}
	return &oneByteReader{r: r}
}

type oneByteReader struct {
	r   io.Reader
	one [1]byte
}

func (b *oneByteReader) Read(p []byte) (int, error) { return b.r.Read(p) }

func (b *oneByteReader) ReadByte() (byte, error) {
	if _, err := io.ReadFull(b.r, b.one[:]); err != nil {
		return 0, err
	}
	return b.one[0], nil
}
