// Package sketch defines the distance-sketch (label) data types shared by
// the centralized reference constructions (internal/tz) and the distributed
// CONGEST constructions (internal/core), together with the query
// algorithms that turn two labels into a distance estimate.
//
// Terminology follows the paper:
//
//   - A hierarchy A_0 ⊇ A_1 ⊇ ... ⊇ A_{k-1}, A_k = ∅ is sampled by
//     independent per-node coins (each node of A_{i-1} survives to A_i
//     with probability p).
//   - topLevel(u) is the largest i with u ∈ A_i.
//   - p_i(u) is the node of A_i nearest to u (the "pivot"), with ties
//     broken toward the smaller node ID.
//   - B_i(u) = {w ∈ A_i : d(u,w) < d(u, A_{i+1})} and the bunch
//     B(u) = ∪_i B_i(u). Because w ∈ A_{i+1} has d(u,w) ≥ d(u,A_{i+1}),
//     each bunch member w belongs exactly to B_{topLevel(w)}(u); the
//     union is disjoint.
//
// The label L(u) stores the pivots (with distances) and the bunch (with
// distances and top levels), which is exactly the information the paper's
// query procedure (Lemma 3.2) needs.
package sketch

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"

	"distsketch/internal/graph"
)

// Salts separate the independent coin streams used by the different
// constructions so that, e.g., hierarchy levels and density-net membership
// are independent even under a shared master seed.
const (
	SaltLevels uint64 = 0xA11CE // Thorup–Zwick hierarchy coins (§3.1)
	SaltNet    uint64 = 0xBEE5  // ε-density net membership coins (Lemma 4.2)
	SaltNetTZ  uint64 = 0xCAB1E // hierarchy coins on the net (Lemma 4.5)
)

// NodeRNG returns the private random stream of a node for one construction
// (identified by salt). Both the distributed nodes and the centralized
// reference samplers derive coins from this same function, which is what
// makes the distributed-vs-centralized equivalence check (E12) exact.
func NodeRNG(seed, salt uint64, id int) *rand.Rand {
	return rand.New(rand.NewPCG(seed^salt, uint64(id)*0x9e3779b97f4a7c15+salt+1))
}

// TopLevelFromRNG draws a node's top level: the node is in A_0 always and
// survives from A_i to A_{i+1} with probability p, for at most k-1
// promotions (A_k = ∅ by definition).
func TopLevelFromRNG(r *rand.Rand, k int, p float64) int {
	level := 0
	for level < k-1 && r.Float64() < p {
		level++
	}
	return level
}

// TopLevel returns node id's top level for the standard TZ hierarchy with
// per-level survival probability p. Deterministic in (seed, id, k, p up to
// the coin comparisons).
func TopLevel(seed uint64, id, k int, p float64) int {
	return TopLevelFromRNG(NodeRNG(seed, SaltLevels, id), k, p)
}

// SampleLevels draws top levels for all n nodes. levels[u] ∈ [0, k-1].
func SampleLevels(n, k int, p float64, seed uint64) []int {
	levels := make([]int, n)
	for u := 0; u < n; u++ {
		levels[u] = TopLevel(seed, u, k, p)
	}
	return levels
}

// HierarchyProb returns the per-level survival probability n^{-1/k} used
// by the standard construction (§3.1).
func HierarchyProb(n, k int) float64 {
	if k <= 1 {
		return 0
	}
	return math.Pow(float64(n), -1.0/float64(k))
}

// NetHierarchyProb returns the per-level survival probability
// ((10/ε)·ln n)^{-1/k} used when running Thorup–Zwick over an ε-density
// net (Lemma 4.5 replaces n^{-1/k} with this, because the ground set is
// the net of expected size ≤ (10/ε)·ln n).
func NetHierarchyProb(n int, eps float64, k int) float64 {
	if k <= 1 {
		return 0
	}
	size := 10 / eps * math.Log(float64(n))
	if size < 2 {
		size = 2
	}
	return math.Pow(size, -1.0/float64(k))
}

// NetProb returns the density-net sampling probability min(1, 5·ln(n)/(εn))
// from Lemma 4.2.
func NetProb(n int, eps float64) float64 {
	p := 5 * math.Log(float64(n)) / (eps * float64(n))
	if p > 1 {
		p = 1
	}
	return p
}

// InDensityNet reports whether node id joins the ε-density net (Lemma 4.2:
// independent coin with probability NetProb). salt distinguishes multiple
// nets built from the same master seed (the gracefully degrading sketch
// builds one net per ε).
func InDensityNet(seed, salt uint64, id, n int, eps float64) bool {
	return NodeRNG(seed, salt, id).Float64() < NetProb(n, eps)
}

// DensityNet returns the sorted member list of the ε-density net.
func DensityNet(n int, eps float64, seed, salt uint64) []int {
	var net []int
	for u := 0; u < n; u++ {
		if InDensityNet(seed, salt, u, n, eps) {
			net = append(net, u)
		}
	}
	return net
}

// Pivot is p_i(u) together with d(u, p_i(u)) = d(u, A_i). A level whose
// A_i is empty (possible for aggressive sampling) has Node = -1, Dist = Inf.
type Pivot struct {
	Node int
	Dist graph.Dist
}

// BunchItem is one bunch member: the member's node ID, its distance from
// the label owner, and its top level in the hierarchy.
type BunchItem struct {
	Node  int
	Dist  graph.Dist
	Level int
}

// TZLabel is the Thorup–Zwick label L(u) of §3.1: the pivots p_0..p_{k-1}
// with their distances, and the bunch B(u) with distances.
//
// Bunch items are kept sorted by ascending node ID with unique keys —
// the same representation invariant LandmarkLabel.Entries carries. The
// sorted order is what makes DistTo a branch-predictable binary search
// (the probe QueryTZ issues per level). Every producer — the builders,
// the wire decoder, and the label-shipping pipeline — maintains the
// invariant; Validate checks it.
type TZLabel struct {
	Owner  int
	K      int
	Pivots []Pivot     // length K; Pivots[0] = {Owner, 0} when A_0 = V
	Bunch  []BunchItem // sorted ascending by Node, unique keys

	// probe is a derived open-addressing index over Bunch (slot → node,
	// bunch index), built once by the wire decoder so that decode-once
	// serving answers DistTo in one or two contiguous loads instead of a
	// binary search's dependent cache misses. It is pure acceleration
	// state: nil is always valid (DistTo falls back to the sorted-slice
	// search), Set and Canonicalize drop it, and it never travels on the
	// wire. len(probe) is a power of two ≥ 2·len(Bunch).
	probe []probeSlot
}

// probeSlot is one open-addressing slot: the bunch member's node ID and
// its index in the sorted Bunch slice. Node -1 marks an empty slot. The
// compact 8-byte slot keeps a whole table on a few cache lines — the
// table working set, not the per-probe instruction count, is what bounds
// the query throughput of large decoded sets.
type probeSlot struct {
	Node int32
	Idx  int32
}

// buildProbe constructs the DistTo acceleration index. Labels whose node
// IDs do not fit the compact slot layout (negative or ≥ 2³¹, possible
// only in adversarial wire input) keep probe nil and use the fallback.
// An empty bunch gets a minimal all-empty table, so indexed labels
// answer every probe from the table alone.
func (l *TZLabel) buildProbe() {
	l.probe = nil
	size := 4
	for size < 2*len(l.Bunch) {
		size *= 2
	}
	for _, it := range l.Bunch {
		if it.Node < 0 || it.Node > math.MaxInt32 {
			return
		}
	}
	t := make([]probeSlot, size)
	for i := range t {
		t[i].Node = -1
	}
	mask := uint32(size - 1)
	for i, it := range l.Bunch {
		s := (uint32(it.Node) * 0x9E3779B1) & mask
		for t[s].Node != -1 {
			s = (s + 1) & mask
		}
		t[s] = probeSlot{Node: int32(it.Node), Idx: int32(i)}
	}
	l.probe = t
}

// NewTZLabel allocates an empty label for owner with k levels.
func NewTZLabel(owner, k int) *TZLabel {
	l := &TZLabel{Owner: owner, K: k, Pivots: make([]Pivot, k)}
	for i := range l.Pivots {
		l.Pivots[i] = Pivot{Node: -1, Dist: graph.Inf}
	}
	return l
}

// Len returns the number of bunch members stored in the label.
func (l *TZLabel) Len() int { return len(l.Bunch) }

// SizeWords returns the label size in O(log n)-bit words: two words per
// pivot (ID, distance) and three per bunch entry (ID, distance, level).
// This is the quantity bounded by Lemma 3.1 / Theorem 3.8.
func (l *TZLabel) SizeWords() int {
	return 2*len(l.Pivots) + 3*len(l.Bunch)
}

// Get returns the bunch item for node w, or (zero, false), by binary
// search over the sorted bunch.
//
//sketchlint:hotpath
func (l *TZLabel) Get(w int) (BunchItem, bool) {
	lo, hi := 0, len(l.Bunch)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if l.Bunch[mid].Node < w {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(l.Bunch) && l.Bunch[lo].Node == w {
		return l.Bunch[lo], true
	}
	return BunchItem{}, false
}

// Set inserts or replaces the bunch item for node w, preserving the
// sorted order. Appending in ascending ID order — the natural order for
// the builders and the shipping pipeline, which emit sorted labels — is
// O(1) amortized.
func (l *TZLabel) Set(w int, d graph.Dist, level int) {
	l.probe = nil // derived index goes stale on any mutation
	if n := len(l.Bunch); n == 0 || w > l.Bunch[n-1].Node {
		l.Bunch = append(l.Bunch, BunchItem{Node: w, Dist: d, Level: level})
		return
	}
	i := sort.Search(len(l.Bunch), func(i int) bool { return l.Bunch[i].Node >= w })
	if i < len(l.Bunch) && l.Bunch[i].Node == w {
		l.Bunch[i] = BunchItem{Node: w, Dist: d, Level: level}
		return
	}
	l.Bunch = append(l.Bunch, BunchItem{})
	copy(l.Bunch[i+1:], l.Bunch[i:])
	l.Bunch[i] = BunchItem{Node: w, Dist: d, Level: level}
}

// SetBunch replaces the whole bunch with items, canonicalizing them
// (sort by ascending node ID, duplicate IDs collapse to the smallest
// distance) and dropping the derived probe index. It is the blessed
// bulk producer: builders accumulate items in scratch storage in
// whatever order the phases emit them and install the canonical bunch
// in one call, instead of paying a sorted insert per item or mutating
// Bunch in place across functions. The items slice is reused as the
// label's storage; the caller must not touch it afterwards.
func (l *TZLabel) SetBunch(items []BunchItem) {
	l.probe = nil
	l.Bunch = CanonicalizeBunch(items)
}

// distToLinearCut is the bunch size below which DistTo scans linearly:
// a short forward scan over contiguous items pipelines better than a
// binary search's serialized dependent loads.
const distToLinearCut = 24

// DistTo returns the bunch distance to node w, or (Inf, false). This is
// the probe on QueryTZ's hot path: decoded labels answer from the
// open-addressing index in one or two contiguous loads; labels without
// the index (under construction, or adversarial node IDs) scan the
// sorted bunch — linearly while small, by binary search beyond
// distToLinearCut. The fast path is kept small enough to inline.
//
//sketchlint:hotpath
func (l *TZLabel) DistTo(w int) (graph.Dist, bool) {
	if w == l.Owner {
		return 0, true
	}
	if t := l.probe; t != nil {
		if uint(w) > math.MaxInt32 {
			return graph.Inf, false // indexed labels hold only int32-range IDs
		}
		mask := uint32(len(t) - 1)
		for s := (uint32(w) * 0x9E3779B1) & mask; ; s = (s + 1) & mask {
			n := t[s].Node
			if n == int32(w) {
				return l.Bunch[t[s].Idx].Dist, true
			}
			if n == -1 {
				return graph.Inf, false
			}
		}
	}
	return l.distToScan(w)
}

// distToScan is DistTo's path over the canonical sorted slice, for
// labels without the probe index (builders mid-construction, adversarial
// node IDs).
//
//sketchlint:hotpath
func (l *TZLabel) distToScan(w int) (graph.Dist, bool) {
	b := l.Bunch
	if len(b) <= distToLinearCut {
		for i := range b {
			if b[i].Node >= w {
				if b[i].Node == w {
					return b[i].Dist, true
				}
				break
			}
		}
		return graph.Inf, false
	}
	lo, hi := 0, len(b)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if b[mid].Node < w {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(b) && b[lo].Node == w {
		return b[lo].Dist, true
	}
	return graph.Inf, false
}

// Canonicalize restores the representation invariant after items were
// appended out of order: the bunch is sorted by node ID and duplicate IDs
// collapse to the smallest distance. Builders that harvest phase results
// in arbitrary order append freely and canonicalize once, rather than
// paying a sorted insert per item.
func (l *TZLabel) Canonicalize() {
	l.probe = nil // derived index goes stale on any mutation
	l.Bunch = CanonicalizeBunch(l.Bunch)
}

// CanonicalizeBunch sorts items by node ID and collapses duplicate IDs to
// the smallest distance (keeping that item's level), returning the
// canonical slice (reusing the input's storage).
func CanonicalizeBunch(items []BunchItem) []BunchItem {
	sort.Slice(items, func(i, j int) bool { return items[i].Node < items[j].Node })
	out := items[:0]
	for _, it := range items {
		if n := len(out); n > 0 && out[n-1].Node == it.Node {
			if it.Dist < out[n-1].Dist {
				out[n-1].Dist = it.Dist
				out[n-1].Level = it.Level
			}
			continue
		}
		out = append(out, it)
	}
	return out
}

// Validate checks structural invariants of a label (used by tests),
// including the sorted-unique bunch representation invariant.
func (l *TZLabel) Validate() error {
	if len(l.Pivots) != l.K {
		return fmt.Errorf("sketch: %d pivots for k=%d", len(l.Pivots), l.K)
	}
	prev := graph.Dist(0)
	for i, p := range l.Pivots {
		if (p.Node < 0) != (p.Dist == graph.Inf) {
			return fmt.Errorf("sketch: pivot %d inconsistent: %+v", i, p)
		}
		if p.Dist < prev {
			return fmt.Errorf("sketch: pivot distances not monotone at level %d", i)
		}
		prev = p.Dist
	}
	for i, it := range l.Bunch {
		if i > 0 && it.Node <= l.Bunch[i-1].Node {
			return fmt.Errorf("sketch: bunch not strictly ascending at index %d (%d after %d)",
				i, it.Node, l.Bunch[i-1].Node)
		}
		if it.Level < 0 || it.Level >= l.K {
			return fmt.Errorf("sketch: bunch node %d has level %d outside [0,%d)", it.Node, it.Level, l.K)
		}
		if it.Dist < 0 || it.Dist == graph.Inf {
			return fmt.Errorf("sketch: bunch node %d has bad distance %d", it.Node, it.Dist)
		}
		// Bunch membership requires d(u,w) < d(u, A_{level+1}).
		if it.Level+1 < l.K && it.Dist >= l.Pivots[it.Level+1].Dist {
			return fmt.Errorf("sketch: bunch node %d at dist %d not < d(u,A_%d)=%d",
				it.Node, it.Dist, it.Level+1, l.Pivots[it.Level+1].Dist)
		}
	}
	return nil
}

// QueryTZ implements the distance estimation of Lemma 3.2: walk the levels
// upward and return the first pivot-through estimate whose pivot lies in
// the other label's bunch. The returned estimate d' satisfies
// d(u,v) ≤ d' ≤ (2k-1)·d(u,v).
//
// Membership is checked against the whole bunch B(v) rather than the
// per-level B_i(v); this is the original Thorup–Zwick formulation, is
// never worse, and keeps the same stretch proof (non-membership in B(v)
// implies non-membership in B_i(v), which is all the induction uses).
//
//sketchlint:hotpath
func QueryTZ(a, b *TZLabel) graph.Dist {
	return queryTZBounded(a, b, graph.Inf)
}

// queryTZBounded is QueryTZ's level walk with a sound early exit for
// callers that only consume estimates below bound (QueryGraceful's
// running minimum): any hit at or above level i returns p.Dist + d ≥
// p.Dist, and pivot distances are monotone nondecreasing in the level
// (a construction invariant, checked by Validate), so once BOTH sides'
// level-i pivot distances reach bound every possible future first hit
// is ≥ bound and the walk returns Inf — which such a caller treats
// exactly as it would have treated the real (discarded) estimate. The
// exit is taken only for finite bounds: with bound = Inf this is plain
// QueryTZ, byte-for-byte — even on adversarial wire-legal labels whose
// pivot distances are NOT monotone (the decoder does not enforce the
// invariant), an Inf-distance pivot level never cuts the walk short of
// a later finite hit.
//
//sketchlint:hotpath
func queryTZBounded(a, b *TZLabel, bound graph.Dist) graph.Dist {
	if a.Owner == b.Owner {
		return 0
	}
	ta, tb := a.probe, b.probe
	if ta == nil || tb == nil {
		return queryTZScan(a, b, bound)
	}
	k := a.K
	if b.K < k {
		k = b.K
	}
	// The walk open-codes the probe-table lookup of DistTo: the level
	// loop plus probe is the whole serving hot path of the TZ, CDG and
	// graceful kinds, and the call overhead of a non-inlinable DistTo is
	// measurable at this grain. A pivot node above the int32 range cannot
	// be in an indexed bunch, so it is a definite miss.
	//
	// The pivot chain reuses the same node across consecutive levels
	// (p_i(u) only changes when level i contributes a better candidate),
	// so the walk skips a pivot equal to the side's previous probe: a
	// repeated node carries the same pivot distance and the same
	// membership answer, so results are unchanged.
	maskA, maskB := uint32(len(ta)-1), uint32(len(tb)-1)
	lastA, lastB := -1, -1
	for i := 0; i < k; i++ {
		pa, pb := a.Pivots[i], b.Pivots[i]
		if bound != graph.Inf && pa.Dist >= bound && pb.Dist >= bound {
			return graph.Inf
		}
		if w := pa.Node; w >= 0 && w != lastA {
			lastA = w
			if w == b.Owner {
				return graph.AddDist(pa.Dist, 0)
			}
			if uint(w) <= math.MaxInt32 {
				for s := (uint32(w) * 0x9E3779B1) & maskB; ; s = (s + 1) & maskB {
					n := tb[s].Node
					if n == int32(w) {
						return graph.AddDist(pa.Dist, b.Bunch[tb[s].Idx].Dist)
					}
					if n == -1 {
						break
					}
				}
			}
		}
		if w := pb.Node; w >= 0 && w != lastB {
			lastB = w
			if w == a.Owner {
				return graph.AddDist(pb.Dist, 0)
			}
			if uint(w) <= math.MaxInt32 {
				for s := (uint32(w) * 0x9E3779B1) & maskA; ; s = (s + 1) & maskA {
					n := ta[s].Node
					if n == int32(w) {
						return graph.AddDist(pb.Dist, a.Bunch[ta[s].Idx].Dist)
					}
					if n == -1 {
						break
					}
				}
			}
		}
	}
	return graph.Inf
}

// queryTZScan is the queryTZBounded walk for label pairs where at least
// one side lacks the probe index (labels still under construction, or
// adversarial node IDs): identical level walk, probes via DistTo.
//
//sketchlint:hotpath
func queryTZScan(a, b *TZLabel, bound graph.Dist) graph.Dist {
	k := a.K
	if b.K < k {
		k = b.K
	}
	lastA, lastB := -1, -1
	for i := 0; i < k; i++ {
		pa, pb := a.Pivots[i], b.Pivots[i]
		if bound != graph.Inf && pa.Dist >= bound && pb.Dist >= bound {
			return graph.Inf
		}
		if pa.Node >= 0 && pa.Node != lastA {
			lastA = pa.Node
			if d, ok := b.DistTo(pa.Node); ok {
				return graph.AddDist(pa.Dist, d)
			}
		}
		if pb.Node >= 0 && pb.Node != lastB {
			lastB = pb.Node
			if d, ok := a.DistTo(pb.Node); ok {
				return graph.AddDist(pb.Dist, d)
			}
		}
	}
	return graph.Inf
}
