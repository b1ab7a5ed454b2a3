package sketch

import (
	"bytes"
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"distsketch/internal/graph"
)

func TestNodeRNGIndependentStreams(t *testing.T) {
	a := NodeRNG(1, SaltLevels, 5).Float64()
	b := NodeRNG(1, SaltNet, 5).Float64()
	c := NodeRNG(1, SaltLevels, 5).Float64()
	if a != c {
		t.Error("same (seed,salt,id) must reproduce")
	}
	if a == b {
		t.Error("different salts should give different streams")
	}
	d := NodeRNG(2, SaltLevels, 5).Float64()
	if a == d {
		t.Error("different seeds should give different streams")
	}
}

func TestTopLevelBounds(t *testing.T) {
	for k := 1; k <= 6; k++ {
		for id := 0; id < 50; id++ {
			l := TopLevel(3, id, k, 0.5)
			if l < 0 || l > k-1 {
				t.Fatalf("k=%d id=%d: level %d out of range", k, id, l)
			}
		}
	}
	// p=0: never promoted. p=1: always to the top.
	for id := 0; id < 10; id++ {
		if l := TopLevel(3, id, 4, 0); l != 0 {
			t.Errorf("p=0 gave level %d", l)
		}
		if l := TopLevel(3, id, 4, 1); l != 3 {
			t.Errorf("p=1 gave level %d", l)
		}
	}
}

func TestSampleLevelsDistribution(t *testing.T) {
	n, k := 4096, 4
	p := HierarchyProb(n, k) // 4096^{-1/4} = 1/8
	if math.Abs(p-0.125) > 1e-12 {
		t.Fatalf("HierarchyProb = %g, want 0.125", p)
	}
	levels := SampleLevels(n, k, p, 7)
	counts := make([]int, k)
	for _, l := range levels {
		counts[l]++
	}
	// E[level >= 1] = n*p = 512; allow generous slack.
	atLeast1 := n - counts[0]
	if atLeast1 < 512/2 || atLeast1 > 512*2 {
		t.Errorf("|A_1| = %d, expected about 512", atLeast1)
	}
}

func TestHierarchyProbK1(t *testing.T) {
	if HierarchyProb(100, 1) != 0 {
		t.Error("k=1 must never promote")
	}
}

func TestNetProb(t *testing.T) {
	n := 100
	if p := NetProb(n, 1e-9); p != 1 {
		t.Errorf("tiny eps must give p=1, got %g", p)
	}
	p := NetProb(n, 0.25)
	want := 5 * math.Log(100.0) / (0.25 * 100)
	if math.Abs(p-want) > 1e-12 {
		t.Errorf("NetProb = %g, want %g", p, want)
	}
}

func TestNetHierarchyProb(t *testing.T) {
	if NetHierarchyProb(100, 0.25, 1) != 0 {
		t.Error("k=1 must never promote")
	}
	p := NetHierarchyProb(100, 0.25, 2)
	want := math.Pow(10/0.25*math.Log(100), -0.5)
	if math.Abs(p-want) > 1e-12 {
		t.Errorf("NetHierarchyProb = %g, want %g", p, want)
	}
}

func TestDensityNetDeterministic(t *testing.T) {
	a := DensityNet(200, 0.25, 9, SaltNet)
	b := DensityNet(200, 0.25, 9, SaltNet)
	if len(a) != len(b) {
		t.Fatal("net not deterministic")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("net not deterministic")
		}
	}
	if len(a) == 0 {
		t.Error("net unexpectedly empty")
	}
}

// buildTestLabels constructs labels for a 4-node path 0-1-2-3 (unit
// weights) with k=2, A_1={2}: bunches computed by hand.
//
//	d(·,A_1): [2,1,0,1]
//	B_0(0) = {1} (d=1<2); B_0(1) = {0}? d(1,0)=1 >= d(1,A_1)=1 → no; B_0(1)=∅
//	B_0(2) = ∅ (d(2,A_1)=0); B_0(3) = ∅ (d(3,2)... level-0 nodes: 0,1,3.
//	  d(3,1)=2 >= 1 no; so B_0(3)=∅.
//	B_1(u) = {2} for all u (A_2=∅ so threshold ∞).
func buildTestLabels(t *testing.T) []*TZLabel {
	t.Helper()
	labels := make([]*TZLabel, 4)
	dA1 := []graph.Dist{2, 1, 0, 1}
	d2 := []graph.Dist{2, 1, 0, 1}
	for u := 0; u < 4; u++ {
		l := NewTZLabel(u, 2)
		l.Pivots[0] = Pivot{Node: u, Dist: 0}
		l.Pivots[1] = Pivot{Node: 2, Dist: dA1[u]}
		if u != 2 {
			l.Set(2, d2[u], 1)
		}
		labels[u] = l
	}
	labels[0].Set(1, 1, 0)
	return labels
}

func TestQueryTZHandComputed(t *testing.T) {
	labels := buildTestLabels(t)
	for _, l := range labels {
		if err := l.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		u, v int
		want graph.Dist
	}{
		{0, 0, 0},
		{0, 1, 1}, // p_0(1)=1 ∈ B(0) → 0 + 1
		{1, 0, 1}, // symmetric
		{0, 3, 3}, // via pivot 2: d(0,2)+d(2,3) = 2+1
		{1, 3, 2}, // via 2: 1+1
		{2, 3, 1}, // p_0(2)=2 ∈ B(3) → 0+1
		{0, 2, 2},
	}
	for _, c := range cases {
		if got := QueryTZ(labels[c.u], labels[c.v]); got != c.want {
			t.Errorf("QueryTZ(%d,%d) = %d, want %d", c.u, c.v, got, c.want)
		}
	}
}

// TestQueryTZNonMonotonePivots pins QueryTZ's behavior on wire-legal
// adversarial labels whose pivot distances are NOT monotone (the
// decoder does not enforce the construction invariant): an Inf-distance
// level must not cut the walk short of a later finite hit — the
// bounded walk's early exit is reserved for finite bounds, where the
// caller discards anything at or above the bound regardless.
func TestQueryTZNonMonotonePivots(t *testing.T) {
	mk := func(owner int) *TZLabel {
		l := NewTZLabel(owner, 2)
		l.Pivots[0] = Pivot{Node: -1, Dist: graph.Inf} // empty level 0
		l.Pivots[1] = Pivot{Node: 5, Dist: 3}
		l.Set(5, 3, 1)
		return l
	}
	// Round-trip through the wire format: these bytes are accepted input.
	a, err := UnmarshalTZ(MarshalTZ(mk(0)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := UnmarshalTZ(MarshalTZ(mk(1)))
	if err != nil {
		t.Fatal(err)
	}
	if d := QueryTZ(a, b); d != 6 {
		t.Errorf("QueryTZ = %d, want 6 (level-1 hit through node 5)", d)
	}
}

func TestQueryTZSymmetric(t *testing.T) {
	labels := buildTestLabels(t)
	for u := 0; u < 4; u++ {
		for v := 0; v < 4; v++ {
			if QueryTZ(labels[u], labels[v]) != QueryTZ(labels[v], labels[u]) {
				t.Errorf("asymmetric query (%d,%d)", u, v)
			}
		}
	}
}

func TestLabelValidateCatchesCorruption(t *testing.T) {
	labels := buildTestLabels(t)
	l := labels[0]
	l.Set(2, 5, 9)
	if err := l.Validate(); err == nil {
		t.Error("bad level not caught")
	}
	l.Set(2, graph.Inf, 1)
	if err := l.Validate(); err == nil {
		t.Error("Inf bunch distance not caught")
	}
	l.Bunch = l.Bunch[:1] // drop node 2, keep node 1
	l.Set(1, 3, 0)        // 3 >= d(0,A_1)=2
	if err := l.Validate(); err == nil {
		t.Error("bunch threshold violation not caught")
	}
	l.Bunch = []BunchItem{{Node: 5, Dist: 1, Level: 1}, {Node: 3, Dist: 1, Level: 1}}
	if err := l.Validate(); err == nil {
		t.Error("unsorted bunch not caught")
	}
	l.Bunch = []BunchItem{{Node: 3, Dist: 1, Level: 1}, {Node: 3, Dist: 1, Level: 1}}
	if err := l.Validate(); err == nil {
		t.Error("duplicate bunch node not caught")
	}
}

func TestSizeWords(t *testing.T) {
	labels := buildTestLabels(t)
	// Node 0: 2 pivots (4 words) + 2 bunch entries (6 words).
	if s := labels[0].SizeWords(); s != 10 {
		t.Errorf("size = %d, want 10", s)
	}
	lm := NewLandmarkLabel(0)
	lm.Set(3, 5)
	lm.Set(7, 9)
	if s := lm.SizeWords(); s != 4 {
		t.Errorf("landmark size = %d, want 4", s)
	}
}

func TestQueryLandmark(t *testing.T) {
	a := NewLandmarkLabel(0)
	b := NewLandmarkLabel(1)
	a.Set(10, 3)
	a.Set(11, 1)
	b.Set(10, 2)
	b.Set(11, 7)
	if got := QueryLandmark(a, b); got != 5 {
		t.Errorf("QueryLandmark = %d, want 5 (via node 10)", got)
	}
	if got := QueryLandmark(a, a); got != 0 {
		t.Errorf("self query = %d", got)
	}
	c := NewLandmarkLabel(2) // no shared landmarks
	c.Set(99, 1)
	if got := QueryLandmark(a, c); got != graph.Inf {
		t.Errorf("no common landmark should give Inf, got %d", got)
	}
}

// queryLandmarkMap is the seed's map-probe intersection, kept as the
// reference the merge-intersection must match observationally.
func queryLandmarkMap(a, b *LandmarkLabel) graph.Dist {
	if a.Owner == b.Owner {
		return 0
	}
	am := make(map[int]graph.Dist, a.Len())
	for _, e := range a.Entries {
		am[e.Net] = e.D
	}
	best := graph.Inf
	for _, e := range b.Entries {
		if da, ok := am[e.Net]; ok {
			if est := graph.AddDist(da, e.D); est < best {
				best = est
			}
		}
	}
	return best
}

// TestQueryLandmarkMatchesMapReference drives the two-pointer merge
// against the seed's map-based query on randomized label pairs with
// partial overlap, including Inf entries and empty labels.
func TestQueryLandmarkMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	for trial := 0; trial < 200; trial++ {
		mk := func(owner int) *LandmarkLabel {
			l := NewLandmarkLabel(owner)
			n := int(rng.Uint64() % 20)
			for i := 0; i < n; i++ {
				w := int(rng.Uint64() % 30)
				d := graph.Dist(rng.Uint64() % 100)
				if rng.Uint64()%10 == 0 {
					d = graph.Inf
				}
				l.Set(w, d)
			}
			return l
		}
		a, b := mk(1), mk(2)
		if got, want := QueryLandmark(a, b), queryLandmarkMap(a, b); got != want {
			t.Fatalf("trial %d: merge %d != map %d (a=%+v b=%+v)", trial, got, want, a.Entries, b.Entries)
		}
	}
}

// TestLandmarkSetGet covers the sorted-insert paths: ascending append,
// out-of-order insert, and overwrite.
func TestLandmarkSetGet(t *testing.T) {
	l := NewLandmarkLabel(0)
	l.Set(5, 50)
	l.Set(9, 90) // append fast path
	l.Set(1, 10) // insert at front
	l.Set(7, 70) // insert in middle
	l.Set(5, 55) // overwrite
	want := []Entry{{1, 10}, {5, 55}, {7, 70}, {9, 90}}
	if len(l.Entries) != len(want) {
		t.Fatalf("entries = %+v, want %+v", l.Entries, want)
	}
	for i := range want {
		if l.Entries[i] != want[i] {
			t.Fatalf("entries = %+v, want %+v", l.Entries, want)
		}
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	if d, ok := l.Get(7); !ok || d != 70 {
		t.Errorf("Get(7) = %d,%v", d, ok)
	}
	if _, ok := l.Get(2); ok {
		t.Error("Get(2) found a missing entry")
	}
	if ids := l.NetNodes(); len(ids) != 4 || ids[0] != 1 || ids[3] != 9 {
		t.Errorf("NetNodes = %v", ids)
	}
}

func TestLandmarkValidate(t *testing.T) {
	l := &LandmarkLabel{Owner: 0, Entries: []Entry{{3, 1}, {3, 2}}}
	if err := l.Validate(); err == nil {
		t.Error("duplicate net id not caught")
	}
	l.Entries = []Entry{{5, 1}, {3, 2}}
	if err := l.Validate(); err == nil {
		t.Error("unsorted entries not caught")
	}
	l.Entries = []Entry{{3, -4}}
	if err := l.Validate(); err == nil {
		t.Error("negative distance not caught")
	}
}

func TestQueryCDGSameNet(t *testing.T) {
	a := &CDGLabel{Owner: 0, NetNode: 5, NetDist: 3}
	b := &CDGLabel{Owner: 1, NetNode: 5, NetDist: 4}
	if got := QueryCDG(a, b); got != 7 {
		t.Errorf("same-net query = %d, want 7", got)
	}
}

func TestQueryGracefulTakesMin(t *testing.T) {
	mk := func(owner int, dists ...graph.Dist) *GracefulLabel {
		g := &GracefulLabel{Owner: owner}
		for i, d := range dists {
			g.Levels = append(g.Levels, &CDGLabel{Owner: owner, NetNode: 100 + i, NetDist: d})
		}
		return g
	}
	a := mk(0, 10, 3, 8)
	b := mk(1, 5, 4, 1)
	// Per-level estimates: 15, 7, 9 → min 7.
	if got := QueryGraceful(a, b); got != 7 {
		t.Errorf("graceful = %d, want 7", got)
	}
	if got := QueryGraceful(a, a); got != 0 {
		t.Errorf("self = %d", got)
	}
}

func TestGracefulLevels(t *testing.T) {
	cases := map[int]int{2: 1, 3: 2, 4: 2, 5: 3, 1024: 10, 1000: 10}
	for n, want := range cases {
		if got := GracefulLevels(n); got != want {
			t.Errorf("GracefulLevels(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestMarshalTZRoundTrip(t *testing.T) {
	for _, l := range buildTestLabels(t) {
		data := MarshalTZ(l)
		got, err := UnmarshalTZ(data)
		if err != nil {
			t.Fatal(err)
		}
		if got.Owner != l.Owner || got.K != l.K {
			t.Fatalf("header mismatch: %+v vs %+v", got, l)
		}
		for i := range l.Pivots {
			if got.Pivots[i] != l.Pivots[i] {
				t.Fatalf("pivot %d mismatch", i)
			}
		}
		if len(got.Bunch) != len(l.Bunch) {
			t.Fatalf("bunch size mismatch")
		}
		for i, it := range l.Bunch {
			if got.Bunch[i] != it {
				t.Fatalf("bunch[%d] mismatch", i)
			}
		}
	}
}

func TestMarshalRejectsGarbage(t *testing.T) {
	if _, err := UnmarshalTZ([]byte{}); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := UnmarshalTZ([]byte{99, 1, 2, 3}); err == nil {
		t.Error("bad tag accepted")
	}
	good := MarshalTZ(buildTestLabels(t)[0])
	if _, err := UnmarshalTZ(good[:len(good)-1]); err == nil {
		t.Error("truncated input accepted")
	}
	if _, err := UnmarshalTZ(append(good, 0)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestMarshalLandmarkRoundTrip(t *testing.T) {
	l := NewLandmarkLabel(42)
	l.Set(3, 17)
	l.Set(900, 2)
	blob := MarshalLandmark(l)
	got, err := UnmarshalLandmark(blob)
	if err != nil {
		t.Fatal(err)
	}
	d3, ok3 := got.Get(3)
	d900, ok900 := got.Get(900)
	if got.Owner != 42 || got.Len() != 2 || !ok3 || d3 != 17 || !ok900 || d900 != 2 {
		t.Errorf("round trip mismatch: %+v", got)
	}
	if !bytes.Equal(MarshalLandmark(got), blob) {
		t.Error("re-marshal not byte-identical")
	}
}

// TestMarshalLandmarkGoldenBytes pins the landmark wire format to the
// seed encoder's exact output (tag, varint owner, varint count, then
// ascending (id, dist) varint pairs), so the sorted-slice representation
// provably did not change the bytes on the wire — existing persisted
// envelopes keep decoding, and the envelope version did not need a bump.
func TestMarshalLandmarkGoldenBytes(t *testing.T) {
	l := NewLandmarkLabel(42)
	l.Set(3, 17)
	l.Set(900, 2)
	l.Set(5, graph.Inf)
	want := []byte{
		TagLandmark,
		84,    // varint 42
		6,     // entry count 3
		6, 34, // id 3, dist 17
		10, 1, // id 5, dist Inf (varint -1)
		136, 14, 4, // id 900 (two-byte varint), dist 2
	}
	if got := MarshalLandmark(l); !bytes.Equal(got, want) {
		t.Errorf("wire bytes %v, want %v", got, want)
	}
}

// TestUnmarshalLandmarkCanonicalizes feeds the decoder wire bytes with
// out-of-order and duplicated net ids — legal varint streams our encoder
// never emits — and checks it canonicalizes (sorted, unique, smallest
// duplicate distance wins) rather than producing a label whose merge
// queries would silently miss intersections.
func TestUnmarshalLandmarkCanonicalizes(t *testing.T) {
	// Hand-assembled: owner 1, three entries (9,4), (3,6), (9,2).
	raw := []byte{
		TagLandmark,
		2,     // owner 1
		6,     // count 3
		18, 8, // id 9, dist 4
		6, 12, // id 3, dist 6
		18, 4, // id 9, dist 2
	}
	got, err := UnmarshalLandmark(raw)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("decoded label not canonical: %v", err)
	}
	want := []Entry{{3, 6}, {9, 2}}
	if got.Len() != len(want) || got.Entries[0] != want[0] || got.Entries[1] != want[1] {
		t.Fatalf("entries = %+v, want %+v", got.Entries, want)
	}
	// The canonicalized label intersects correctly where the raw entry
	// order would have confused a naive merge.
	other := NewLandmarkLabel(2)
	other.Set(9, 1)
	if d := QueryLandmark(got, other); d != 3 {
		t.Errorf("query after canonicalization = %d, want 3", d)
	}
}

func TestMarshalCDGRoundTrip(t *testing.T) {
	inner := buildTestLabels(t)[1]
	l := &CDGLabel{Owner: 7, Eps: 0.125, NetNode: 2, NetDist: 11, NetLabel: inner}
	got, err := UnmarshalCDG(MarshalCDG(l))
	if err != nil {
		t.Fatal(err)
	}
	if got.Owner != 7 || got.Eps != 0.125 || got.NetNode != 2 || got.NetDist != 11 {
		t.Errorf("header mismatch: %+v", got)
	}
	if got.NetLabel == nil || got.NetLabel.Owner != inner.Owner {
		t.Error("nested label mismatch")
	}
	// Nil nested label also round-trips.
	l2 := &CDGLabel{Owner: 1, Eps: 0.5, NetNode: 3, NetDist: graph.Inf}
	got2, err := UnmarshalCDG(MarshalCDG(l2))
	if err != nil {
		t.Fatal(err)
	}
	if got2.NetLabel != nil || got2.NetDist != graph.Inf {
		t.Errorf("nil-label round trip mismatch: %+v", got2)
	}
}

func TestMarshalGracefulRoundTrip(t *testing.T) {
	l := &GracefulLabel{Owner: 3}
	l.Levels = append(l.Levels,
		&CDGLabel{Owner: 3, Eps: 0.5, NetNode: 1, NetDist: 2, NetLabel: buildTestLabels(t)[0]},
		&CDGLabel{Owner: 3, Eps: 0.25, NetNode: 2, NetDist: 0},
	)
	got, err := UnmarshalGraceful(MarshalGraceful(l))
	if err != nil {
		t.Fatal(err)
	}
	if got.Owner != 3 || len(got.Levels) != 2 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if got.Levels[0].NetLabel == nil || got.Levels[1].NetLabel != nil {
		t.Error("nested labels mismatched")
	}
	if err := got.Validate(); err != nil {
		t.Error(err)
	}
}

// Property: serialization round-trips arbitrary well-formed labels.
func TestMarshalTZProperty(t *testing.T) {
	f := func(owner uint8, k uint8, entries []uint16) bool {
		kk := int(k%5) + 1
		l := NewTZLabel(int(owner), kk)
		for i := 0; i < kk; i++ {
			l.Pivots[i] = Pivot{Node: int(owner) + i, Dist: graph.Dist(i * 10)}
		}
		for i, e := range entries {
			if i >= 20 {
				break
			}
			l.Set(int(e), graph.Dist(e), i%kk)
		}
		got, err := UnmarshalTZ(MarshalTZ(l))
		if err != nil {
			return false
		}
		if got.Owner != l.Owner || len(got.Bunch) != len(l.Bunch) {
			return false
		}
		for i, it := range l.Bunch {
			if got.Bunch[i] != it {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSetBunchCanonicalizes(t *testing.T) {
	l := NewTZLabel(7, 2)
	l.Set(3, 30, 0)
	l.buildProbe()
	if d, ok := l.DistTo(3); !ok || d != 30 {
		t.Fatalf("DistTo(3) before SetBunch = (%d,%v), want (30,true)", d, ok)
	}
	// Unsorted input with a duplicate key: SetBunch must sort, collapse
	// the duplicate to the smaller distance, and drop the probe index
	// built over the previous bunch.
	l.SetBunch([]BunchItem{
		{Node: 9, Dist: 90, Level: 1},
		{Node: 2, Dist: 25, Level: 0},
		{Node: 9, Dist: 80, Level: 1},
	})
	if err := l.Validate(); err != nil {
		t.Fatalf("Validate after SetBunch: %v", err)
	}
	want := []BunchItem{{Node: 2, Dist: 25, Level: 0}, {Node: 9, Dist: 80, Level: 1}}
	if len(l.Bunch) != len(want) {
		t.Fatalf("Bunch = %+v, want %+v", l.Bunch, want)
	}
	for i := range want {
		if l.Bunch[i] != want[i] {
			t.Fatalf("Bunch[%d] = %+v, want %+v", i, l.Bunch[i], want[i])
		}
	}
	if _, ok := l.DistTo(3); ok {
		t.Error("DistTo(3) still answers after SetBunch replaced the bunch")
	}
	if d, ok := l.DistTo(9); !ok || d != 80 {
		t.Errorf("DistTo(9) after SetBunch = (%d,%v), want (80,true)", d, ok)
	}
}
