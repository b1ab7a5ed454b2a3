package graph

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestBuilderBasic(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1, 5)
	b.AddEdge(1, 2, 3)
	b.AddEdge(2, 3, 1)
	b.AddEdge(3, 0, 7)
	g, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 4 || g.M() != 4 {
		t.Fatalf("got n=%d m=%d, want 4,4", g.N(), g.M())
	}
	if w, ok := g.EdgeWeight(1, 0); !ok || w != 5 {
		t.Errorf("EdgeWeight(1,0) = %d,%v want 5,true", w, ok)
	}
	if g.HasEdge(0, 2) {
		t.Error("unexpected edge (0,2)")
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
}

func TestBuilderDuplicateKeepsMin(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 1, 9)
	b.AddEdge(1, 0, 4)
	b.AddEdge(0, 1, 6)
	g, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 1 {
		t.Fatalf("M = %d, want 1", g.M())
	}
	if w, _ := g.EdgeWeight(0, 1); w != 4 {
		t.Errorf("weight = %d, want min 4", w)
	}
}

func TestBuilderErrors(t *testing.T) {
	cases := []struct {
		name string
		f    func(b *Builder)
	}{
		{"self-loop", func(b *Builder) { b.AddEdge(1, 1, 1) }},
		{"out-of-range", func(b *Builder) { b.AddEdge(0, 9, 1) }},
		{"negative", func(b *Builder) { b.AddEdge(0, 1, -1) }},
		{"inf-weight", func(b *Builder) { b.AddEdge(0, 1, Inf) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBuilder(3)
			tc.f(b)
			if _, err := b.Freeze(); err == nil {
				t.Error("Freeze succeeded, want error")
			}
		})
	}
}

// TestNodeCountLimits: a node count below 0 or above MaxNodes is an
// error from Freeze and from the problem line, not an allocation panic.
func TestNodeCountLimits(t *testing.T) {
	for _, n := range []int{-1, MaxNodes + 1, math.MaxInt} {
		if g, err := NewBuilder(n).Freeze(); err == nil || g != nil {
			t.Errorf("NewBuilder(%d).Freeze() = %v, %v; want an error", n, g, err)
		}
	}
	for _, src := range []string{"p 100000000000000 0\n", fmt.Sprintf("p %d 0\n", MaxNodes+1), "p -1 0\n"} {
		if g, err := ReadEdgeList(strings.NewReader(src)); err == nil || g != nil {
			t.Errorf("ReadEdgeList(%q) = %v, %v; want an error", src, g, err)
		}
	}
}

func TestAddDistSaturates(t *testing.T) {
	if AddDist(Inf, 1) != Inf || AddDist(1, Inf) != Inf {
		t.Error("Inf + x must be Inf")
	}
	if AddDist(Inf-1, 2) != Inf {
		t.Error("overflow must saturate to Inf")
	}
	if AddDist(3, 4) != 7 {
		t.Error("3+4 != 7")
	}
	if AddDist(0, 0) != 0 {
		t.Error("0+0 != 0")
	}
}

func TestConnectivity(t *testing.T) {
	g := Path(5, UnitWeights(), 1)
	if !g.IsConnected() {
		t.Error("path must be connected")
	}
	b := NewBuilder(4)
	b.AddEdge(0, 1, 1)
	b.AddEdge(2, 3, 1)
	g2 := b.MustFreeze()
	if g2.IsConnected() {
		t.Error("two components reported connected")
	}
	comps := g2.Components()
	if len(comps) != 2 {
		t.Fatalf("got %d components, want 2", len(comps))
	}
	if comps[0][0] != 0 || comps[1][0] != 2 {
		t.Errorf("components = %v", comps)
	}
}

func TestDijkstraPath(t *testing.T) {
	// 0 -2- 1 -2- 2
	//  \----5----/
	b := NewBuilder(3)
	b.AddEdge(0, 1, 2)
	b.AddEdge(1, 2, 2)
	b.AddEdge(0, 2, 5)
	g := b.MustFreeze()
	r := Dijkstra(g, 0)
	if r.Dist[2] != 4 {
		t.Errorf("d(0,2) = %d, want 4", r.Dist[2])
	}
	if r.Hops[2] != 2 {
		t.Errorf("hops(0,2) = %d, want 2", r.Hops[2])
	}
	p := r.PathTo(2)
	if len(p) != 3 || p[0] != 0 || p[1] != 1 || p[2] != 2 {
		t.Errorf("path = %v, want [0 1 2]", p)
	}
}

func TestDijkstraMinHopsAmongShortest(t *testing.T) {
	// Two shortest paths of weight 4: 0-1-2-3 (3 hops, weights 1,2,1) and
	// 0-4-3 (2 hops, weights 2,2). Hops must report 2.
	b := NewBuilder(5)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 2)
	b.AddEdge(2, 3, 1)
	b.AddEdge(0, 4, 2)
	b.AddEdge(4, 3, 2)
	g := b.MustFreeze()
	r := Dijkstra(g, 0)
	if r.Dist[3] != 4 {
		t.Fatalf("d(0,3) = %d, want 4", r.Dist[3])
	}
	if r.Hops[3] != 2 {
		t.Errorf("min hops among shortest = %d, want 2", r.Hops[3])
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1, 1)
	g := b.MustFreeze()
	r := Dijkstra(g, 0)
	if r.Dist[2] != Inf || r.Hops[2] != -1 {
		t.Errorf("unreachable: dist=%d hops=%d", r.Dist[2], r.Hops[2])
	}
	if r.PathTo(2) != nil {
		t.Error("PathTo unreachable must be nil")
	}
}

func TestDiametersUnweightedEqual(t *testing.T) {
	// In unweighted graphs S == D (paper §1.1).
	for _, f := range AllFamilies() {
		g := Make(f, 40, UnitWeights(), 7)
		d := HopDiameter(g)
		s := ShortestPathDiameter(g)
		if d != s {
			t.Errorf("%s: D=%d S=%d, want equal in unweighted graph", f, d, s)
		}
		if d <= 0 && g.N() > 1 {
			t.Errorf("%s: nonpositive diameter %d", f, d)
		}
	}
}

func TestDiameterDLeqS(t *testing.T) {
	for _, f := range AllFamilies() {
		g := Make(f, 40, UniformWeights(1, 20), 3)
		d := HopDiameter(g)
		s := ShortestPathDiameter(g)
		if d > s {
			t.Errorf("%s: D=%d > S=%d", f, d, s)
		}
	}
}

func TestShortestPathDiameterSkewed(t *testing.T) {
	// Ring with one heavy edge: shortest paths avoid the heavy edge, so
	// S = n-1 while D = n/2.
	n := 12
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		w := Dist(1)
		if i == n-1 {
			w = 1000
		}
		b.AddEdge(i, (i+1)%n, w)
	}
	g := b.MustFreeze()
	if got := HopDiameter(g); got != n/2 {
		t.Errorf("D = %d, want %d", got, n/2)
	}
	if got := ShortestPathDiameter(g); got != n-1 {
		t.Errorf("S = %d, want %d", got, n-1)
	}
}

func TestAPSPMatchesDijkstra(t *testing.T) {
	g := Make(FamilyER, 60, UniformWeights(1, 9), 11)
	ap := APSP(g)
	for _, s := range []int{0, 17, 59} {
		r := Dijkstra(g, s)
		for v := 0; v < g.N(); v++ {
			if ap[s][v] != r.Dist[v] {
				t.Fatalf("APSP[%d][%d]=%d != Dijkstra %d", s, v, ap[s][v], r.Dist[v])
			}
		}
	}
}

func TestAPSPSymmetric(t *testing.T) {
	g := Make(FamilyGeometric, 50, nil, 5)
	ap := APSP(g)
	for u := 0; u < g.N(); u++ {
		for v := u + 1; v < g.N(); v++ {
			if ap[u][v] != ap[v][u] {
				t.Fatalf("asymmetric: d(%d,%d)=%d d(%d,%d)=%d", u, v, ap[u][v], v, u, ap[v][u])
			}
		}
	}
}

func TestMultiSourceDijkstra(t *testing.T) {
	g := Path(6, UnitWeights(), 1) // 0-1-2-3-4-5
	dist, nearest := MultiSourceDijkstra(g, []int{0, 5})
	wantDist := []Dist{0, 1, 2, 2, 1, 0}
	wantSrc := []int{0, 0, 0, 5, 5, 5}
	for i := range wantDist {
		if dist[i] != wantDist[i] {
			t.Errorf("dist[%d] = %d, want %d", i, dist[i], wantDist[i])
		}
		if nearest[i] != wantSrc[i] {
			t.Errorf("nearest[%d] = %d, want %d", i, nearest[i], wantSrc[i])
		}
	}
}

func TestMultiSourceTieBreakSmallerID(t *testing.T) {
	g := Path(3, UnitWeights(), 1) // node 1 equidistant from 0 and 2
	_, nearest := MultiSourceDijkstra(g, []int{2, 0})
	if nearest[1] != 0 {
		t.Errorf("tie must go to smaller source ID, got %d", nearest[1])
	}
}

func TestMultiSourceMatchesPerSourceMin(t *testing.T) {
	g := Make(FamilyBA, 50, UniformWeights(1, 7), 9)
	sources := []int{3, 11, 42}
	dist, nearest := MultiSourceDijkstra(g, sources)
	per := make(map[int][]Dist)
	for _, s := range sources {
		per[s] = Dijkstra(g, s).Dist
	}
	for v := 0; v < g.N(); v++ {
		best, bestSrc := Inf, -1
		for _, s := range sources {
			if per[s][v] < best || (per[s][v] == best && s < bestSrc) {
				best, bestSrc = per[s][v], s
			}
		}
		if dist[v] != best || nearest[v] != bestSrc {
			t.Fatalf("node %d: got (%d,%d) want (%d,%d)", v, dist[v], nearest[v], best, bestSrc)
		}
	}
}

func TestGeneratorsConnectedAndValid(t *testing.T) {
	for _, f := range AllFamilies() {
		for _, n := range []int{8, 33, 64} {
			for seed := uint64(0); seed < 3; seed++ {
				g := Make(f, n, UniformWeights(1, 10), seed)
				if !g.IsConnected() {
					t.Errorf("%s n=%d seed=%d: disconnected", f, n, seed)
				}
				if err := g.Validate(); err != nil {
					t.Errorf("%s n=%d seed=%d: %v", f, n, seed, err)
				}
			}
		}
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	for _, f := range AllFamilies() {
		a := Make(f, 30, UniformWeights(1, 10), 42)
		b := Make(f, 30, UniformWeights(1, 10), 42)
		if a.N() != b.N() || a.M() != b.M() {
			t.Fatalf("%s: size differs across identical seeds", f)
		}
		ea, eb := a.Edges(), b.Edges()
		for i := range ea {
			if ea[i] != eb[i] {
				t.Fatalf("%s: edge %d differs: %v vs %v", f, i, ea[i], eb[i])
			}
		}
	}
}

func TestGridTorusShapes(t *testing.T) {
	g := Grid(3, 4, UnitWeights(), 0)
	if g.N() != 12 {
		t.Fatalf("grid n = %d", g.N())
	}
	// 3x4 grid: 3*(4-1) horizontal + (3-1)*4 vertical = 9+8 = 17.
	if g.M() != 17 {
		t.Errorf("grid m = %d, want 17", g.M())
	}
	tor := Torus(3, 4, UnitWeights(), 0)
	if tor.M() != 24 {
		t.Errorf("torus m = %d, want 24", tor.M())
	}
}

func TestHyperCube(t *testing.T) {
	g := HyperCube(4, UnitWeights(), 0)
	if g.N() != 16 || g.M() != 32 {
		t.Fatalf("hypercube(4): n=%d m=%d, want 16,32", g.N(), g.M())
	}
	if d := HopDiameter(g); d != 4 {
		t.Errorf("hypercube(4) diameter = %d, want 4", d)
	}
	for u := 0; u < g.N(); u++ {
		if g.Degree(u) != 4 {
			t.Fatalf("degree(%d) = %d, want 4", u, g.Degree(u))
		}
	}
}

func TestRandomTreeIsTree(t *testing.T) {
	g := RandomTree(50, UnitWeights(), 3)
	if g.M() != 49 {
		t.Errorf("tree edges = %d, want 49", g.M())
	}
	if !g.IsConnected() {
		t.Error("tree disconnected")
	}
}

func TestCaterpillar(t *testing.T) {
	g := Caterpillar(5, 2, UnitWeights(), 0)
	if g.N() != 15 || g.M() != 14 {
		t.Fatalf("caterpillar: n=%d m=%d, want 15,14", g.N(), g.M())
	}
	if !g.IsConnected() {
		t.Error("caterpillar disconnected")
	}
}

func TestBarabasiAlbertDegrees(t *testing.T) {
	g := BarabasiAlbert(100, 3, UnitWeights(), 1)
	if !g.IsConnected() {
		t.Fatal("BA disconnected")
	}
	for u := 4; u < g.N(); u++ {
		if g.Degree(u) < 3 {
			t.Fatalf("BA node %d degree %d < m=3", u, g.Degree(u))
		}
	}
}

func TestLollipopShape(t *testing.T) {
	g := LollipopPath(5, 4, UnitWeights(), 0)
	if g.N() != 9 {
		t.Fatalf("n = %d", g.N())
	}
	if g.M() != 10+4 {
		t.Errorf("m = %d, want 14", g.M())
	}
	if !g.IsConnected() {
		t.Error("lollipop disconnected")
	}
}

func TestWeightFns(t *testing.T) {
	r := rng(1)
	uw := UnitWeights()
	if uw(r, 0, 1) != 1 {
		t.Error("UnitWeights != 1")
	}
	rw := UniformWeights(5, 9)
	for i := 0; i < 100; i++ {
		w := rw(r, 0, 1)
		if w < 5 || w > 9 {
			t.Fatalf("UniformWeights out of range: %d", w)
		}
	}
	sw := SkewedWeights(100, 0.5)
	sawHeavy, sawLight := false, false
	for i := 0; i < 200; i++ {
		switch sw(r, 0, 1) {
		case 100:
			sawHeavy = true
		case 1:
			sawLight = true
		default:
			t.Fatal("SkewedWeights produced unexpected value")
		}
	}
	if !sawHeavy || !sawLight {
		t.Error("SkewedWeights not mixing")
	}
}

// Property: Dijkstra distances satisfy the triangle inequality over edges
// (d(s,v) <= d(s,u) + w(u,v)) and are tight somewhere.
func TestDijkstraRelaxationProperty(t *testing.T) {
	f := func(seed uint64) bool {
		g := Make(FamilyER, 30, UniformWeights(1, 15), seed%1000)
		r := Dijkstra(g, int(seed%30))
		for _, e := range g.Edges() {
			if r.Dist[e.V] > AddDist(r.Dist[e.U], e.Weight) {
				return false
			}
			if r.Dist[e.U] > AddDist(r.Dist[e.V], e.Weight) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: shortest-path distances form a metric (symmetry + triangle
// inequality) on connected graphs.
func TestAPSPMetricProperty(t *testing.T) {
	f := func(seed uint64) bool {
		g := Make(FamilyGeometric, 24, UniformWeights(1, 9), seed%512)
		ap := APSP(g)
		n := g.N()
		probe := rand.New(rand.NewPCG(seed, 1))
		for trial := 0; trial < 200; trial++ {
			u := int(probe.Int64N(int64(n)))
			v := int(probe.Int64N(int64(n)))
			w := int(probe.Int64N(int64(n)))
			if ap[u][v] != ap[v][u] {
				return false
			}
			if ap[u][w] > AddDist(ap[u][v], ap[v][w]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func BenchmarkDijkstra(b *testing.B) {
	g := Make(FamilyER, 512, UniformWeights(1, 100), 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Dijkstra(g, i%g.N())
	}
}

func BenchmarkAPSP256(b *testing.B) {
	g := Make(FamilyER, 256, UniformWeights(1, 100), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		APSP(g)
	}
}

func BenchmarkShortestPathDiameter(b *testing.B) {
	g := Make(FamilyGeometric, 256, nil, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ShortestPathDiameter(g)
	}
}

// BenchmarkReweight prices one 16-edge batch on churn-rw's graph shape
// (1024-node geometric, weights 1-100, its seed): Reweighted against the
// Builder rebuild of every edge that it replaced.
func BenchmarkReweight(b *testing.B) {
	g := Make(FamilyGeometric, 1024, UniformWeights(1, 100), 0x580776ea2c8a1a73)
	var batch []Edge
	for i := 0; i < 16; i++ {
		e := g.Edges()[i*g.M()/16]
		e.Weight = 1 + e.Weight/2
		batch = append(batch, e)
	}
	b.Run("reweighted", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := g.Reweighted(batch); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rebuild", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			nb := NewBuilder(g.N())
			for _, e := range g.Edges() {
				nb.AddEdge(e.U, e.V, e.Weight)
			}
			for _, e := range batch {
				nb.AddEdge(e.U, e.V, e.Weight)
			}
			if _, err := nb.Freeze(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Reference Dijkstra and MultiSourceDijkstra over container/heap: the
// versions on Heap must reproduce their Dist, Hops, Parent and nearest
// exactly, ties included.

type refSPItem struct {
	node int
	dist Dist
	hops int
}

type refSPHeap []refSPItem

func (h refSPHeap) Len() int { return len(h) }
func (h refSPHeap) Less(i, j int) bool {
	if h[i].dist != h[j].dist {
		return h[i].dist < h[j].dist
	}
	if h[i].hops != h[j].hops {
		return h[i].hops < h[j].hops
	}
	return h[i].node < h[j].node
}
func (h refSPHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refSPHeap) Push(x any)   { *h = append(*h, x.(refSPItem)) }
func (h *refSPHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

func refDijkstra(g *Graph, src int) SSSPResult {
	n := g.N()
	res := SSSPResult{
		Source: src,
		Dist:   make([]Dist, n),
		Hops:   make([]int, n),
		Parent: make([]int, n),
	}
	for i := 0; i < n; i++ {
		res.Dist[i] = Inf
		res.Hops[i] = -1
		res.Parent[i] = -1
	}
	res.Dist[src] = 0
	res.Hops[src] = 0
	done := make([]bool, n)
	h := &refSPHeap{{node: src}}
	for h.Len() > 0 {
		it := heap.Pop(h).(refSPItem)
		u := it.node
		if done[u] {
			continue
		}
		done[u] = true
		for _, a := range g.Adj(u) {
			nd := AddDist(it.dist, a.Weight)
			nh := it.hops + 1
			v := a.To
			if nd < res.Dist[v] || (nd == res.Dist[v] && nh < res.Hops[v]) {
				res.Dist[v] = nd
				res.Hops[v] = nh
				res.Parent[v] = u
				heap.Push(h, refSPItem{node: v, dist: nd, hops: nh})
			}
		}
	}
	return res
}

type refMSItem struct {
	node int
	dist Dist
	src  int
}

type refMSHeap []refMSItem

func (h refMSHeap) Len() int { return len(h) }
func (h refMSHeap) Less(i, j int) bool {
	if h[i].dist != h[j].dist {
		return h[i].dist < h[j].dist
	}
	if h[i].src != h[j].src {
		return h[i].src < h[j].src
	}
	return h[i].node < h[j].node
}
func (h refMSHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refMSHeap) Push(x any)   { *h = append(*h, x.(refMSItem)) }
func (h *refMSHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

func refMultiSourceDijkstra(g *Graph, sources []int) (dist []Dist, nearest []int) {
	n := g.N()
	dist = make([]Dist, n)
	nearest = make([]int, n)
	for i := 0; i < n; i++ {
		dist[i] = Inf
		nearest[i] = -1
	}
	h := &refMSHeap{}
	for _, s := range sources {
		if dist[s] == 0 && nearest[s] >= 0 && nearest[s] <= s {
			continue
		}
		dist[s] = 0
		nearest[s] = s
		heap.Push(h, refMSItem{node: s, dist: 0, src: s})
	}
	done := make([]bool, n)
	for h.Len() > 0 {
		it := heap.Pop(h).(refMSItem)
		u := it.node
		if done[u] {
			continue
		}
		done[u] = true
		for _, a := range g.Adj(u) {
			nd := AddDist(it.dist, a.Weight)
			v := a.To
			if nd < dist[v] || (nd == dist[v] && it.src < nearest[v]) {
				dist[v] = nd
				nearest[v] = it.src
				heap.Push(h, refMSItem{node: v, dist: nd, src: it.src})
			}
		}
	}
	return dist, nearest
}

// TestDijkstraMatchesReference: on every family with weights 1–2, where
// equal-length paths abound, Dijkstra equals the container/heap reference
// in Dist, Hops and Parent from every source.
func TestDijkstraMatchesReference(t *testing.T) {
	for _, f := range AllFamilies() {
		g := Make(f, 120, UniformWeights(1, 2), 71)
		for src := 0; src < g.N(); src++ {
			got, want := Dijkstra(g, src), refDijkstra(g, src)
			for v := 0; v < g.N(); v++ {
				if got.Dist[v] != want.Dist[v] || got.Hops[v] != want.Hops[v] || got.Parent[v] != want.Parent[v] {
					t.Fatalf("%s src %d node %d: (dist %d, hops %d, parent %d), reference (%d, %d, %d)",
						f, src, v, got.Dist[v], got.Hops[v], got.Parent[v], want.Dist[v], want.Hops[v], want.Parent[v])
				}
			}
		}
	}
}

// TestMultiSourceMatchesReference: the same for MultiSourceDijkstra's
// distances and nearest sources, over random source sets (duplicates and
// unsorted order included).
func TestMultiSourceMatchesReference(t *testing.T) {
	r := rand.New(rand.NewPCG(72, 1))
	for _, f := range AllFamilies() {
		g := Make(f, 120, UniformWeights(1, 2), 72)
		for trial := 0; trial < 20; trial++ {
			sources := make([]int, 1+r.IntN(12))
			for i := range sources {
				sources[i] = r.IntN(g.N())
			}
			dist, nearest := MultiSourceDijkstra(g, sources)
			wantDist, wantNearest := refMultiSourceDijkstra(g, sources)
			for v := 0; v < g.N(); v++ {
				if dist[v] != wantDist[v] || nearest[v] != wantNearest[v] {
					t.Fatalf("%s sources %v node %d: (%d, %d), reference (%d, %d)", f, sources, v, dist[v], nearest[v], wantDist[v], wantNearest[v])
				}
			}
		}
	}
}

// TestHeapPopsInOrder: items with many equal keys come out in (Dist,
// Tie, Node) order, and a drained heap is reused.
func TestHeapPopsInOrder(t *testing.T) {
	r := rand.New(rand.NewPCG(73, 1))
	var h Heap
	for round := 0; round < 3; round++ {
		var all []HeapItem
		for i := 0; i < 500; i++ {
			it := HeapItem{Dist: Dist(r.IntN(20)), Tie: r.IntN(4), Node: r.IntN(50)}
			h.Push(it)
			all = append(all, it)
		}
		sort.Slice(all, func(i, j int) bool { return all[i].less(all[j]) })
		for i, want := range all {
			if got := h.Pop(); got != want {
				t.Fatalf("round %d pop %d: %+v, want %+v", round, i, got, want)
			}
		}
		if h.Len() != 0 {
			t.Fatalf("round %d: %d items left", round, h.Len())
		}
	}
}

// refFreeze is the map-and-sort Freeze that the bucketed one replaced,
// kept as its reference: AddEdge's checks in call order with the first
// error latched, the lightest of duplicate edges kept, one comparison
// sort over the edges and one over every adjacency list.
func refFreeze(n int, adds []Edge) ([]Edge, [][]Arc, error) {
	w := make(map[[2]int]Dist)
	for _, e := range adds {
		u, v := e.U, e.V
		switch {
		case u < 0 || u >= n || v < 0 || v >= n:
			return nil, nil, errors.New("out of range")
		case u == v:
			return nil, nil, errors.New("self-loop")
		case e.Weight < 0:
			return nil, nil, errors.New("negative weight")
		case e.Weight >= Inf:
			return nil, nil, errors.New("Inf weight")
		}
		if u > v {
			u, v = v, u
		}
		key := [2]int{u, v}
		if old, ok := w[key]; !ok || e.Weight < old {
			w[key] = e.Weight
		}
	}
	if n < 0 || n > MaxNodes {
		return nil, nil, errors.New("node count")
	}
	adj := make([][]Arc, n)
	edges := make([]Edge, 0, len(w))
	for key, wt := range w {
		edges = append(edges, Edge{U: key[0], V: key[1], Weight: wt})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].U != edges[j].U {
			return edges[i].U < edges[j].U
		}
		return edges[i].V < edges[j].V
	})
	for _, e := range edges {
		adj[e.U] = append(adj[e.U], Arc{To: e.V, Weight: e.Weight})
		adj[e.V] = append(adj[e.V], Arc{To: e.U, Weight: e.Weight})
	}
	for _, a := range adj {
		sort.Slice(a, func(i, j int) bool { return a[i].To < a[j].To })
	}
	return edges, adj, nil
}

// graphDiff describes how g differs from the given edge list and
// adjacency lists, or returns "" when it has exactly those.
func graphDiff(g *Graph, edges []Edge, adj [][]Arc) string {
	if g.N() != len(adj) {
		return fmt.Sprintf("n = %d, want %d", g.N(), len(adj))
	}
	if !slices.Equal(g.Edges(), edges) {
		return fmt.Sprintf("Edges() = %v, want %v", g.Edges(), edges)
	}
	for u := range adj {
		if !slices.Equal(g.Adj(u), adj[u]) {
			return fmt.Sprintf("Adj(%d) = %v, want %v", u, g.Adj(u), adj[u])
		}
		if cap(g.Adj(u)) != len(adj[u]) {
			return fmt.Sprintf("cap(Adj(%d)) = %d, want %d", u, cap(g.Adj(u)), len(adj[u]))
		}
	}
	return ""
}

// graphState copies g's edge list and adjacency lists.
func graphState(g *Graph) ([]Edge, [][]Arc) {
	adj := make([][]Arc, g.N())
	for u := range adj {
		adj[u] = slices.Clone(g.Adj(u))
	}
	return slices.Clone(g.Edges()), adj
}

// TestFreezeMatchesReference: every generated family, rebuilt through
// the Builder with each edge added twice (the heavier copy in the
// opposite orientation), equals the reference Freeze.
func TestFreezeMatchesReference(t *testing.T) {
	for _, f := range AllFamilies() {
		g := Make(f, 96, UniformWeights(1, 30), 9)
		var adds []Edge
		for _, e := range g.Edges() {
			adds = append(adds, Edge{U: e.V, V: e.U, Weight: e.Weight + 1}, e)
		}
		b := NewBuilder(g.N())
		for _, e := range adds {
			b.AddEdge(e.U, e.V, e.Weight)
		}
		got, err := b.Freeze()
		if err != nil {
			t.Fatal(err)
		}
		edges, adj, err := refFreeze(g.N(), adds)
		if err != nil {
			t.Fatal(err)
		}
		if d := graphDiff(got, edges, adj); d != "" {
			t.Errorf("%s: %s", f, d)
		}
		if d := graphDiff(g, edges, adj); d != "" {
			t.Errorf("%s generator: %s", f, d)
		}
	}
}

// TestReweightedMatchesRebuild: on random batches over every family, in
// both orientations and with repeated edges, Reweighted equals a Builder
// rebuild with each edge's last weight, and leaves the receiver's edges
// and adjacency lists as they were.
func TestReweightedMatchesRebuild(t *testing.T) {
	r := rand.New(rand.NewPCG(20, 7))
	for _, f := range AllFamilies() {
		g := Make(f, 80, UniformWeights(1, 40), 20)
		origEdges, origAdj := graphState(g)
		for trial := 0; trial < 6; trial++ {
			edges := g.Edges()
			final := map[[2]int]Dist{}
			var batch []Edge
			for i := 1 + r.IntN(24); i > 0; i-- {
				e := edges[r.IntN(len(edges))]
				e.Weight = Dist(r.IntN(50))
				final[[2]int{e.U, e.V}] = e.Weight
				if r.IntN(2) == 0 {
					e.U, e.V = e.V, e.U
				}
				batch = append(batch, e)
			}
			ng, err := g.Reweighted(batch)
			if err != nil {
				t.Fatalf("%s trial %d: %v", f, trial, err)
			}
			b := NewBuilder(g.N())
			for _, e := range edges {
				if w, ok := final[[2]int{e.U, e.V}]; ok {
					e.Weight = w
				}
				b.AddEdge(e.U, e.V, e.Weight)
			}
			wantEdges, wantAdj := graphState(b.MustFreeze())
			if d := graphDiff(ng, wantEdges, wantAdj); d != "" {
				t.Errorf("%s trial %d: %s", f, trial, d)
			}
			if err := ng.Validate(); err != nil {
				t.Errorf("%s trial %d: %v", f, trial, err)
			}
			if d := graphDiff(g, origEdges, origAdj); d != "" {
				t.Fatalf("%s trial %d: receiver changed: %s", f, trial, d)
			}
		}
	}
}

// TestReweightedLastDuplicateWins: repeated changes to one edge apply in
// order, whatever orientation names it.
func TestReweightedLastDuplicateWins(t *testing.T) {
	g := mustFromEdges(t, 3, []Edge{{0, 1, 5}, {1, 2, 7}})
	ng, err := g.Reweighted([]Edge{{0, 1, 2}, {2, 1, 9}, {1, 0, 4}, {1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	want := []Edge{{0, 1, 4}, {1, 2, 3}}
	if !slices.Equal(ng.Edges(), want) {
		t.Errorf("Edges() = %v, want %v", ng.Edges(), want)
	}
	if w, _ := ng.EdgeWeight(1, 0); w != 4 {
		t.Errorf("EdgeWeight(1,0) = %d, want 4", w)
	}
	if w, _ := ng.EdgeWeight(2, 1); w != 3 {
		t.Errorf("EdgeWeight(2,1) = %d, want 3", w)
	}
}

// TestReweightedRejects: a change AddEdge would refuse, or one naming an
// edge the graph lacks, fails the whole batch and writes nothing.
func TestReweightedRejects(t *testing.T) {
	g := mustFromEdges(t, 4, []Edge{{0, 1, 5}, {1, 2, 7}, {2, 3, 1}})
	origEdges, origAdj := graphState(g)
	cases := map[string]Edge{
		"unknown edge": {0, 2, 1},
		"self-loop":    {1, 1, 1},
		"negative id":  {-1, 0, 1},
		"id n":         {3, 4, 1},
		"negative":     {0, 1, -1},
		"Inf":          {1, 2, Inf},
		"reversed Inf": {2, 1, Inf},
		"unknown far":  {3, 0, 2},
	}
	for name, bad := range cases {
		ng, err := g.Reweighted([]Edge{{0, 1, 2}, bad})
		if err == nil || ng != nil {
			t.Errorf("%s: Reweighted = %v, %v; want an error", name, ng, err)
		}
		if d := graphDiff(g, origEdges, origAdj); d != "" {
			t.Fatalf("%s: receiver changed: %s", name, d)
		}
	}
	if ng, err := g.Reweighted(nil); err != nil || graphDiff(ng, origEdges, origAdj) != "" {
		t.Errorf("empty batch: %v, %v; want an equal copy", ng, err)
	}
}

// TestReweightedAllocs: a batch costs the same constant number of
// allocations on a graph 16 times larger: the two array copies and the
// graph header, no per-edge or per-node work.
func TestReweightedAllocs(t *testing.T) {
	var got []float64
	for _, n := range []int{64, 1024} {
		g := Make(FamilyGeometric, n, UniformWeights(1, 50), 3)
		var batch []Edge
		for i := 0; i < 16; i++ {
			e := g.Edges()[i*g.M()/16]
			batch = append(batch, Edge{U: e.V, V: e.U, Weight: 1})
		}
		got = append(got, testing.AllocsPerRun(20, func() {
			if _, err := g.Reweighted(batch); err != nil {
				panic(err)
			}
		}))
	}
	if got[0] != got[1] || got[1] > 3 {
		t.Errorf("Reweighted allocations on 64 and 1024 nodes = %v, want one constant ≤ 3", got)
	}
}

// mustFromEdges is FromEdges for tests with known-valid edges.
func mustFromEdges(t *testing.T, n int, edges []Edge) *Graph {
	t.Helper()
	g, err := FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}
