package graph

import (
	"container/heap"
	"math/rand/v2"
	"sort"
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
