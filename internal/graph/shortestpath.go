package graph

import (
	"runtime"
	"sync"
)

// This file holds the exact (centralized) shortest-path machinery used as
// ground truth: Dijkstra, all-pairs wrappers, the hop diameter D, and the
// shortest-path diameter S from the paper (Section 2.2).

// SSSPResult holds single-source shortest path output.
type SSSPResult struct {
	Source int
	Dist   []Dist // Inf if unreachable
	Hops   []int  // min hop count among shortest paths; -1 if unreachable
	Parent []int  // predecessor on a (dist,hops)-minimal path; -1 for source/unreachable
}

// Dijkstra computes shortest paths from src, together with the minimum hop
// count among all shortest paths to each node (needed for S). Its queue
// orders entries by (dist, hops, node), so one pass settles every node on
// a minimum-hop shortest path.
func Dijkstra(g *Graph, src int) SSSPResult {
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
	var h Heap
	h.Push(HeapItem{Node: src})
	for h.Len() > 0 {
		it := h.Pop()
		u := it.Node
		if done[u] {
			continue
		}
		done[u] = true
		for _, a := range g.Adj(u) {
			nd := AddDist(it.Dist, a.Weight)
			nh := it.Tie + 1
			v := a.To
			if nd < res.Dist[v] || (nd == res.Dist[v] && nh < res.Hops[v]) {
				res.Dist[v] = nd
				res.Hops[v] = nh
				res.Parent[v] = u
				h.Push(HeapItem{Dist: nd, Tie: nh, Node: v})
			}
		}
	}
	return res
}

// PathTo reconstructs a shortest path from the result's source to v, or nil
// if v is unreachable.
func (r *SSSPResult) PathTo(v int) []int {
	if r.Dist[v] == Inf {
		return nil
	}
	var rev []int
	for u := v; u != -1; u = r.Parent[u] {
		rev = append(rev, u)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// BFSHops computes hop counts (all weights treated as 1) from src.
func BFSHops(g *Graph, src int) []int {
	n := g.N()
	hops := make([]int, n)
	for i := range hops {
		hops[i] = -1
	}
	hops[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, a := range g.Adj(u) {
			if hops[a.To] < 0 {
				hops[a.To] = hops[u] + 1
				queue = append(queue, a.To)
			}
		}
	}
	return hops
}

// APSP computes all-pairs shortest path distances by running Dijkstra from
// every source in parallel. Memory is O(n²); intended for the evaluation
// harness at n up to a few thousand.
func APSP(g *Graph) [][]Dist {
	n := g.N()
	out := make([][]Dist, n)
	parallelFor(n, func(s int) {
		out[s] = Dijkstra(g, s).Dist
	})
	return out
}

// HopDiameter returns D = max over pairs of the hop distance (edge weights
// ignored). Returns -1 for a disconnected graph.
func HopDiameter(g *Graph) int {
	n := g.N()
	maxPer := make([]int, n)
	bad := make([]bool, n)
	parallelFor(n, func(s int) {
		hops := BFSHops(g, s)
		m := 0
		for _, h := range hops {
			if h < 0 {
				bad[s] = true
				return
			}
			if h > m {
				m = h
			}
		}
		maxPer[s] = m
	})
	d := 0
	for s := 0; s < n; s++ {
		if bad[s] {
			return -1
		}
		if maxPer[s] > d {
			d = maxPer[s]
		}
	}
	return d
}

// ShortestPathDiameter returns S = max over pairs u,v of h(u,v), where
// h(u,v) is the minimum number of hops among all minimum-weight u-v paths
// (Section 2.2). Returns -1 for a disconnected graph. D <= S always.
func ShortestPathDiameter(g *Graph) int {
	n := g.N()
	maxPer := make([]int, n)
	bad := make([]bool, n)
	parallelFor(n, func(s int) {
		r := Dijkstra(g, s)
		m := 0
		for _, h := range r.Hops {
			if h < 0 {
				bad[s] = true
				return
			}
			if h > m {
				m = h
			}
		}
		maxPer[s] = m
	})
	sd := 0
	for s := 0; s < n; s++ {
		if bad[s] {
			return -1
		}
		if maxPer[s] > sd {
			sd = maxPer[s]
		}
	}
	return sd
}

// MultiSourceDijkstra computes, for every node, the distance to the nearest
// source and the identity of that source, with ties broken by smaller
// source ID. This is the centralized analogue of the "super node"
// Bellman-Ford of Lemma 4.5 and is used as its ground truth, and it is also
// how p_i(u) (the nearest A_i node) is defined throughout.
func MultiSourceDijkstra(g *Graph, sources []int) (dist []Dist, nearest []int) {
	n := g.N()
	dist = make([]Dist, n)
	nearest = make([]int, n)
	for i := 0; i < n; i++ {
		dist[i] = Inf
		nearest[i] = -1
	}
	// Queue entries are ordered by (dist, source, node); Tie holds the
	// source.
	var h Heap
	for _, s := range sources {
		if dist[s] == 0 && nearest[s] >= 0 && nearest[s] <= s {
			continue
		}
		dist[s] = 0
		nearest[s] = s
		h.Push(HeapItem{Tie: s, Node: s})
	}
	done := make([]bool, n)
	for h.Len() > 0 {
		it := h.Pop()
		u := it.Node
		if done[u] {
			continue
		}
		done[u] = true
		for _, a := range g.Adj(u) {
			nd := AddDist(it.Dist, a.Weight)
			v := a.To
			if nd < dist[v] || (nd == dist[v] && it.Tie < nearest[v]) {
				dist[v] = nd
				nearest[v] = it.Tie
				h.Push(HeapItem{Dist: nd, Tie: it.Tie, Node: v})
			}
		}
	}
	return dist, nearest
}

// parallelFor runs f(i) for i in [0,n) on up to GOMAXPROCS workers.
func parallelFor(n int, f func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var next int64
	var mu sync.Mutex
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if int(next) >= n {
			return 0, false
		}
		i := int(next)
		next++
		return i, true
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i, ok := take()
				if !ok {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
}
