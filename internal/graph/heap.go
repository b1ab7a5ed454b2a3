package graph

// HeapItem is one entry of a Heap, ordered lexicographically by
// (Dist, Tie, Node). Tie carries each search's secondary key: the hop
// count in Dijkstra (so one pass finds the minimum-hop shortest paths),
// the source ID in MultiSourceDijkstra (the smaller source wins a tie),
// and zero in a cluster regrowth, whose order is plain (dist, node).
type HeapItem struct {
	Dist Dist
	Tie  int
	Node int
}

func (a HeapItem) less(b HeapItem) bool {
	if a.Dist != b.Dist {
		return a.Dist < b.Dist
	}
	if a.Tie != b.Tie {
		return a.Tie < b.Tie
	}
	return a.Node < b.Node
}

// Heap is a binary min-heap of HeapItems held by value. container/heap
// boxes every pushed item into an interface and reaches Less and Swap
// through interface calls; Heap does neither, so Push allocates only when
// its backing array grows, and a drained heap keeps that array for the
// next search. The zero value is an empty heap.
type Heap struct {
	items []HeapItem
}

// Len returns the number of queued items.
func (h *Heap) Len() int { return len(h.items) }

// Push queues it.
func (h *Heap) Push(it HeapItem) {
	s := append(h.items, it)
	j := len(s) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !s[j].less(s[i]) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
	h.items = s
}

// Pop removes and returns the least item. The heap must not be empty.
func (h *Heap) Pop() HeapItem {
	s := h.items
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if r := j + 1; r < n && s[r].less(s[j]) {
			j = r
		}
		if !s[j].less(s[i]) {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	it := s[n]
	h.items = s[:n]
	return it
}
