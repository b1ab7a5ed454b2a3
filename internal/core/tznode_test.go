package core

import (
	"math/rand/v2"
	"testing"

	"distsketch/internal/graph"
)

// find returns src's entry, if the table holds one.
func (t *tzTable) find(src int) (tzBest, bool) {
	if len(t.slots) == 0 {
		return tzBest{}, false
	}
	if j := t.slots[t.probe(src)]; j != 0 {
		return t.entries[j-1], true
	}
	return tzBest{}, false
}

// TestTZTableMatchesMap drives tzNode's per-phase source table with random
// insert, find and improve sequences, the way accept and pop use it,
// against a map reference. Phases grow from 40 to 1280 distinct sources,
// so the table grows several times and is reset between phases; node ids
// 0 and n-1 are drawn often.
func TestTZTableMatchesMap(t *testing.T) {
	const n = 4096
	rng := rand.New(rand.NewPCG(7, 11))
	var tab tzTable
	var prev map[int]tzBest
	grows := 0
	for phase := 0; phase < 6; phase++ {
		tab.reset()
		for src := range prev {
			if b, ok := tab.find(src); ok {
				t.Fatalf("phase %d: stale entry %+v visible after reset", phase, b)
			}
		}
		ref := map[int]tzBest{}
		var order []int // sources in insertion order
		for len(ref) < 40<<phase {
			var src int
			switch rng.IntN(8) {
			case 0:
				src = 0
			case 1:
				src = n - 1
			default:
				src = rng.IntN(n)
			}
			if rng.IntN(3) == 0 {
				got, ok := tab.find(src)
				want, wok := ref[src]
				if ok != wok || got != want {
					t.Fatalf("phase %d: find(%d) = %+v,%v, want %+v,%v", phase, src, got, ok, want, wok)
				}
				continue
			}
			slots := len(tab.slots)
			j := tab.upsert(src)
			if len(tab.slots) != slots {
				grows++
			}
			want, seen := ref[src]
			if !seen {
				want = tzBest{src: src, dist: graph.Inf}
				order = append(order, src)
			}
			b := &tab.entries[j]
			if *b != want {
				t.Fatalf("phase %d: upsert(%d) = %+v, want %+v", phase, src, *b, want)
			}
			if d := graph.Dist(rng.IntN(1000)); d < b.dist {
				b.dist = d
				b.queued = !b.queued
			}
			ref[src] = *b
			if 2*len(tab.entries) > len(tab.slots) {
				t.Fatalf("phase %d: %d entries in %d slots, more than half full", phase, len(tab.entries), len(tab.slots))
			}
		}
		if len(tab.entries) != len(order) {
			t.Fatalf("phase %d: %d entries, want %d", phase, len(tab.entries), len(order))
		}
		for j, src := range order {
			if tab.entries[j] != ref[src] {
				t.Fatalf("phase %d: entry %d = %+v, want %+v (insertion order)", phase, j, tab.entries[j], ref[src])
			}
		}
		for _, src := range []int{0, n - 1} {
			if _, ok := ref[src]; !ok {
				t.Fatalf("phase %d: source %d never drawn", phase, src)
			}
		}
		prev = ref
	}
	if grows < 4 {
		t.Errorf("table grew %d times, want several", grows)
	}
}
