package graph

import (
	"slices"
	"strings"
	"testing"
)

// FuzzReadEdgeList: the parser must never panic on arbitrary text, and
// its allocation-free line splitter must agree with strings.Fields.
func FuzzReadEdgeList(f *testing.F) {
	f.Add("p 3 2\ne 0 1 1\ne 1 2 5\n")
	f.Add("p 0 0\n")
	f.Add("# nothing\n")
	f.Add("e 0 1 1\n")
	f.Add("p\u00a02 1\ne 0\u20281\t7 \xff\n")
	f.Fuzz(func(t *testing.T, src string) {
		var dst [4][]byte
		for _, line := range strings.Split(src, "\n") {
			want := strings.Fields(line)
			n := splitFields([]byte(line), dst[:])
			k := min(n, len(dst))
			got := make([]string, k)
			for i := range got {
				got[i] = string(dst[i])
			}
			if n != len(want) || !slices.Equal(got, want[:min(k, len(want))]) {
				t.Errorf("splitFields(%q) = %d %q, want %q", line, n, got, want)
			}
		}
		g, err := ReadEdgeList(strings.NewReader(src))
		if err == nil {
			if g == nil {
				t.Error("nil graph without error")
				return
			}
			if vErr := g.Validate(); vErr != nil {
				t.Errorf("parsed graph invalid: %v", vErr)
			}
		}
	})
}

// FuzzFreeze: the bucketed Freeze must agree with the map-and-sort
// reference on any sequence of AddEdge calls. The first byte picks
// n < 24; each following triple is one call: two ids in [-2, n+2) and a
// weight byte (255 is Inf, 254 is -1, 253 is Inf-1, anything else is
// its value mod 8, so repeated edges differ in weight).
func FuzzFreeze(f *testing.F) {
	f.Add([]byte{4, 2, 3, 5, 3, 2, 3, 2, 3, 9, 4, 5, 1})
	f.Add([]byte{3, 3, 3, 4})
	f.Add([]byte{3, 2, 11, 4})
	f.Add([]byte{3, 2, 3, 254})
	f.Add([]byte{3, 3, 2, 255})
	f.Add([]byte{3, 3, 2, 253})
	f.Add([]byte{0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int(data[0] % 24)
		id := func(c byte) int { return int(c)%(n+4) - 2 }
		var adds []Edge
		for i := 1; i+2 < len(data); i += 3 {
			w := Dist(data[i+2] % 8)
			switch data[i+2] {
			case 255:
				w = Inf
			case 254:
				w = -1
			case 253:
				w = Inf - 1
			}
			adds = append(adds, Edge{U: id(data[i]), V: id(data[i+1]), Weight: w})
		}
		b := NewBuilder(n)
		for _, e := range adds {
			b.AddEdge(e.U, e.V, e.Weight)
		}
		g, err := b.Freeze()
		edges, adj, refErr := refFreeze(n, adds)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("Freeze error %v, reference error %v", err, refErr)
		}
		if err != nil {
			return
		}
		if d := graphDiff(g, edges, adj); d != "" {
			t.Fatal(d)
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
	})
}
