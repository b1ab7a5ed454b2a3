package graph

import (
	"bytes"
	"strings"
	"testing"
)

func TestEdgeListRoundTrip(t *testing.T) {
	for _, f := range AllFamilies() {
		g := Make(f, 40, UniformWeights(1, 99), 3)
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatal(err)
		}
		got, err := ReadEdgeList(&buf)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if got.N() != g.N() || got.M() != g.M() {
			t.Fatalf("%s: size mismatch", f)
		}
		ea, eb := g.Edges(), got.Edges()
		for i := range ea {
			if ea[i] != eb[i] {
				t.Fatalf("%s: edge %d differs: %v vs %v", f, i, ea[i], eb[i])
			}
		}
	}
}

func TestReadEdgeListHandWritten(t *testing.T) {
	src := `
# a triangle with a pendant
p 4 4
e 0 1 5
e 1 2 3
e 2 0 1
e 2 3 10
`
	g, err := ReadEdgeList(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 4 || g.M() != 4 {
		t.Fatalf("n=%d m=%d", g.N(), g.M())
	}
	if w, ok := g.EdgeWeight(2, 3); !ok || w != 10 {
		t.Errorf("edge (2,3) = %d,%v", w, ok)
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := map[string]string{
		"empty":           "",
		"edge-first":      "e 0 1 2\np 2 1\n",
		"bad-problem":     "p x 1\n",
		"short-problem":   "p 4\n",
		"bad-edge":        "p 2 1\ne 0 one 2\n",
		"short-edge":      "p 2 1\ne 0 1\n",
		"count-mismatch":  "p 3 2\ne 0 1 1\n",
		"double-problem":  "p 2 0\np 2 0\n",
		"unknown-record":  "p 2 0\nq 1 2 3\n",
		"self-loop":       "p 2 1\ne 1 1 4\n",
		"out-of-range":    "p 2 1\ne 0 7 4\n",
		"negative-weight": "p 2 1\ne 0 1 -3\n",
	}
	for name, src := range cases {
		if _, err := ReadEdgeList(strings.NewReader(src)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestWriteEdgeListFormat(t *testing.T) {
	g := Path(3, UnitWeights(), 0)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	want := "p 3 2\ne 0 1 1\ne 1 2 1\n"
	if buf.String() != want {
		t.Errorf("got:\n%s\nwant:\n%s", buf.String(), want)
	}
}

// TestReadEdgeListAllocs pins the reader's allocation budget to a
// constant, independent of the line count: the scanner buffer, the edge
// slice sized from the problem line, and Freeze's arrays. A string per
// line (the scanner's Text), splitting a line with strings.Fields, or
// growing the edge slice by doubling exceeds it.
func TestReadEdgeListAllocs(t *testing.T) {
	g := Make(FamilyGeometric, 1024, UniformWeights(1, 100), 1)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := ReadEdgeList(bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	})
	const limit = 16
	if allocs > limit {
		t.Errorf("ReadEdgeList: %.0f allocations for %d lines, want at most %d", allocs, g.M()+1, limit)
	}
}

// BenchmarkReadEdgeList reads a 2048-node geometric graph (weights
// 1–100) from its edge list.
//
// Run with: go test ./internal/graph -run '^$' -bench '^BenchmarkReadEdgeList$'
func BenchmarkReadEdgeList(b *testing.B) {
	g := Make(FamilyGeometric, 2048, UniformWeights(1, 100), 1)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadEdgeList(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}
