package congest

import (
	"testing"

	"distsketch/internal/graph"
)

func TestTraceSumsToTotals(t *testing.T) {
	g := graph.Make(graph.FamilyER, 48, graph.UnitWeights(), 4)
	nodes := make([]Node, g.N())
	for i := range nodes {
		nodes[i] = &floodNode{}
	}
	e := NewEngine(g, nodes, Config{Trace: true})
	if _, err := e.RunUntilQuiescent(); err != nil {
		t.Fatal(err)
	}
	tr := e.Trace()
	if len(tr) == 0 {
		t.Fatal("no trace")
	}
	var msgs, words int64
	for i, p := range tr {
		if p.Round != i {
			t.Fatalf("trace entry %d has round %d", i, p.Round)
		}
		msgs += p.Messages
		words += p.Words
	}
	if msgs != e.Stats().Messages || words != e.Stats().Words {
		t.Errorf("trace sums (%d,%d) != stats (%d,%d)",
			msgs, words, e.Stats().Messages, e.Stats().Words)
	}
}

func TestTraceDisabledByDefault(t *testing.T) {
	g := graph.Path(4, graph.UnitWeights(), 0)
	nodes := make([]Node, 4)
	for i := range nodes {
		nodes[i] = &floodNode{}
	}
	e := NewEngine(g, nodes, Config{})
	if _, err := e.RunUntilQuiescent(); err != nil {
		t.Fatal(err)
	}
	if e.Trace() != nil {
		t.Error("trace recorded without Config.Trace")
	}
}

func TestTraceAsync(t *testing.T) {
	g := graph.Path(8, graph.UnitWeights(), 0)
	nodes := make([]Node, 8)
	for i := range nodes {
		nodes[i] = &floodNode{}
	}
	e := NewEngine(g, nodes, Config{Trace: true, MaxDelay: 3, Seed: 5})
	if _, err := e.RunUntilQuiescent(); err != nil {
		t.Fatal(err)
	}
	var msgs int64
	for _, p := range e.Trace() {
		msgs += p.Messages
	}
	if msgs != e.Stats().Messages {
		t.Errorf("async trace sums %d != %d", msgs, e.Stats().Messages)
	}
}
