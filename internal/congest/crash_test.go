package congest

import (
	"testing"

	"distsketch/internal/graph"
)

func TestCrashStopsExecution(t *testing.T) {
	// Flood on a path with the middle node crashed before the wave
	// arrives: the far side must never learn a distance.
	g := graph.Path(5, graph.UnitWeights(), 0)
	nodes := make([]Node, 5)
	for i := range nodes {
		nodes[i] = &floodNode{}
	}
	e := NewEngine(g, nodes, Config{})
	e.Crash(2)
	if _, err := e.RunUntilQuiescent(); err != nil {
		t.Fatal(err)
	}
	if d := e.Node(1).(*floodNode).dist; d != 1 {
		t.Errorf("node 1 dist = %d, want 1", d)
	}
	for _, v := range []int{3, 4} {
		if d := e.Node(v).(*floodNode).dist; d != -1 {
			t.Errorf("node %d behind the crash learned dist %d", v, d)
		}
	}
	if !e.Crashed(2) {
		t.Error("Crashed(2) = false")
	}
}

func TestCrashMidRun(t *testing.T) {
	// Crash after the wave passed: no effect on already-learned state.
	g := graph.Path(5, graph.UnitWeights(), 0)
	nodes := make([]Node, 5)
	for i := range nodes {
		nodes[i] = &floodNode{}
	}
	e := NewEngine(g, nodes, Config{})
	if err := e.RunRounds(10); err != nil {
		t.Fatal(err)
	}
	e.Crash(2)
	if _, err := e.RunUntilQuiescent(); err != nil {
		t.Fatal(err)
	}
	if d := e.Node(4).(*floodNode).dist; d != 4 {
		t.Errorf("node 4 dist = %d, want 4", d)
	}
}

func TestCrashedWakeIgnored(t *testing.T) {
	g := graph.Path(2, graph.UnitWeights(), 0)
	n0 := &wakeNode{limit: 1 << 20}
	e := NewEngine(g, []Node{n0, &wakeNode{}}, Config{MaxRounds: 3 + 100})
	if err := e.RunRounds(3); err != nil {
		t.Fatal(err)
	}
	e.Crash(0)
	rounds, err := e.RunUntilQuiescent()
	if err != nil {
		t.Fatalf("crashed waker must not livelock: %v", err)
	}
	if rounds > 2 {
		t.Errorf("took %d rounds to quiesce after crash", rounds)
	}
}

func TestCrashAsyncDropsInFlight(t *testing.T) {
	// Async mode: messages already in flight toward a node that crashes
	// are dropped at delivery, not executed.
	g := graph.Path(3, graph.UnitWeights(), 0)
	nodes := []Node{&floodNode{}, &floodNode{}, &floodNode{}}
	e := NewEngine(g, nodes, Config{MaxDelay: 6, Seed: 2})
	e.Crash(1)
	if _, err := e.RunUntilQuiescent(); err != nil {
		t.Fatal(err)
	}
	if d := e.Node(2).(*floodNode).dist; d != -1 {
		t.Errorf("node 2 learned %d through a crashed relay", d)
	}
}
