// Package core implements the paper's contribution: CONGEST-model
// distributed algorithms for constructing distance sketches.
//
//   - BuildTZ: the distributed Thorup–Zwick construction of Section 3
//     (Algorithm 2 run in phases k-1 .. 0), under three synchronization
//     modes: omniscient (engine-level phase barriers), analytic (fixed
//     phase lengths from the Theorem 3.8 bound, requires knowing S), and
//     detection (the full Section 3.3 ECHO/COMPLETE protocol over a BFS
//     tree, requiring no global knowledge).
//   - BuildLandmark: the stretch-3 ε-slack landmark sketches of
//     Theorem 4.3 (density net + k-source Bellman–Ford).
//   - BuildCDG: the (ε,k)-CDG sketches of Theorem 4.6 (density net,
//     "super node" Bellman–Ford, Thorup–Zwick over the net, and label
//     shipping down the net's Voronoi forest).
//   - BuildGraceful: the gracefully degrading sketches of Theorem 4.8
//     (one CDG instance per ε = 2^{-i}).
//
// All constructions draw their coins from the per-node streams in package
// sketch, so the centralized references in package tz reproduce them
// exactly — the strongest correctness check available (experiment E12).
package core

import (
	"distsketch/internal/congest"
	"distsketch/internal/graph"
)

// SyncMode selects how phase boundaries are synchronized (Section 3.3;
// cmd/sketchbench's E6 compares the modes' rounds and messages).
type SyncMode int

const (
	// SyncOmniscient ends each phase exactly when the network quiesces,
	// using engine-level omniscience. This measures the true propagation
	// cost of each phase — the quantity Theorem 3.8 bounds — without
	// charging for synchronization machinery.
	SyncOmniscient SyncMode = iota
	// SyncAnalytic runs each phase for a fixed number of rounds computed
	// from the Theorem 3.8 phase bound c·max(1, n^{1/k}·ln n)·S. This is
	// the paper's "every node knows S" variant (Section 3.2). The runner
	// verifies the network actually quiesced within the bound.
	SyncAnalytic
	// SyncDetection uses the Section 3.3 termination-detection protocol:
	// a BFS tree rooted at a leader, per-message ECHOs, and a
	// COMPLETE/START convergecast-broadcast per phase. Requires no global
	// knowledge beyond n.
	SyncDetection
)

func (m SyncMode) String() string {
	switch m {
	case SyncOmniscient:
		return "omniscient"
	case SyncAnalytic:
		return "analytic"
	case SyncDetection:
		return "detection"
	default:
		return "unknown"
	}
}

// CostBreakdown separates the total cost into the paper's accounting
// categories, enabling the E6 overhead measurement.
type CostBreakdown struct {
	Total congest.Stats
	// Data counts Bellman–Ford data messages only.
	DataMessages int64
	// Echo counts Section 3.3 ECHO messages (zero outside detection mode).
	EchoMessages int64
	// Control counts BFS setup, COMPLETE, START and FINISH messages.
	ControlMessages int64
	// PerPhase[i] is the cost of phase i (index = phase number).
	PerPhase []congest.Stats
	// SetupRounds is the leader-election/BFS-tree prologue (detection).
	SetupRounds int
}

// message kinds shared by the core protocols.
type dataMsg struct {
	Phase int
	Src   int
	Dist  graph.Dist
}

func (dataMsg) Words() int { return 3 }

// srcDist is one announcement inside a batched data message.
type srcDist struct {
	Src  int
	Dist graph.Dist
}

// dataBatchMsg carries several announcements in one message — the paper's
// bandwidth generalization ("if B bits are allowed to be sent through
// each edge in a round"; Section 2.2). A batch of b announcements costs
// 1 + 2b words.
type dataBatchMsg struct {
	Phase int
	Items []srcDist
}

func (m dataBatchMsg) Words() int { return 1 + 2*len(m.Items) }

type echoMsg struct {
	Phase int
	Src   int
	Dist  graph.Dist // copy of the echoed message's distance
}

func (echoMsg) Words() int { return 3 }

type bfsMsg struct{}

func (bfsMsg) Words() int { return 1 }

type bfsReplyMsg struct{ Accept bool }

func (bfsReplyMsg) Words() int { return 1 }

type bfsDoneMsg struct{}

func (bfsDoneMsg) Words() int { return 1 }

type startMsg struct{ Phase int }

func (startMsg) Words() int { return 2 }

type completeMsg struct{ Phase int }

func (completeMsg) Words() int { return 2 }

type finishMsg struct{}

func (finishMsg) Words() int { return 1 }

// Super-node Bellman–Ford wave (Lemma 4.5): distance to the nearest
// density-net node plus that node's identity.
type netWaveMsg struct {
	Dist graph.Dist
	Src  int
}

func (netWaveMsg) Words() int { return 2 }

// Label-shipping chunk: one pivot or bunch entry of a net node's TZ label,
// streamed down the net's Voronoi tree (see cdg.go).
type labelChunkMsg struct {
	Seq   int // chunk index
	Kind  byte
	Node  int
	Dist  graph.Dist
	Level int
}

func (labelChunkMsg) Words() int { return 5 }

type labelEndMsg struct{ Total int }

func (labelEndMsg) Words() int { return 2 }
