package serve

// Batched /update-edge coverage: the array body applies as ONE
// clone-repair-verify-swap cycle (pinned through the repairHook seam),
// rejections are atomic and carry the typed rebuild_required marker, and
// the /stats repair section accounts for both outcomes.

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"distsketch"
)

// setBytes snapshots every node's wire blob from a sketch set.
func setBytes(t *testing.T, s *distsketch.SketchSet) [][]byte {
	t.Helper()
	out := make([][]byte, s.N())
	for u := 0; u < s.N(); u++ {
		out[u] = bytes.Clone(s.SketchBytes(u))
	}
	return out
}

// TestUpdateEdgeBatchOneCloneOneSwap is the serving acceptance pin: a
// 64-edge batch pays exactly one set clone and one atomic pointer swap,
// and the swapped-in set is byte-identical to a fresh rebuild on the
// mutated topology.
func TestUpdateEdgeBatchOneCloneOneSwap(t *testing.T) {
	set, g := buildSet(t)
	srv, err := New(set, Options{Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	var stages []string
	srv.repairHook = func(stage string) { stages = append(stages, stage) }
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var edits []distsketch.Edge
	var reqs []string
	for _, e := range g.Edges() {
		if len(reqs) == 64 {
			break
		}
		if e.Weight < 2 {
			continue
		}
		nw := e.Weight / 2
		edits = append(edits, distsketch.Edge{U: e.U, V: e.V, Weight: nw})
		reqs = append(reqs, fmt.Sprintf(`{"u":%d,"v":%d,"weight":%d}`, e.U, e.V, nw))
	}
	if len(reqs) != 64 {
		t.Fatalf("test graph yielded only %d usable edges, want 64", len(reqs))
	}
	body := "[" + strings.Join(reqs, ",") + "]"

	var upd UpdateReply
	if code := postJSON(t, ts.URL+"/update-edge", body, &upd); code != http.StatusOK {
		t.Fatalf("batch update: status %d, want 200", code)
	}
	if upd.EdgesApplied != 64 {
		t.Errorf("edges applied %d, want 64", upd.EdgesApplied)
	}
	if upd.LabelsReplaced+upd.LabelsShared != set.N() {
		t.Errorf("replaced %d + shared %d != %d nodes", upd.LabelsReplaced, upd.LabelsShared, set.N())
	}
	// The acceptance contract: the whole batch is one clone and one swap.
	if len(stages) != 2 || stages[0] != "clone" || stages[1] != "swap" {
		t.Fatalf("repair stages %v, want exactly [clone swap]", stages)
	}

	// The served set must be the exact rebuild on the mutated topology.
	ng, err := g.Reweighted(edits)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := distsketch.Build(ng, distsketch.Options{Kind: distsketch.KindLandmark, Eps: 0.25, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	want := setBytes(t, rebuilt)
	served := srv.Set()
	for u := 0; u < served.N(); u++ {
		if !bytes.Equal(served.SketchBytes(u), want[u]) {
			t.Fatalf("node %d: served sketch differs from fresh rebuild", u)
		}
	}

	var st StatsReply
	if code := getJSON(t, ts.URL+"/stats", &st); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	if st.Repair.Batches != 1 || st.Repair.Edges != 64 {
		t.Errorf("stats repair: %d batches / %d edges, want 1 / 64", st.Repair.Batches, st.Repair.Edges)
	}
	if st.Repair.RebuildRejected != 0 {
		t.Errorf("stats repair: %d rebuild rejections, want 0", st.Repair.RebuildRejected)
	}
	if got := st.Repair.EdgesByKind[string(set.Kind())]; got != 64 {
		t.Errorf("stats repair edges_by_kind[%s] = %d, want 64", set.Kind(), got)
	}
	if int(st.Repair.LabelsReplaced) != upd.LabelsReplaced || int(st.Repair.LabelsShared) != upd.LabelsShared {
		t.Errorf("stats repair label counters %d/%d disagree with reply %d/%d",
			st.Repair.LabelsReplaced, st.Repair.LabelsShared, upd.LabelsReplaced, upd.LabelsShared)
	}
}

// TestUpdateEdgeBatchRejectsAtomically: a batch the repair cannot verify
// (a weight increase on a CDG set) answers 422 with the typed
// rebuild_required marker, never swaps (the clone stage ran, the swap
// stage did not), and leaves the served set pointer- and byte-identical.
func TestUpdateEdgeBatchRejectsAtomically(t *testing.T) {
	g, err := distsketch.NewRandomWeightedGraph(distsketch.FamilyGeometric, 48, 5, 50, 9)
	if err != nil {
		t.Fatal(err)
	}
	set, err := distsketch.Build(g, distsketch.Options{Kind: distsketch.KindCDG, K: 2, Eps: 0.25, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(set, Options{Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	var stages []string
	srv.repairHook = func(stage string) { stages = append(stages, stage) }
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	before := setBytes(t, set)
	e1, e2 := g.Edges()[0], g.Edges()[g.M()/2]
	// One repairable decrease plus one increase: the batch must reject as
	// a whole — no partial application.
	body := fmt.Sprintf(`[{"u":%d,"v":%d,"weight":%d},{"u":%d,"v":%d,"weight":%d}]`,
		e1.U, e1.V, 1, e2.U, e2.V, e2.Weight+10)
	var er errorReply
	if code := postJSON(t, ts.URL+"/update-edge", body, &er); code != http.StatusUnprocessableEntity {
		t.Fatalf("unsound batch: status %d, want 422", code)
	}
	if !er.RebuildRequired {
		t.Errorf("422 reply missing rebuild_required: %+v", er)
	}
	if er.Error == "" {
		t.Errorf("422 reply has empty error text")
	}
	if len(stages) != 1 || stages[0] != "clone" {
		t.Errorf("repair stages %v, want [clone] only (no swap on rejection)", stages)
	}
	if srv.Set() != set {
		t.Fatalf("rejected batch swapped the served set")
	}
	after := setBytes(t, srv.Set())
	for u := range before {
		if !bytes.Equal(before[u], after[u]) {
			t.Fatalf("node %d: rejected batch changed served bytes", u)
		}
	}

	var st StatsReply
	if code := getJSON(t, ts.URL+"/stats", &st); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	if st.Repair.Batches != 0 || st.Repair.Edges != 0 || st.Repair.RebuildRejected != 1 {
		t.Errorf("stats repair after rejection: %d batches / %d edges / %d rejected, want 0 / 0 / 1",
			st.Repair.Batches, st.Repair.Edges, st.Repair.RebuildRejected)
	}
}

// TestUpdateEdgeBatchDedupLastWins: repeats of an edge inside one batch
// collapse to the last-written weight (the batch behaves like applying
// its changes in order), and the follow-up idempotent retry is a no-op.
func TestUpdateEdgeBatchDedupLastWins(t *testing.T) {
	set, g := buildSet(t)
	ts := newTestServer(t, set, Options{Graph: g})
	e := g.Edges()[0]
	if e.Weight < 4 {
		t.Fatalf("first edge weight %d too small for the test", e.Weight)
	}
	// Same edge three times, both endpoint orders; only the final weight
	// counts, as one applied change.
	body := fmt.Sprintf(`[{"u":%d,"v":%d,"weight":%d},{"u":%d,"v":%d,"weight":%d},{"u":%d,"v":%d,"weight":%d}]`,
		e.U, e.V, e.Weight-1, e.V, e.U, e.Weight-2, e.U, e.V, e.Weight-3)
	var upd UpdateReply
	if code := postJSON(t, ts.URL+"/update-edge", body, &upd); code != http.StatusOK {
		t.Fatalf("dedup batch: status %d, want 200", code)
	}
	if upd.EdgesApplied != 1 {
		t.Errorf("dedup batch applied %d edges, want 1", upd.EdgesApplied)
	}
	// Retrying the winning weight alone must be the idempotent no-op.
	body = fmt.Sprintf(`[{"u":%d,"v":%d,"weight":%d}]`, e.U, e.V, e.Weight-3)
	upd = UpdateReply{}
	if code := postJSON(t, ts.URL+"/update-edge", body, &upd); code != http.StatusOK || upd.EdgesApplied != 0 {
		t.Errorf("idempotent retry: status %d, applied %d; want 200, 0", code, upd.EdgesApplied)
	}
}
