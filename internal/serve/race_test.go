package serve

// The concurrent-serving contract, verified under -race: queries keep
// streaming while /update-edge repairs swap the set, every response is
// byte-identical to some committed set version's in-process Query, and
// after the last update the server answers exactly from the final
// version. This is the test that makes the atomic-swap design
// load-bearing rather than decorative.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"

	"distsketch"
)

func TestConcurrentQueryDuringUpdates(t *testing.T) {
	g, err := distsketch.NewRandomWeightedGraph(distsketch.FamilyGeometric, 64, 20, 100, 5)
	if err != nil {
		t.Fatal(err)
	}
	set, err := distsketch.Build(g, distsketch.Options{Kind: distsketch.KindLandmark, Eps: 0.3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}

	// The update schedule: one edge, strictly decreasing weights. Each
	// step is a valid decrease, so every repair must succeed.
	const updates = 6
	edge := g.Edges()[3]
	if edge.Weight <= updates {
		t.Fatalf("edge %v too light for %d decreases", edge, updates)
	}

	// Precompute every version the server will transition through by
	// replaying the schedule in-process; a concurrent reader must observe
	// one of these and nothing else.
	pairs := [][2]int{{0, 63}, {1, 50}, {7, 7}, {12, 33}, {20, 61}, {40, 9}, {63, 31}, {5, 5}, {2, 58}, {44, 13}, {30, 15}, {edge.U, edge.V}}
	allowed := make([]map[distsketch.Dist]bool, len(pairs))
	for i := range allowed {
		allowed[i] = map[distsketch.Dist]bool{}
	}
	replica := set.Clone()
	curG := g
	record := func(s *distsketch.SketchSet) {
		for i, p := range pairs {
			allowed[i][s.Query(p[0], p[1])] = true
		}
	}
	record(replica)
	for k := 1; k <= updates; k++ {
		next, err := curG.Reweighted([]distsketch.Edge{{U: edge.U, V: edge.V, Weight: edge.Weight - distsketch.Dist(k)}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := replica.UpdateEdges(next, []distsketch.EdgeChange{{U: edge.U, V: edge.V}}); err != nil {
			t.Fatalf("replica update %d: %v", k, err)
		}
		curG = next
		record(replica)
	}

	ts := newTestServer(t, set, Options{Graph: g})
	client := &http.Client{}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	report := func(format string, args ...any) {
		select {
		case errs <- fmt.Errorf(format, args...):
		default:
		}
	}

	// Readers: alternate single queries and whole-schedule batches.
	const readers = 6
	const iters = 120
	batchBody := func() string {
		var sb strings.Builder
		sb.WriteString(`{"pairs":[`)
		for i, p := range pairs {
			if i > 0 {
				sb.WriteString(",")
			}
			fmt.Fprintf(&sb, `{"u":%d,"v":%d}`, p[0], p[1])
		}
		sb.WriteString("]}")
		return sb.String()
	}()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				i := (r*iters + it) % len(pairs)
				if it%3 == 0 {
					resp, err := client.Post(ts.URL+"/query", "application/json", strings.NewReader(batchBody))
					if err != nil {
						report("batch: %v", err)
						return
					}
					var reply BatchReply
					err = json.NewDecoder(resp.Body).Decode(&reply)
					resp.Body.Close()
					if err != nil || resp.StatusCode != http.StatusOK {
						report("batch: status %d err %v", resp.StatusCode, err)
						return
					}
					for j, res := range reply.Results {
						if res.Estimate == nil || !allowed[j][*res.Estimate] {
							report("batch pair %v: estimate %v not from any committed version", pairs[j], res.Estimate)
							return
						}
					}
					continue
				}
				p := pairs[i]
				resp, err := client.Get(fmt.Sprintf("%s/query?u=%d&v=%d", ts.URL, p[0], p[1]))
				if err != nil {
					report("query: %v", err)
					return
				}
				var res QueryResult
				err = json.NewDecoder(resp.Body).Decode(&res)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					report("query %v: status %d err %v", p, resp.StatusCode, err)
					return
				}
				if res.Estimate == nil || !allowed[i][*res.Estimate] {
					report("query %v: estimate %v not from any committed version", p, res.Estimate)
					return
				}
			}
		}(r)
	}

	// The writer applies the schedule while the readers hammer.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 1; k <= updates; k++ {
			body := fmt.Sprintf(`{"u":%d,"v":%d,"weight":%d}`, edge.U, edge.V, edge.Weight-distsketch.Dist(k))
			resp, err := client.Post(ts.URL+"/update-edge", "application/json", strings.NewReader(body))
			if err != nil {
				report("update %d: %v", k, err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				report("update %d: status %d", k, resp.StatusCode)
				return
			}
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// After the schedule drains, the server must answer exactly from the
	// final version — byte-identical to the in-process replica.
	for i, p := range pairs {
		resp, err := client.Get(fmt.Sprintf("%s/query?u=%d&v=%d", ts.URL, p[0], p[1]))
		if err != nil {
			t.Fatal(err)
		}
		var res QueryResult
		err = json.NewDecoder(resp.Body).Decode(&res)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		want := replica.Query(p[0], p[1])
		if res.Estimate == nil || *res.Estimate != want {
			t.Errorf("final query %v: got %v, want %d (allowed set %v)", p, res.Estimate, want, allowed[i])
		}
	}
}
