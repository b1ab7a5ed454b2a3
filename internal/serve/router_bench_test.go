package serve

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"testing"
	"time"
)

// BenchmarkRouterFaults prices the replica sets: a 2-shard fleet with two
// replicas per shard answers a fixed sweep of same- and cross-shard
// GET /query pairs while faults are injected. One op is one sweep.
//
//   - baseline: no fault;
//   - one-replica-down: failover keeps availability at 1.0;
//   - replica-set-down: exactly the pairs that avoid the dead range answer;
//   - slow-replica-hedged and slow-replica-no-hedge: one replica answers
//     15 ms late, and the gap between the two p99s is the tail the hedge
//     removes.
func BenchmarkRouterFaults(b *testing.B) {
	const sweep = 100
	full, shards, group := buildReplicatedFixture(b, 2, 2)
	n := full.N()
	pair := func(i int) (int, int) { return i % n, (i*37 + 11) % n }
	avoidDead := 0
	for i := 0; i < sweep; i++ {
		if u, v := pair(i); !shards[0].Range.Contains(u) && !shards[0].Range.Contains(v) {
			avoidDead++
		}
	}
	first, second := hostOf(b, group[0][0]), hostOf(b, group[0][1])
	const slow = 15 * time.Millisecond
	scenarios := []struct {
		name   string
		hedge  time.Duration // zero is the default delay, negative is off
		prep   func(ft *replicaFaultTransport)
		answer int // pairs per sweep that must answer
	}{
		{"baseline", 0, func(*replicaFaultTransport) {}, sweep},
		{"one-replica-down", 0, func(ft *replicaFaultTransport) { ft.setDown(first, true) }, sweep},
		{"replica-set-down", 0, func(ft *replicaFaultTransport) {
			ft.setDown(first, true)
			ft.setDown(second, true)
		}, avoidDead},
		{"slow-replica-hedged", 2 * time.Millisecond, func(ft *replicaFaultTransport) { ft.setDelay(first, slow) }, sweep},
		{"slow-replica-no-hedge", -1, func(ft *replicaFaultTransport) { ft.setDelay(first, slow) }, sweep},
	}
	for _, sc := range scenarios {
		b.Run(sc.name, func(b *testing.B) {
			ft := newReplicaFaultTransport()
			sc.prep(ft)
			_, ts := newFaultRouter(b, shards, RouterOptions{Transport: ft, HedgeDelay: sc.hedge})
			client := ts.Client()
			var lat []time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for q := 0; q < sweep; q++ {
					u, v := pair(q)
					start := time.Now()
					resp, err := client.Get(fmt.Sprintf("%s/query?u=%d&v=%d", ts.URL, u, v))
					if err != nil {
						b.Fatal(err)
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode == http.StatusOK {
						lat = append(lat, time.Since(start))
					}
				}
			}
			b.StopTimer()
			if len(lat) != sc.answer*b.N {
				b.Fatalf("%d of %d queries answered, want %d", len(lat), sweep*b.N, sc.answer*b.N)
			}
			var stats RouterStatsReply
			if code := getJSON(b, ts.URL+"/stats", &stats); code != http.StatusOK {
				b.Fatalf("router stats: status %d", code)
			}
			b.ReportMetric(float64(len(lat))/float64(sweep*b.N), "availability")
			if len(lat) > 0 {
				sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
				b.ReportMetric(float64(lat[len(lat)*99/100].Microseconds())/1e3, "p99-ms")
			}
			b.ReportMetric(float64(stats.Retries)/float64(b.N), "retries/op")
			b.ReportMetric(float64(stats.HedgesFired)/float64(b.N), "hedges/op")
		})
	}
}
