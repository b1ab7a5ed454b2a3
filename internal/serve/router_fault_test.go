package serve

// Fault injection for the replicated router tier, in the style of
// fault_test.go: every scenario an operator will meet — a replica
// dying mid-batch, a slow replica losing the hedge race, a whole
// replica set down, a flapping replica ejected and reinstated, the
// shard map refreshed under live traffic — is pinned under -race with
// the invariant that matters: the router may degrade loudly, but it
// never serves a wrong answer.

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"distsketch"
)

// replicaFaultTransport is the fault-injection seam for router tests:
// per-host it can refuse connections (down), refuse after the first n
// requests pass (passCap — a replica dying mid-batch), delay responses
// (a slow replica for hedge races), or rewrite its 200 POST /sketch
// replies (mangle — a replica answering a broken frame format). Every
// request's host and path is logged so tests can assert which replicas
// served traffic.
type replicaFaultTransport struct {
	mu      sync.Mutex
	hosts   []string
	paths   []string
	down    map[string]bool
	passCap map[string]int
	delay   map[string]time.Duration
	mangle  map[string]func([]byte) []byte
}

func newReplicaFaultTransport() *replicaFaultTransport {
	return &replicaFaultTransport{
		down:    map[string]bool{},
		passCap: map[string]int{},
		delay:   map[string]time.Duration{},
		mangle:  map[string]func([]byte) []byte{},
	}
}

func (ft *replicaFaultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	host := req.URL.Host
	ft.mu.Lock()
	ft.hosts = append(ft.hosts, host)
	ft.paths = append(ft.paths, req.URL.Path)
	isDown := ft.down[host]
	if n, ok := ft.passCap[host]; ok {
		if n <= 0 {
			isDown = true
		} else {
			ft.passCap[host] = n - 1
		}
	}
	d := ft.delay[host]
	mangle := ft.mangle[host]
	ft.mu.Unlock()
	if isDown {
		return nil, fmt.Errorf("injected fault: %s is down", host)
	}
	if d > 0 {
		select {
		case <-req.Context().Done():
			return nil, req.Context().Err()
		case <-time.After(d):
		}
	}
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil || mangle == nil || req.URL.Path != "/sketch" || resp.StatusCode != http.StatusOK {
		return resp, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	out := mangle(raw)
	resp.Body = io.NopCloser(bytes.NewReader(out))
	resp.ContentLength = int64(len(out))
	resp.Header.Del("Content-Length")
	return resp, nil
}

func (ft *replicaFaultTransport) setDown(host string, down bool) {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	ft.down[host] = down
}

func (ft *replicaFaultTransport) setDelay(host string, d time.Duration) {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	ft.delay[host] = d
}

func (ft *replicaFaultTransport) setPassCap(host string, n int) {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	ft.passCap[host] = n
}

func (ft *replicaFaultTransport) setMangle(host string, mangle func([]byte) []byte) {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	ft.mangle[host] = mangle
}

func (ft *replicaFaultTransport) mark() int {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	return len(ft.hosts)
}

// queryHostsSince returns the distinct hosts that served query traffic
// (/query or /sketch) since mark — probe traffic (/healthz, /stats) is
// excluded, so ejection tests can assert an ejected replica gets probes
// but no queries.
func (ft *replicaFaultTransport) queryHostsSince(mark int) map[string]bool {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	out := map[string]bool{}
	for i := mark; i < len(ft.hosts); i++ {
		p := ft.paths[i]
		if p == "/query" || p == "/sketch" {
			out[ft.hosts[i]] = true
		}
	}
	return out
}

// requestsSince counts all upstream requests since mark.
func (ft *replicaFaultTransport) requestsSince(mark int) int {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	return len(ft.hosts) - mark
}

func hostOf(t testing.TB, base string) string {
	t.Helper()
	u, err := url.Parse(base)
	if err != nil {
		t.Fatal(err)
	}
	return u.Host
}

// buildReplicatedFixture builds the 100-node fixture sharded `shards`
// ways and starts `nReplicas` independent servers per shard, each with
// its own mmap handle on the same shard envelope — byte-identical
// replicas, exactly what a replica set promises. Returns the full set,
// the RouterShard groups, and the per-shard replica base URLs.
func buildReplicatedFixture(t testing.TB, shards, nReplicas int) (*distsketch.SketchSet, []RouterShard, [][]string) {
	t.Helper()
	full, bases, ranges := buildShardedFixture(t, shards)
	group := make([][]string, shards)
	rshards := make([]RouterShard, shards)
	for i := range bases {
		group[i] = []string{bases[i]}
	}
	// Additional replicas: a fresh server per shard envelope. They live
	// on distinct ports, so fault injection can target one replica.
	dir := t.TempDir()
	paths, err := distsketch.SaveShards(dir, full, ranges)
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r < nReplicas; r++ {
		for i, path := range paths {
			shard, err := distsketch.OpenSketchSet(path)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { shard.Close() })
			srv, err := New(shard, Options{})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv.Handler())
			t.Cleanup(ts.Close)
			group[i] = append(group[i], ts.URL)
		}
	}
	for i := range rshards {
		rshards[i] = RouterShard{Replicas: group[i], Range: ranges[i]}
	}
	return full, rshards, group
}

// newFaultRouter builds a router with fast fault-test tunings layered
// under the caller's overrides and mounts it on a test server.
func newFaultRouter(t testing.TB, shards []RouterShard, opts RouterOptions) (*Router, *httptest.Server) {
	t.Helper()
	if opts.Logger == nil {
		opts.Logger = discardLogger()
	}
	if opts.RetryBackoff == 0 {
		opts.RetryBackoff = time.Millisecond
	}
	rt, err := NewRouter(shards, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)
	return rt, ts
}

// crossBatchBody builds a batch of cross-shard pairs (i, n-1-i) on a
// 2-shard split — every pair needs one sketch from each shard, so the
// batch makes exactly one POST /sketch to each replica group and a
// fault injected into either group lands inside the batch.
func crossBatchBody(n, pairs int) string {
	items := make([]string, 0, pairs)
	for i := 0; i < pairs; i++ {
		items = append(items, fmt.Sprintf(`{"u":%d,"v":%d}`, i, n-1-i))
	}
	return `{"pairs":[` + strings.Join(items, ",") + `]}`
}

// batchBaseline answers a batch body from a direct full-set server, the
// truth routed answers must match byte for byte.
func batchBaseline(t *testing.T, full *distsketch.SketchSet, body string) []string {
	t.Helper()
	heapSrv := newTestServer(t, full, Options{})
	var reply BatchReply
	if code := postJSON(t, heapSrv.URL+"/query", body, &reply); code != http.StatusOK {
		t.Fatalf("baseline batch: status %d", code)
	}
	out := make([]string, len(reply.Results))
	for i := range reply.Results {
		b, _ := json.Marshal(reply.Results[i])
		out[i] = string(b)
	}
	return out
}

// requireBatchMatches posts body to the router and requires every
// result byte-identical to the baseline — zero errors, zero wrong
// answers.
func requireBatchMatches(t *testing.T, routerURL, body string, baseline []string) {
	t.Helper()
	var reply BatchReply
	if code := postJSON(t, routerURL+"/query", body, &reply); code != http.StatusOK {
		t.Fatalf("routed batch: status %d", code)
	}
	if len(reply.Results) != len(baseline) {
		t.Fatalf("routed batch: %d results, want %d", len(reply.Results), len(baseline))
	}
	for i := range reply.Results {
		b, _ := json.Marshal(reply.Results[i])
		if string(b) != baseline[i] {
			t.Fatalf("pair %d: routed %s != baseline %s", i, b, baseline[i])
		}
	}
}

// TestRouterReplicaFailoverMidBatch kills one replica of a group as the
// batch reaches it: the batch's first request to it is refused. Every
// pair must still answer byte-identical to a direct full-set server —
// failover is invisible to the client — and the failover must be
// visible in /stats (retries and the dead replica's failures moved).
func TestRouterReplicaFailoverMidBatch(t *testing.T) {
	full, shards, group := buildReplicatedFixture(t, 2, 2)
	ft := newReplicaFaultTransport()
	rt, ts := newFaultRouter(t, shards, RouterOptions{Transport: ft, HedgeDelay: 5 * time.Millisecond})

	body := crossBatchBody(full.N(), 20)
	baseline := batchBaseline(t, full, body)

	// The first replica of shard 0 — the group's first candidate on a
	// fresh router — dies before the batch's first request to it.
	victim := hostOf(t, group[0][0])
	ft.setPassCap(victim, 0)

	requireBatchMatches(t, ts.URL, body, baseline)

	var stats RouterStatsReply
	if code := getJSON(t, ts.URL+"/stats", &stats); code != http.StatusOK {
		t.Fatalf("router stats: status %d", code)
	}
	if stats.Retries == 0 && stats.HedgesFired == 0 {
		t.Error("failover left no trace: retries and hedges_fired both zero")
	}
	var victimFailures int64
	for _, sh := range stats.Shards {
		for _, rep := range sh.Replicas {
			if hostOf(t, rep.Base) == victim {
				victimFailures = rep.Failures
			}
		}
	}
	if victimFailures == 0 {
		t.Error("dead replica's failure counter did not move")
	}
	if rt.TotalNodes() != full.N() {
		t.Fatalf("TotalNodes = %d, want %d", rt.TotalNodes(), full.N())
	}
}

// TestRouterHedgeSlowReplica pins the hedge race: one replica of a
// two-replica shard answers slowly, so queries landing on it first are
// hedged to the fast replica, which wins. The slow replica is slow,
// not broken — it must not be ejected by lost races.
func TestRouterHedgeSlowReplica(t *testing.T) {
	_, shards, group := buildReplicatedFixture(t, 1, 2)
	ft := newReplicaFaultTransport()
	_, ts := newFaultRouter(t, shards, RouterOptions{Transport: ft, HedgeDelay: 10 * time.Millisecond})

	slow := hostOf(t, group[0][0])
	ft.setDelay(slow, 300*time.Millisecond)

	// Rotation alternates the primary, so across several queries the
	// slow replica leads at least once and loses the race.
	for i := 0; i < 6; i++ {
		resp, err := http.Get(fmt.Sprintf("%s/query?u=%d&v=%d", ts.URL, i, i+10))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d: status %d", i, resp.StatusCode)
		}
	}
	var stats RouterStatsReply
	if code := getJSON(t, ts.URL+"/stats", &stats); code != http.StatusOK {
		t.Fatalf("router stats: status %d", code)
	}
	if stats.HedgesFired == 0 {
		t.Error("no hedge fired against the slow replica")
	}
	if stats.HedgesWon == 0 {
		t.Error("no hedge won against the slow replica")
	}
	for _, sh := range stats.Shards {
		for _, rep := range sh.Replicas {
			if !rep.Healthy {
				t.Errorf("replica %s ejected by lost hedge races (failures=%d)", rep.Base, rep.Failures)
			}
		}
	}
}

// TestRouterRequestDeadlineSparesReplica pins that the router's own
// request deadline is not charged to the replica it cut off: the
// replica is slower than the request budget, not failing, and with
// FailThreshold 1 a single charged failure would eject it.
func TestRouterRequestDeadlineSparesReplica(t *testing.T) {
	_, shards, group := buildReplicatedFixture(t, 1, 1)
	ft := newReplicaFaultTransport()
	_, ts := newFaultRouter(t, shards, RouterOptions{
		Transport:      ft,
		RequestTimeout: 30 * time.Millisecond,
		FailThreshold:  1,
	})
	ft.setDelay(hostOf(t, group[0][0]), 300*time.Millisecond)

	resp, err := http.Get(ts.URL + "/query?u=0&v=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("query answered 200 although its deadline expired before the replica replied")
	}
	var stats RouterStatsReply
	if code := getJSON(t, ts.URL+"/stats", &stats); code != http.StatusOK {
		t.Fatalf("router stats: status %d", code)
	}
	rep := stats.Shards[0].Replicas[0]
	if rep.Failures != 0 || !rep.Healthy {
		t.Errorf("replica charged for the router's own deadline: failures=%d healthy=%v", rep.Failures, rep.Healthy)
	}
	if stats.UpstreamErrors != 0 {
		t.Errorf("upstream_errors = %d, want 0: the deadline is the router's, not the upstream's", stats.UpstreamErrors)
	}
}

// TestRouterMalformedSketchFrames has the first replica of each group
// answer POST /sketch with a broken frame format. Each break must count
// as that replica's fault and be retried on the honest replica: routed
// answers stay byte-identical, nothing panics, and only the mangling
// replicas' failures move.
func TestRouterMalformedSketchFrames(t *testing.T) {
	full, shards, group := buildReplicatedFixture(t, 2, 2)
	body := crossBatchBody(full.N(), 20)
	baseline := batchBaseline(t, full, body)
	heapSrv := newTestServer(t, full, Options{})
	const nodesBody = `{"nodes":[0,99,1,98,50,49,0]}`
	_, wantFrames := postRaw(t, heapSrv.URL+"/sketch", nodesBody)

	frames := func(b []byte) [][]byte { // b is a well-formed reply
		var out [][]byte
		for len(b) > 0 {
			n, k := binary.Uvarint(b)
			out = append(out, b[k:k+int(n)])
			b = b[k+int(n):]
		}
		return out
	}
	join := func(blobs [][]byte) []byte {
		var buf bytes.Buffer
		for _, b := range blobs {
			writeSketchFrame(&buf, b)
		}
		return buf.Bytes()
	}
	cases := []struct {
		name   string
		mangle func([]byte) []byte
	}{
		{"last frame cut short", func(b []byte) []byte { return b[:len(b)-1] }},
		{"trailing byte", func(b []byte) []byte { return append(b, 0) }},
		{"missing frame", func(b []byte) []byte { f := frames(b); return join(f[:len(f)-1]) }},
		{"extra frame", func(b []byte) []byte { f := frames(b); return join(append(f, f[0])) }},
		{"empty body", func([]byte) []byte { return nil }},
		{"huge length", func([]byte) []byte { return binary.AppendUvarint(nil, 1<<62) }},
		{"uvarint overflow", func([]byte) []byte { return bytes.Repeat([]byte{0xff}, 11) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ft := newReplicaFaultTransport()
			bad := map[string]bool{}
			for _, g := range group {
				bad[hostOf(t, g[0])] = true
				ft.setMangle(hostOf(t, g[0]), c.mangle)
			}
			_, ts := newFaultRouter(t, shards, RouterOptions{Transport: ft, HedgeDelay: -1})

			// A fresh router leads each group with its first replica, so
			// the batch's fetches meet the mangler; the rotation sends one
			// of the two POST /sketch calls per group there as well. Only
			// a rejected mangled reply can charge a failure, so the
			// failure counts below prove the mangler was hit.
			requireBatchMatches(t, ts.URL, body, baseline)
			for i := 0; i < 2; i++ {
				if code, raw := postRaw(t, ts.URL+"/sketch", nodesBody); code != http.StatusOK || !bytes.Equal(raw, wantFrames) {
					t.Fatalf("routed POST /sketch %d: status %d, frames differ from a full server's: %v", i, code, !bytes.Equal(raw, wantFrames))
				}
			}
			var stats RouterStatsReply
			if code := getJSON(t, ts.URL+"/stats", &stats); code != http.StatusOK {
				t.Fatalf("router stats: status %d", code)
			}
			if stats.PanicsRecovered != 0 {
				t.Errorf("panics_recovered = %d, want 0", stats.PanicsRecovered)
			}
			for _, sh := range stats.Shards {
				for _, rep := range sh.Replicas {
					if mangling := bad[hostOf(t, rep.Base)]; mangling != (rep.Failures > 0) {
						t.Errorf("replica %s (mangling=%v) has %d failures", rep.Base, mangling, rep.Failures)
					}
				}
			}
		})
	}
}

// TestRouterAllReplicasDown is today's TestRouterShardDown contract
// lifted to replica sets: with every replica of one shard down, pairs
// owned by live shards keep answering, pairs touching the dead group
// fail loudly (502 single, per-pair errors in a batch), and the
// upstream-error counter moves. Availability degrades exactly as a
// single dead shard always has — never silently.
func TestRouterAllReplicasDown(t *testing.T) {
	_, shards, group := buildReplicatedFixture(t, 4, 2)
	ft := newReplicaFaultTransport()
	for _, base := range group[2] {
		ft.setDown(hostOf(t, base), true)
	}
	_, ts := newFaultRouter(t, shards, RouterOptions{Transport: ft, HedgeDelay: 2 * time.Millisecond})

	ranges := make([]distsketch.ShardRange, len(shards))
	for i := range shards {
		ranges[i] = shards[i].Range
	}
	resp, err := http.Get(fmt.Sprintf("%s/query?u=%d&v=%d", ts.URL, ranges[0].Lo, ranges[0].Lo+1))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("live-shard query: status %d", resp.StatusCode)
	}
	resp, err = http.Get(fmt.Sprintf("%s/query?u=%d&v=%d", ts.URL, ranges[2].Lo, ranges[2].Lo+1))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("dead-group query: status %d, want 502", resp.StatusCode)
	}
	body := fmt.Sprintf(`{"pairs":[{"u":%d,"v":%d},{"u":%d,"v":%d},{"u":%d,"v":%d}]}`,
		ranges[0].Lo, ranges[0].Lo+1, // live
		ranges[2].Lo, ranges[2].Lo+1, // dead group
		ranges[1].Lo, ranges[3].Lo) // cross, both live
	var batch BatchReply
	if code := postJSON(t, ts.URL+"/query", body, &batch); code != http.StatusOK {
		t.Fatalf("mixed batch: status %d", code)
	}
	if batch.Results[0].Error != "" {
		t.Errorf("live pair errored: %s", batch.Results[0].Error)
	}
	if batch.Results[1].Error == "" {
		t.Error("dead-group pair did not error")
	}
	if batch.Results[2].Error != "" {
		t.Errorf("cross live pair errored: %s", batch.Results[2].Error)
	}
	var stats RouterStatsReply
	if code := getJSON(t, ts.URL+"/stats", &stats); code != http.StatusOK {
		t.Fatalf("router stats: status %d", code)
	}
	if stats.UpstreamErrors == 0 {
		t.Error("upstream_errors did not move with a whole replica set down")
	}
	if stats.Retries == 0 {
		t.Error("retries did not move: the router gave up without trying the other replica")
	}
}

// TestRouterFlapEjectReinstate drives the health prober: a replica
// that starts refusing connections is ejected after consecutive
// failures (query traffic then avoids it — probes are the only
// requests it sees), and once it recovers, consecutive probe successes
// reinstate it into the rotation.
func TestRouterFlapEjectReinstate(t *testing.T) {
	_, shards, group := buildReplicatedFixture(t, 1, 2)
	ft := newReplicaFaultTransport()
	rt, ts := newFaultRouter(t, shards, RouterOptions{
		Transport:      ft,
		HedgeDelay:     -1, // isolate the prober's ejection, no hedge noise
		ProbeInterval:  10 * time.Millisecond,
		FailThreshold:  2,
		ReinstateAfter: 2,
	})

	flapper := hostOf(t, group[0][0])
	healthOf := func(host string) (healthy bool, found bool) {
		var stats RouterStatsReply
		if code := getJSON(t, ts.URL+"/stats", &stats); code != http.StatusOK {
			t.Fatalf("router stats: status %d", code)
		}
		for _, sh := range stats.Shards {
			for _, rep := range sh.Replicas {
				if hostOf(t, rep.Base) == host {
					return rep.Healthy, true
				}
			}
		}
		return false, false
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	ft.setDown(flapper, true)
	waitFor("ejection", func() bool {
		h, ok := healthOf(flapper)
		return ok && !h
	})

	// While ejected, query traffic routes around the replica entirely.
	mark := ft.mark()
	for i := 0; i < 8; i++ {
		resp, err := http.Get(fmt.Sprintf("%s/query?u=%d&v=%d", ts.URL, i, i+5))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query with ejected replica: status %d", resp.StatusCode)
		}
	}
	if hosts := ft.queryHostsSince(mark); hosts[flapper] {
		t.Errorf("ejected replica %s still served query traffic", flapper)
	}

	// Recovery: consecutive probe successes reinstate it.
	ft.setDown(flapper, false)
	waitFor("reinstatement", func() bool {
		h, ok := healthOf(flapper)
		return ok && h
	})

	var stats RouterStatsReply
	if code := getJSON(t, ts.URL+"/stats", &stats); code != http.StatusOK {
		t.Fatalf("router stats: status %d", code)
	}
	if stats.Probes == 0 {
		t.Error("prober ran no sweeps")
	}
	var ejections int64
	for _, sh := range stats.Shards {
		for _, rep := range sh.Replicas {
			ejections += rep.Ejections
		}
	}
	if ejections == 0 {
		t.Error("no ejection recorded for the flapping replica")
	}
	_ = rt
}

// swapHandler lets a test server change what it serves mid-test — the
// "physical host" stays, the shard behind it moves.
type swapHandler struct {
	h atomic.Pointer[http.Handler]
}

func (s *swapHandler) set(h http.Handler) { s.h.Store(&h) }

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	(*s.h.Load()).ServeHTTP(w, r)
}

// shardHandlerOver opens one shard envelope and returns a serve
// handler over it.
func shardHandlerOver(t *testing.T, path string) http.Handler {
	t.Helper()
	shard, err := distsketch.OpenSketchSet(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { shard.Close() })
	srv, err := New(shard, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return srv.Handler()
}

// TestRouterLiveMapRefresh re-splits the fleet under live traffic: two
// physical servers move from a 50/50 split to a 30/70 split. While the
// fleet is half-moved the refresh must refuse the non-tiling map and
// keep the old one; once both servers moved, the refresh swaps the new
// map in and every query answers byte-identical to a direct full-set
// server. Errors during the transition are allowed — wrong answers
// never: every 200 a concurrent hammering client receives must match
// the baseline.
func TestRouterLiveMapRefresh(t *testing.T) {
	g, err := distsketch.NewRandomWeightedGraph(distsketch.FamilyGeometric, 100, 10, 100, 13)
	if err != nil {
		t.Fatal(err)
	}
	full, err := distsketch.Build(g, distsketch.Options{Kind: distsketch.KindLandmark, Eps: 0.25, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	n := full.N()
	splitA := distsketch.EvenShardRanges(n, 2)
	splitB := []distsketch.ShardRange{{Lo: 0, Hi: 30}, {Lo: 30, Hi: n}}
	dirA, dirB := t.TempDir(), t.TempDir()
	pathsA, err := distsketch.SaveShards(dirA, full, splitA)
	if err != nil {
		t.Fatal(err)
	}
	pathsB, err := distsketch.SaveShards(dirB, full, splitB)
	if err != nil {
		t.Fatal(err)
	}

	// Two physical hosts, initially serving split A.
	swaps := [2]*swapHandler{{}, {}}
	bases := make([]string, 2)
	for i := range swaps {
		swaps[i].set(shardHandlerOver(t, pathsA[i]))
		ts := httptest.NewServer(swaps[i])
		t.Cleanup(ts.Close)
		bases[i] = ts.URL
	}

	shards, err := DiscoverShards(context.Background(), bases, nil)
	if err != nil {
		t.Fatal(err)
	}
	rt, ts := newFaultRouter(t, shards, RouterOptions{HedgeDelay: -1})

	// Baseline truth for the hammered pairs.
	heapSrv := newTestServer(t, full, Options{})
	type pair struct{ u, v int }
	var pairs []pair
	baseline := map[pair]string{}
	for u := 0; u < n; u += 13 {
		v := (u*29 + 11) % n
		p := pair{u, v}
		pairs = append(pairs, p)
		resp, err := http.Get(fmt.Sprintf("%s/query?u=%d&v=%d", heapSrv.URL, u, v))
		if err != nil {
			t.Fatal(err)
		}
		var res QueryResult
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		b, _ := json.Marshal(res)
		baseline[p] = string(b)
	}

	// Hammer the router throughout the move; every 200 must match the
	// baseline, transition errors are tolerated.
	stop := make(chan struct{})
	var wrong atomic.Int64
	var hammer sync.WaitGroup
	hammer.Add(1)
	go func() {
		defer hammer.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			p := pairs[i%len(pairs)]
			resp, err := http.Get(fmt.Sprintf("%s/query?u=%d&v=%d", ts.URL, p.u, p.v))
			if err != nil {
				continue
			}
			var res QueryResult
			decErr := json.NewDecoder(resp.Body).Decode(&res)
			code := resp.StatusCode
			resp.Body.Close()
			if code != http.StatusOK || decErr != nil {
				continue // degraded mid-move is allowed
			}
			b, _ := json.Marshal(res)
			if string(b) != baseline[p] {
				wrong.Add(1)
			}
		}
	}()

	// Move host 0 to split B. The fleet now reports [0,30) and [50,100)
	// — a gap. The refresh must refuse it and keep the old map serving.
	swaps[0].set(shardHandlerOver(t, pathsB[0]))
	if err := rt.RefreshShardMap(context.Background()); err == nil {
		t.Error("refresh accepted a non-tiling half-moved fleet")
	}
	if rt.TotalNodes() != n {
		t.Fatalf("failed refresh changed the map: TotalNodes=%d", rt.TotalNodes())
	}

	// Move host 1 too; now the fleet tiles again and the refresh lands.
	swaps[1].set(shardHandlerOver(t, pathsB[1]))
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := rt.RefreshShardMap(context.Background()); err == nil {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("refresh never succeeded after full move: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	got := rt.Shards()
	if len(got) != 2 || got[0].Range != splitB[0] || got[1].Range != splitB[1] {
		t.Fatalf("refreshed map %+v, want split %+v", got, splitB)
	}

	// Let traffic run against the new map, then stop and audit.
	time.Sleep(50 * time.Millisecond)
	close(stop)
	hammer.Wait()
	if w := wrong.Load(); w != 0 {
		t.Fatalf("%d wrong answers served during live re-split", w)
	}
	// After the move every pair answers again, byte-identical.
	for _, p := range pairs {
		resp, err := http.Get(fmt.Sprintf("%s/query?u=%d&v=%d", ts.URL, p.u, p.v))
		if err != nil {
			t.Fatal(err)
		}
		var res QueryResult
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("(%d,%d) after re-split: status %d", p.u, p.v, resp.StatusCode)
		}
		if b, _ := json.Marshal(res); string(b) != baseline[pair{p.u, p.v}] {
			t.Fatalf("(%d,%d) after re-split: %s != %s", p.u, p.v, b, baseline[pair{p.u, p.v}])
		}
	}
	var stats RouterStatsReply
	if code := getJSON(t, ts.URL+"/stats", &stats); code != http.StatusOK {
		t.Fatalf("router stats: status %d", code)
	}
	if stats.MapRefreshes == 0 {
		t.Error("map_refreshes did not move")
	}
	if stats.MapRefreshFailures == 0 {
		t.Error("map_refresh_failures did not record the refused half-moved map")
	}
}

// TestRouterStale421TriggersRefresh misconfigures the router with a
// swapped shard map: upstreams answer 421 with their real range, which
// must mark the map stale, schedule a live refresh, and heal the
// router without a restart.
func TestRouterStale421TriggersRefresh(t *testing.T) {
	_, bases, ranges := buildShardedFixture(t, 2)
	// Deliberately wrong: each base is configured with the other's range.
	shards := []RouterShard{
		{Replicas: []string{bases[0]}, Range: ranges[1]},
		{Replicas: []string{bases[1]}, Range: ranges[0]},
	}
	_, ts := newFaultRouter(t, shards, RouterOptions{HedgeDelay: -1})

	// A same-shard pair routed by the wrong map lands on the wrong
	// server, which answers 421. The router reports the failure and
	// kicks a refresh.
	u, v := ranges[0].Lo, ranges[0].Lo+1
	resp, err := http.Get(fmt.Sprintf("%s/query?u=%d&v=%d", ts.URL, u, v))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("stale-map query: status %d, want 502", resp.StatusCode)
	}

	// The refresh heals the map; queries come back without a restart.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(fmt.Sprintf("%s/query?u=%d&v=%d", ts.URL, u, v))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("router never healed from the stale map: status %d", resp.StatusCode)
		}
		time.Sleep(10 * time.Millisecond)
	}
	var stats RouterStatsReply
	if code := getJSON(t, ts.URL+"/stats", &stats); code != http.StatusOK {
		t.Fatalf("router stats: status %d", code)
	}
	if stats.StaleMapHits == 0 {
		t.Error("stale_map_hits did not move on an upstream 421")
	}
	if stats.MapRefreshes == 0 {
		t.Error("map_refreshes did not move after the 421")
	}
}

// TestRouterStale421BatchTriggersRefresh is the batch-only form of
// TestRouterStale421TriggersRefresh: no prober runs and every pair
// stays inside one shard, so only the misdirected sub-batches can tell
// the router its map is stale. A shard must fail them with 421 rather
// than with per-pair errors inside a 200, and the router must heal.
func TestRouterStale421BatchTriggersRefresh(t *testing.T) {
	full, bases, ranges := buildShardedFixture(t, 2)
	shards := []RouterShard{
		{Replicas: []string{bases[0]}, Range: ranges[1]},
		{Replicas: []string{bases[1]}, Range: ranges[0]},
	}
	_, ts := newFaultRouter(t, shards, RouterOptions{HedgeDelay: -1})
	body := fmt.Sprintf(`{"pairs":[{"u":%d,"v":%d},{"u":%d,"v":%d}]}`,
		ranges[0].Lo, ranges[0].Lo+1, ranges[1].Lo, ranges[1].Hi-1)
	baseline := batchBaseline(t, full, body)

	deadline := time.Now().Add(5 * time.Second)
	for batches := 1; ; batches++ {
		var reply BatchReply
		if code := postJSON(t, ts.URL+"/query", body, &reply); code != http.StatusOK {
			t.Fatalf("stale-map batch %d: status %d", batches, code)
		}
		healed := true
		for _, res := range reply.Results {
			healed = healed && res.Error == ""
		}
		if healed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("router never healed from the stale map after %d batches: %+v", batches, reply.Results)
		}
		time.Sleep(10 * time.Millisecond)
	}
	requireBatchMatches(t, ts.URL, body, baseline)
	var stats RouterStatsReply
	if code := getJSON(t, ts.URL+"/stats", &stats); code != http.StatusOK {
		t.Fatalf("router stats: status %d", code)
	}
	if stats.StaleMapHits == 0 {
		t.Error("stale_map_hits did not move on a misdirected sub-batch")
	}
	if stats.MapRefreshes == 0 {
		t.Error("map_refreshes did not move after the 421")
	}
}

// TestRouter404Passthrough pins that an out-of-range id answers the
// same 404 body through the router as a direct full-set server — the
// router is indistinguishable from a server even in its errors.
func TestRouter404Passthrough(t *testing.T) {
	full, shards, _ := buildReplicatedFixture(t, 2, 1)
	_, ts := newFaultRouter(t, shards, RouterOptions{})
	heapSrv := newTestServer(t, full, Options{})

	bad := full.N() + 7
	fetch := func(base string) (int, string) {
		resp, err := http.Get(fmt.Sprintf("%s/query?u=%d&v=0", base, bad))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var reply errorReply
		if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
			t.Fatal(err)
		}
		b, _ := json.Marshal(reply)
		return resp.StatusCode, string(b)
	}
	directCode, directBody := fetch(heapSrv.URL)
	routedCode, routedBody := fetch(ts.URL)
	if directCode != http.StatusNotFound || routedCode != http.StatusNotFound {
		t.Fatalf("statuses: direct %d, routed %d, want 404/404", directCode, routedCode)
	}
	if directBody != routedBody {
		t.Fatalf("404 bodies differ:\ndirect: %s\nrouted: %s", directBody, routedBody)
	}
}

// TestRouterOversizedBatchBeforeUpstream pins that a batch beyond the
// cap is refused with 413 before any upstream request is made — the
// router never spends fleet capacity on a request it will refuse.
func TestRouterOversizedBatchBeforeUpstream(t *testing.T) {
	_, shards, _ := buildReplicatedFixture(t, 2, 1)
	ft := newReplicaFaultTransport()
	_, ts := newFaultRouter(t, shards, RouterOptions{Transport: ft, MaxBatch: 4})

	mark := ft.mark()
	body := crossBatchBody(100, 5) // one over the cap
	var reply errorReply
	if code := postJSON(t, ts.URL+"/query", body, &reply); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch: status %d, want 413", code)
	}
	if n := ft.requestsSince(mark); n != 0 {
		t.Fatalf("oversized batch reached upstream: %d requests", n)
	}
}

// TestRouterMiddlewarePanicAndGate pins the router's own middleware
// stack: a handler panic becomes a clean 500 and the router survives;
// beyond MaxInFlight concurrent queries the router sheds with 503 +
// Retry-After; both leave counters in /stats.
func TestRouterMiddlewarePanicAndGate(t *testing.T) {
	_, shards, _ := buildReplicatedFixture(t, 2, 1)
	rt, ts := newFaultRouter(t, shards, RouterOptions{MaxInFlight: 2})

	// Panic: poison exactly one request via the test seam.
	var poison atomic.Bool
	rt.queryHook = func() {
		if poison.CompareAndSwap(true, false) {
			panic("injected router panic")
		}
	}
	poison.Store(true)
	resp, err := http.Get(ts.URL + "/query?u=0&v=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("poisoned query: status %d, want 500", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/query?u=0&v=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query after panic: status %d — the router did not survive", resp.StatusCode)
	}

	// Gate: hold MaxInFlight requests open, the next is shed.
	hold := make(chan struct{})
	entered := make(chan struct{}, 4)
	rt.queryHook = func() {
		entered <- struct{}{}
		<-hold
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/query?u=0&v=1")
			if err == nil {
				resp.Body.Close()
			}
		}()
	}
	<-entered
	<-entered
	resp, err = http.Get(ts.URL + "/query?u=2&v=3")
	if err != nil {
		t.Fatal(err)
	}
	retryAfter := resp.Header.Get("Retry-After")
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("query at capacity: status %d, want 503", resp.StatusCode)
	}
	if retryAfter == "" {
		t.Error("shed response missing Retry-After")
	}
	close(hold)
	wg.Wait()
	rt.queryHook = nil

	var stats RouterStatsReply
	if code := getJSON(t, ts.URL+"/stats", &stats); code != http.StatusOK {
		t.Fatalf("router stats: status %d", code)
	}
	if stats.PanicsRecovered != 1 {
		t.Errorf("panics_recovered = %d, want 1", stats.PanicsRecovered)
	}
	if stats.RequestsShed == 0 {
		t.Error("requests_shed did not move")
	}
}

// TestRouterChaosReplicaRestart is the chaos smoke: while batch load
// runs continuously, one replica of shard 0 is killed and restarted
// over and over (never both at once). Every batch must answer with
// zero per-pair errors and byte-identical results — the client never
// observes the churn.
func TestRouterChaosReplicaRestart(t *testing.T) {
	full, shards, group := buildReplicatedFixture(t, 2, 2)
	ft := newReplicaFaultTransport()
	_, ts := newFaultRouter(t, shards, RouterOptions{
		Transport:      ft,
		HedgeDelay:     5 * time.Millisecond,
		ProbeInterval:  20 * time.Millisecond,
		FailThreshold:  2,
		ReinstateAfter: 1,
	})

	body := crossBatchBody(full.N(), 15)
	baseline := batchBaseline(t, full, body)

	stop := make(chan struct{})
	var chaos sync.WaitGroup
	chaos.Add(1)
	go func() {
		defer chaos.Done()
		rng := rand.New(rand.NewSource(42))
		hosts := []string{hostOf(t, group[0][0]), hostOf(t, group[0][1])}
		for {
			select {
			case <-stop:
				return
			default:
			}
			victim := hosts[rng.Intn(len(hosts))]
			ft.setDown(victim, true)
			time.Sleep(25 * time.Millisecond)
			ft.setDown(victim, false)
			time.Sleep(10 * time.Millisecond)
		}
	}()

	deadline := time.Now().Add(1500 * time.Millisecond)
	batches := 0
	for time.Now().Before(deadline) {
		requireBatchMatches(t, ts.URL, body, baseline)
		batches++
	}
	close(stop)
	chaos.Wait()
	if batches == 0 {
		t.Fatal("chaos loop ran no batches")
	}

	var stats RouterStatsReply
	if code := getJSON(t, ts.URL+"/stats", &stats); code != http.StatusOK {
		t.Fatalf("router stats: status %d", code)
	}
	if stats.Retries == 0 && stats.HedgesFired == 0 {
		t.Error("chaos left no failover trace in /stats")
	}
	t.Logf("chaos: %d batches, retries=%d hedges=%d/%d upstream_errors=%d",
		batches, stats.Retries, stats.HedgesFired, stats.HedgesWon, stats.UpstreamErrors)
}
