package serve

// Router is the fan-out tier in front of node-range shard servers: it
// owns the shard map (which global ids each replica group answers for)
// and resolves every (u,v) distance query by contacting at most 2
// shards — the paper's guarantee made topological. A pair whose two
// nodes share a shard is forwarded whole (one upstream request, the
// shard estimates locally); a cross-shard pair is resolved the way the
// paper's Section 2.1 query model prescribes: fetch u's wire sketch
// from its shard and v's from its shard, and estimate from the two
// blobs alone. Sketches are fetched with POST /sketch, one call per
// owning shard and all shards at once, so a batch pays one round trip
// per shard however many of its pairs cross shards. The router holds
// no labels, no graph, and no per-node state — it is restartable in
// milliseconds and horizontally fungible.
//
// Each node range maps to a replica set, not a single server: upstream
// calls retry across replicas, slow reads are hedged, a background
// prober ejects and reinstates replicas, and the shard map refreshes
// live when the fleet moves (see replica.go for the machinery).
//
// Wire compatibility: the router embeds the frontend a Server embeds
// (frontend.go) and is only its remote backend, so /query (single and
// batch), /sketch (GET /sketch/{u} and the POST /sketch batch form),
// /stats, /healthz and /readyz run the same handlers, middleware, batch
// caps and status mapping on both tiers. A client cannot tell a router
// from a single full-set server — sharding is an operator decision, not
// a client migration. Where a server answers 500, the router answers
// 502: its failures are its upstreams'.

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"distsketch"
)

// Router resilience defaults. The usual option convention applies to
// every duration and threshold below: zero means the default, negative
// disables (where disabling is meaningful).
const (
	// DefaultAttemptTimeout bounds one upstream attempt; a replica
	// slower than this is treated as down for that attempt.
	DefaultAttemptTimeout = 2 * time.Second
	// DefaultMaxAttempts is the total upstream attempts per call,
	// cycling over the group's candidates.
	DefaultMaxAttempts = 3
	// DefaultRetryBackoff is the base of the jittered exponential
	// backoff between retry attempts.
	DefaultRetryBackoff = 25 * time.Millisecond
	// DefaultHedgeDelay is how long the primary attempt may stay silent
	// before a second replica is raced against it.
	DefaultHedgeDelay = 50 * time.Millisecond
	// DefaultFailThreshold ejects a replica after this many consecutive
	// failures; DefaultReinstateAfter brings it back after this many
	// consecutive successes.
	DefaultFailThreshold  = 3
	DefaultReinstateAfter = 2
)

// RouterShard names one shard: the global node range it owns and the
// byte-identical replica servers answering it (base URLs of the form
// scheme://host:port, no trailing slash).
type RouterShard struct {
	Replicas []string
	Range    distsketch.ShardRange
}

// RouterOptions configures a Router.
type RouterOptions struct {
	// Transport reaches the shard servers (nil means
	// http.DefaultTransport). Tests inject counting or failing
	// transports here.
	Transport http.RoundTripper
	// MaxBatch caps the pairs accepted per POST /query request and the
	// nodes per POST /sketch request (default DefaultMaxBatch). Larger
	// batches get 413 before any upstream call.
	MaxBatch int
	// Logger receives lifecycle lines. Nil means log.Default().
	Logger *log.Logger

	// AttemptTimeout bounds each upstream attempt (default
	// DefaultAttemptTimeout; negative means no per-attempt bound — the
	// request deadline still applies).
	AttemptTimeout time.Duration
	// MaxAttempts is the total attempts per upstream call across the
	// shard's replicas (default DefaultMaxAttempts; negative means a
	// single attempt, no retries).
	MaxAttempts int
	// RetryBackoff is the base backoff before the first retry, doubling
	// per attempt with up to 50% jitter (default DefaultRetryBackoff;
	// negative retries immediately).
	RetryBackoff time.Duration
	// HedgeDelay races a second replica against a primary attempt still
	// silent after this long (default DefaultHedgeDelay; negative
	// disables hedging).
	HedgeDelay time.Duration
	// ProbeInterval enables the background health prober: every
	// interval each replica's /healthz and /stats are re-polled,
	// ejections and reinstatements applied, and the shard map refreshed
	// when the fleet's ranges moved. Zero or negative disables the
	// prober (ejection and reinstatement still happen through live
	// traffic). A router with the prober enabled must be Closed.
	ProbeInterval time.Duration
	// FailThreshold ejects a replica after this many consecutive
	// failures (default DefaultFailThreshold). ReinstateAfter brings an
	// ejected replica back after this many consecutive successes
	// (default DefaultReinstateAfter).
	FailThreshold  int
	ReinstateAfter int

	// MaxInFlight bounds concurrently executing requests; beyond it the
	// router sheds with 503 + Retry-After (default DefaultMaxInFlight;
	// negative means unbounded). Probes and /stats bypass the gate.
	MaxInFlight int
	// RequestTimeout is the whole-request execution deadline (default
	// DefaultRequestTimeout; negative disables).
	RequestTimeout time.Duration
}

// Router fans distance queries out to node-range shard replica sets.
// Create one with NewRouter and mount Handler on an http.Server. All
// methods are safe for concurrent use. Close releases the background
// prober and any in-flight map refresh.
type Router struct {
	frontend
	client *http.Client

	attemptTimeout time.Duration
	maxAttempts    int
	retryBackoff   time.Duration
	hedgeDelay     time.Duration
	failThreshold  int
	reinstateAfter int

	// smap is the immutable routing snapshot; requests load it once.
	// groupBases remembers the configured replica groups for refreshes,
	// and replicas is the persistent health registry keyed by base URL —
	// ejection state survives map refreshes.
	smap       atomic.Pointer[shardMap]
	groupBases [][]string
	replicas   map[string]*replica
	refreshMu  sync.Mutex
	refreshing atomic.Bool

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	sameShard       atomic.Int64 // pairs forwarded whole to one shard
	crossShard      atomic.Int64 // pairs resolved by two-shard sketch exchange
	upstreamErrors  atomic.Int64 // upstream attempts that failed
	retries         atomic.Int64 // upstream attempts beyond each call's first
	hedgesFired     atomic.Int64 // hedge attempts launched against a slow primary
	hedgesWon       atomic.Int64 // hedge attempts that answered first
	probes          atomic.Int64 // prober sweeps completed
	mapRefreshes    atomic.Int64 // shard-map refreshes applied
	mapRefreshFails atomic.Int64 // shard-map refreshes that kept the old map
	staleMapHits    atomic.Int64 // upstream 421s proving the map stale

	queryHook func() // test seam: runs at the head of every query and batch
}

// NewRouter creates a router over the given shards. The shard ranges
// must exactly tile a [0, total) id space — every node owned by exactly
// one shard — or routing would silently drop or double-answer ids;
// they may be given in any order. Every replica of a shard must serve
// the same envelope bytes for that range (DiscoverShards verifies
// this); the router assumes replicas of a group are interchangeable.
func NewRouter(shards []RouterShard, opts RouterOptions) (*Router, error) {
	rt := &Router{
		client:         &http.Client{Transport: opts.Transport},
		attemptTimeout: opts.AttemptTimeout,
		maxAttempts:    opts.MaxAttempts,
		retryBackoff:   opts.RetryBackoff,
		hedgeDelay:     opts.HedgeDelay,
		failThreshold:  opts.FailThreshold,
		reinstateAfter: opts.ReinstateAfter,
		replicas:       make(map[string]*replica),
	}
	rt.setup(rt, http.StatusBadGateway, opts.MaxBatch, opts.MaxInFlight, opts.RequestTimeout, opts.Logger)
	if rt.attemptTimeout == 0 {
		rt.attemptTimeout = DefaultAttemptTimeout
	}
	switch {
	case rt.maxAttempts == 0:
		rt.maxAttempts = DefaultMaxAttempts
	case rt.maxAttempts < 0:
		rt.maxAttempts = 1
	}
	switch {
	case rt.retryBackoff == 0:
		rt.retryBackoff = DefaultRetryBackoff
	case rt.retryBackoff < 0:
		rt.retryBackoff = 0
	}
	if rt.hedgeDelay == 0 {
		rt.hedgeDelay = DefaultHedgeDelay
	}
	if rt.failThreshold <= 0 {
		rt.failThreshold = DefaultFailThreshold
	}
	if rt.reinstateAfter <= 0 {
		rt.reinstateAfter = DefaultReinstateAfter
	}
	if len(shards) == 0 {
		return nil, fmt.Errorf("serve: router needs at least one shard")
	}
	groups := make([]*replicaGroup, 0, len(shards))
	rt.groupBases = make([][]string, 0, len(shards))
	for i, sh := range shards {
		if len(sh.Replicas) == 0 {
			return nil, fmt.Errorf("serve: shard %d has no replica URLs", i)
		}
		seen := make(map[string]bool, len(sh.Replicas))
		uniq := make([]string, 0, len(sh.Replicas))
		reps := make([]*replica, 0, len(sh.Replicas))
		for _, b := range sh.Replicas {
			if b == "" {
				return nil, fmt.Errorf("serve: shard %d has an empty replica URL", i)
			}
			if seen[b] {
				continue
			}
			seen[b] = true
			uniq = append(uniq, b)
			rep := rt.replicas[b]
			if rep == nil {
				rep = &replica{base: b, healthy: true}
				rt.replicas[b] = rep
			}
			reps = append(reps, rep)
		}
		rt.groupBases = append(rt.groupBases, uniq)
		groups = append(groups, &replicaGroup{rng: sh.Range, replicas: reps})
	}
	m, err := buildShardMap(groups)
	if err != nil {
		return nil, err
	}
	rt.smap.Store(m)
	rt.ctx, rt.cancel = context.WithCancel(context.Background())
	if opts.ProbeInterval > 0 {
		rt.startProber(opts.ProbeInterval)
	}
	return rt, nil
}

// Close stops the background prober and any in-flight map refresh and
// waits for them. Idempotent; safe on a router without a prober.
func (rt *Router) Close() {
	rt.cancel()
	rt.wg.Wait()
}

// TotalNodes returns the size of the routed id space.
func (rt *Router) TotalNodes() int { return rt.smap.Load().total }

// Shards returns the current routed shard map, sorted by range.
func (rt *Router) Shards() []RouterShard {
	m := rt.smap.Load()
	out := make([]RouterShard, len(m.groups))
	for i, g := range m.groups {
		bases := make([]string, len(g.replicas))
		for j, rep := range g.replicas {
			bases[j] = rep.base
		}
		out[i] = RouterShard{Replicas: bases, Range: g.rng}
	}
	return out
}

// BeginDrain flips /readyz to 503 so load balancers stop routing new
// traffic here; in-flight fan-outs finish.
func (rt *Router) BeginDrain() { rt.draining.Store(true) }

// checkRoutedNodes validates ids against the routed id space, failing
// on the first one outside it. The message matches the facade's own
// out-of-range error byte for byte, so a client sees the same 404 body
// through the router as it would asking a full-set server directly.
func checkRoutedNodes(m *shardMap, ids ...int) error {
	for _, u := range ids {
		if u < 0 || u >= m.total {
			return fmt.Errorf("distsketch: node %d outside [0,%d): %w", u, m.total, distsketch.ErrNodeRange)
		}
	}
	return nil
}

// splitReplicaSpec splits one shard spec "url|url|..." into its replica
// base URLs, trimming whitespace and trailing slashes (the router appends
// "/query", and a shard redirects "//query" as a body-less GET) and
// dropping empty segments.
func splitReplicaSpec(spec string) []string {
	var out []string
	for _, part := range strings.Split(spec, "|") {
		if p := strings.TrimRight(strings.TrimSpace(part), "/"); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// DiscoverShards builds a router's shard map by asking each shard
// spec's servers for their /stats. A spec is one or more replica base
// URLs joined with "|"; the reachable replicas of a group must agree
// on node range and envelope checksum (replica sets promise
// byte-identical answers), and a group is only undiscoverable when
// every replica of it is unreachable — a single down replica at boot
// does not block the router. A server serving an unsharded full set
// reports no range and is mapped as one shard covering [0, nodes), so
// a router over a single full server routes everything to it and the
// two topologies stay interchangeable. The discovered shards are
// validated by NewRouter, not here.
func DiscoverShards(ctx context.Context, specs []string, client *http.Client) ([]RouterShard, error) {
	if client == nil {
		client = http.DefaultClient
	}
	shards := make([]RouterShard, 0, len(specs))
	for _, spec := range specs {
		group := splitReplicaSpec(spec)
		if len(group) == 0 {
			return nil, fmt.Errorf("serve: shard spec %q names no replica URLs", spec)
		}
		rng, _, err := discoverGroup(ctx, client, group)
		if err != nil {
			return nil, fmt.Errorf("serve: discovering %s: %w", spec, err)
		}
		shards = append(shards, RouterShard{Replicas: group, Range: rng})
	}
	return shards, nil
}

// fetchUpstreamStats decodes one upstream server's /stats.
func fetchUpstreamStats(ctx context.Context, client *http.Client, base string) (*StatsReply, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/stats", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		drainBody(resp)
		return nil, fmt.Errorf("%s/stats answered %d", base, resp.StatusCode)
	}
	var stats StatsReply
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&stats); err != nil {
		return nil, fmt.Errorf("decoding %s/stats: %w", base, err)
	}
	return &stats, nil
}

// drainBody discards a bounded remainder of a response body so the
// connection can be reused, then closes it.
func drainBody(resp *http.Response) {
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<12))
	resp.Body.Close()
}

// RouterStatsReply is the router's GET /stats response.
type RouterStatsReply struct {
	TotalNodes int               `json:"total_nodes"`
	Shards     []RouterShardInfo `json:"shards"`
	// QueriesServed counts estimates served (single + batched pairs).
	QueriesServed int64 `json:"queries_served"`
	// SameShardPairs counts pairs forwarded whole to one shard;
	// CrossShardPairs counts pairs resolved by fetching two wire
	// sketches and estimating in the router. Their sum bounds upstream
	// requests: fan-out never exceeds 2 shards per pair.
	SameShardPairs  int64 `json:"same_shard_pairs"`
	CrossShardPairs int64 `json:"cross_shard_pairs"`
	// UpstreamErrors counts upstream attempts that failed (network
	// errors, per-attempt timeouts, and non-200 answers). Retries counts
	// attempts beyond each call's first; HedgesFired/HedgesWon count
	// hedge attempts raced against a slow primary and how many answered
	// first.
	UpstreamErrors int64 `json:"upstream_errors"`
	Retries        int64 `json:"retries"`
	HedgesFired    int64 `json:"hedges_fired"`
	HedgesWon      int64 `json:"hedges_won"`
	// Probes counts prober sweeps; MapRefreshes counts shard-map
	// refreshes applied, MapRefreshFailures ones that kept the old map,
	// and StaleMapHits upstream 421 answers proving the map stale (each
	// schedules a refresh).
	Probes             int64 `json:"probes"`
	MapRefreshes       int64 `json:"map_refreshes"`
	MapRefreshFailures int64 `json:"map_refresh_failures"`
	StaleMapHits       int64 `json:"stale_map_hits"`
	// RequestsShed counts requests refused by the admission gate;
	// PanicsRecovered counts handler panics converted to 500s.
	RequestsShed    int64 `json:"requests_shed"`
	PanicsRecovered int64 `json:"panics_recovered"`
	Draining        bool  `json:"draining"`
}

// RouterShardInfo is one shard map entry in the router's /stats.
type RouterShardInfo struct {
	Lo       int                 `json:"lo"`
	Hi       int                 `json:"hi"`
	Replicas []RouterReplicaInfo `json:"replicas"`
}

// RouterReplicaInfo is one replica's health as the router sees it.
type RouterReplicaInfo struct {
	Base                string `json:"base"`
	Healthy             bool   `json:"healthy"`
	ConsecutiveFailures int    `json:"consecutive_failures"`
	Failures            int64  `json:"failures"`
	Ejections           int64  `json:"ejections"`
}

// Handler returns the router's route table wrapped in the middleware
// stack a shard server carries (see Server.Handler). Probes and /stats
// bypass the gate — an overloaded router must still answer its health
// checks, or the load balancer would eject the tier that is merely busy.
func (rt *Router) Handler() http.Handler { return rt.withRecover(rt.routes()) }

// classifyUpstream turns a non-200 upstream answer into the right kind
// of error: 5xx (and 429) are replica faults — retried on the next
// candidate and charged to the replica's health; 421 means the
// replica is healthy but the router's shard map is stale, so a refresh
// is scheduled and the call fails without blaming the replica; any
// other status is an answer the upstream produced deliberately and a
// byte-identical replica would repeat, so it is terminal.
func (rt *Router) classifyUpstream(resp *http.Response, what string) error {
	var reply errorReply
	_ = json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&reply)
	if reply.Error == "" {
		reply.Error = http.StatusText(resp.StatusCode)
	}
	switch {
	case resp.StatusCode == http.StatusMisdirectedRequest:
		rt.staleMapHits.Add(1)
		rt.kickRefresh()
		hint := ""
		if reply.Shard != nil {
			hint = fmt.Sprintf(" (it owns [%d,%d) of %d)", reply.Shard.Lo, reply.Shard.Hi, reply.Shard.Total)
		}
		return fmt.Errorf("shard map stale: %s answered 421%s: %s; refresh scheduled", what, hint, reply.Error)
	case resp.StatusCode >= http.StatusInternalServerError || resp.StatusCode == http.StatusTooManyRequests:
		return faultf("%s answered %d: %s", what, resp.StatusCode, reply.Error)
	default:
		rt.upstreamErrors.Add(1)
		return fmt.Errorf("%s answered %d: %s", what, resp.StatusCode, reply.Error)
	}
}

// post sends body to base+path on one replica and returns the 200
// response for the caller to read and close. A transport error is a
// replica fault; any other status is classified by classifyUpstream.
func (rt *Router) post(ctx context.Context, base, path string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := rt.client.Do(req)
	if err != nil {
		return nil, &upstreamFault{err}
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		return nil, rt.classifyUpstream(resp, path)
	}
	return resp, nil
}

// fetchedSketch is one node's wire sketch, or the error of the replica
// group that owns it.
type fetchedSketch struct {
	blob []byte
	err  error
}

// fetchSketches gets the wire sketches of nodes (each validated against
// m) with one POST /sketch per owning replica group, all groups
// concurrently, and reports each distinct node's blob or its group's
// error. A routed batch pays for round trips, not bytes, so a node
// repeated across pairs costs nothing extra and a group costs one call
// however many of its nodes are needed.
func (rt *Router) fetchSketches(ctx context.Context, m *shardMap, nodes []int) map[int]fetchedSketch {
	out := make(map[int]fetchedSketch, len(nodes))
	byGroup := make(map[*replicaGroup][]int)
	for _, u := range nodes {
		if _, dup := out[u]; dup {
			continue
		}
		out[u] = fetchedSketch{}
		g := m.groupOf(u)
		byGroup[g] = append(byGroup[g], u)
	}
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	for g, ids := range byGroup {
		wg.Add(1)
		go func(g *replicaGroup, ids []int) {
			defer wg.Done()
			blobs, err := rt.postSketches(ctx, g, ids)
			mu.Lock()
			defer mu.Unlock()
			for i, u := range ids {
				if err != nil {
					out[u] = fetchedSketch{err: err}
				} else {
					out[u] = fetchedSketch{blob: blobs[i]}
				}
			}
		}(g, ids)
	}
	wg.Wait()
	return out
}

// postSketches fetches the wire sketches of ids, all owned by g, with
// one POST /sketch, returning them in ids order.
func (rt *Router) postSketches(ctx context.Context, g *replicaGroup, ids []int) ([][]byte, error) {
	body, err := json.Marshal(SketchBatchRequest{Nodes: ids})
	if err != nil {
		return nil, err
	}
	return doReplicated(rt, ctx, g, func(ctx context.Context, base string) ([][]byte, error) {
		resp, err := rt.post(ctx, base, "/sketch", body)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<26))
		if err != nil {
			return nil, &upstreamFault{err}
		}
		return splitSketchFrames(raw, len(ids))
	})
}

// splitSketchFrames splits a POST /sketch reply into the want blobs it
// must hold. A length running past the end of the body, bytes after the
// last frame, or too few frames mean the replica answered garbage: a
// replica fault, retried on the next replica, never a wrong blob.
func splitSketchFrames(body []byte, want int) ([][]byte, error) {
	blobs := make([][]byte, 0, want)
	for len(body) > 0 {
		if len(blobs) == want {
			return nil, faultf("malformed /sketch reply: %d trailing bytes after %d frames", len(body), want)
		}
		n, k := binary.Uvarint(body)
		if k <= 0 || n > uint64(len(body)-k) {
			return nil, faultf("malformed /sketch reply: frame %d overruns the body", len(blobs))
		}
		body = body[k:]
		blobs = append(blobs, body[:n:n])
		body = body[n:]
	}
	if len(blobs) != want {
		return nil, faultf("malformed /sketch reply: %d frames for %d nodes", len(blobs), want)
	}
	return blobs, nil
}

// estimateFetched answers a cross-shard pair from its two fetched
// sketches alone.
func (rt *Router) estimateFetched(got map[int]fetchedSketch, u, v int) (distsketch.Dist, error) {
	su, sv := got[u], got[v]
	if su.err != nil {
		return 0, su.err
	}
	if sv.err != nil {
		return 0, sv.err
	}
	d, err := distsketch.Estimate(su.blob, sv.blob)
	if err != nil {
		// The two shards disagree about the sketch kind (or a blob is
		// corrupt) — an operator problem, not the client's.
		rt.upstreamErrors.Add(1)
		return 0, fmt.Errorf("estimating from fetched sketches: %v", err)
	}
	return d, nil
}

// forwardQuery relays a same-shard pair to the owning replica set's
// single-query endpoint and decodes the estimate.
func (rt *Router) forwardQuery(ctx context.Context, g *replicaGroup, u, v int) (distsketch.Dist, error) {
	return doReplicated(rt, ctx, g, func(ctx context.Context, base string) (distsketch.Dist, error) {
		url := fmt.Sprintf("%s/query?u=%d&v=%d", base, u, v)
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return 0, err
		}
		resp, err := rt.client.Do(req)
		if err != nil {
			return 0, &upstreamFault{err}
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return 0, rt.classifyUpstream(resp, "/query")
		}
		var res QueryResult
		if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&res); err != nil {
			return 0, &upstreamFault{err}
		}
		if res.Error != "" {
			rt.upstreamErrors.Add(1)
			return 0, errors.New(res.Error)
		}
		if res.Unreachable || res.Estimate == nil {
			return distsketch.Inf, nil
		}
		return *res.Estimate, nil
	})
}

// The remote backend: every request routes against the one shard-map
// snapshot it loads, so a concurrent refresh never splits a request
// across two world views.

// query resolves one pair: a same-shard pair is forwarded whole, a
// cross-shard pair is estimated from the two fetched sketches.
func (rt *Router) query(ctx context.Context, u, v int) (distsketch.Dist, error) {
	if rt.queryHook != nil {
		rt.queryHook()
	}
	m := rt.smap.Load()
	if err := checkRoutedNodes(m, u, v); err != nil {
		return 0, err
	}
	if gu, gv := m.groupOf(u), m.groupOf(v); gu == gv {
		rt.sameShard.Add(1)
		return rt.forwardQuery(ctx, gu, u, v)
	}
	rt.crossShard.Add(1)
	return rt.estimateFetched(rt.fetchSketches(ctx, m, []int{u, v}), u, v)
}

// batch fans a pair batch out across the shards: same-shard pairs are
// grouped and forwarded as one POST /query sub-batch per shard, and
// every sketch the cross-shard pairs need is fetched with one
// POST /sketch per shard, concurrently with the sub-batches, before the
// router estimates those pairs itself. Per-pair failures — including a
// whole replica set being down — land in that pair's Error field, so
// one dead shard degrades the answers it owns instead of the whole
// request.
func (rt *Router) batch(ctx context.Context, pairs []QueryPair, sc *batchScratch) (int64, int, error) {
	if rt.queryHook != nil {
		rt.queryHook()
	}
	m := rt.smap.Load()
	results, dists := sc.results, sc.dists
	// Group same-shard pairs per replica group; collect cross-shard
	// pairs.
	groups := make(map[*replicaGroup][]int)
	var cross []int
	for i, p := range pairs {
		if err := checkRoutedNodes(m, p.U, p.V); err != nil {
			results[i] = resultInto(p.U, p.V, 0, err, &dists[i])
			continue
		}
		gu, gv := m.groupOf(p.U), m.groupOf(p.V)
		if gu == gv {
			groups[gu] = append(groups[gu], i)
		} else {
			cross = append(cross, i)
		}
	}
	var wg sync.WaitGroup
	for g, idxs := range groups {
		wg.Add(1)
		go func(g *replicaGroup, idxs []int) {
			defer wg.Done()
			rt.forwardSubBatch(ctx, g, pairs, idxs, results, dists)
		}(g, idxs)
	}
	if len(cross) > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			nodes := make([]int, 0, 2*len(cross))
			for _, i := range cross {
				nodes = append(nodes, pairs[i].U, pairs[i].V)
			}
			got := rt.fetchSketches(ctx, m, nodes)
			rt.crossShard.Add(int64(len(cross)))
			for _, i := range cross {
				p := pairs[i]
				d, err := rt.estimateFetched(got, p.U, p.V)
				results[i] = resultInto(p.U, p.V, d, err, &dists[i])
			}
		}()
	}
	wg.Wait()
	served := int64(0)
	for i := range results {
		if results[i].Error == "" {
			served++
		}
	}
	return served, len(pairs), nil
}

// forwardSubBatch posts the pairs at idxs (all owned by g's range) as
// one sub-batch and scatters the replies back to their request
// positions. A failed sub-batch marks each of its pairs with the
// failure.
func (rt *Router) forwardSubBatch(ctx context.Context, g *replicaGroup, pairs []QueryPair, idxs []int, results []QueryResult, dists []distsketch.Dist) {
	sub := BatchRequest{Pairs: make([]QueryPair, len(idxs))}
	for k, i := range idxs {
		sub.Pairs[k] = pairs[i]
	}
	rt.sameShard.Add(int64(len(idxs)))
	reply, err := rt.postBatch(ctx, g, sub)
	if err != nil {
		for _, i := range idxs {
			p := pairs[i]
			results[i] = resultInto(p.U, p.V, 0, err, &dists[i])
		}
		return
	}
	for k, i := range idxs {
		res := reply.Results[k]
		switch {
		case res.Error != "":
			results[i] = resultInto(pairs[i].U, pairs[i].V, 0, errors.New(res.Error), &dists[i])
		case res.Unreachable || res.Estimate == nil:
			results[i] = resultInto(pairs[i].U, pairs[i].V, distsketch.Inf, nil, &dists[i])
		default:
			results[i] = resultInto(pairs[i].U, pairs[i].V, *res.Estimate, nil, &dists[i])
		}
	}
}

func (rt *Router) postBatch(ctx context.Context, g *replicaGroup, sub BatchRequest) (*BatchReply, error) {
	body, err := json.Marshal(sub)
	if err != nil {
		return nil, err
	}
	return doReplicated(rt, ctx, g, func(ctx context.Context, base string) (*BatchReply, error) {
		resp, err := rt.post(ctx, base, "/query", body)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		var reply BatchReply
		if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<26)).Decode(&reply); err != nil {
			return nil, &upstreamFault{err}
		}
		if len(reply.Results) != len(sub.Pairs) {
			return nil, faultf("sub-batch answered %d results for %d pairs", len(reply.Results), len(sub.Pairs))
		}
		return &reply, nil
	})
}

// sketch proxies a wire-sketch request to the owning shard, so a peer
// can fetch any node's sketch through the router with the same URL
// shape it would use against a full server. The kind and word headers
// come from parsing the fetched blob; a blob that does not parse is the
// upstream's fault.
func (rt *Router) sketch(ctx context.Context, u int) ([]byte, distsketch.Kind, int, error) {
	m := rt.smap.Load()
	if err := checkRoutedNodes(m, u); err != nil {
		return nil, "", 0, err
	}
	got := rt.fetchSketches(ctx, m, []int{u})[u]
	if got.err != nil {
		return nil, "", 0, got.err
	}
	sk, err := distsketch.ParseSketch(got.blob)
	if err != nil {
		rt.upstreamErrors.Add(1)
		return nil, "", 0, fmt.Errorf("parsing the fetched sketch of node %d: %v", u, err)
	}
	return got.blob, sk.Kind(), sk.Words(), nil
}

// sketches serves POST /sketch exactly as a full server would: every
// id is validated first (the first one outside the routed id space
// answers the server's 404 body), then each owning shard is asked once
// and the blobs are framed back in request order. A shard whose
// replicas all fail fails the whole request — the reply has no
// per-node error slot.
func (rt *Router) sketches(ctx context.Context, nodes []int, buf *bytes.Buffer) error {
	m := rt.smap.Load()
	if err := checkRoutedNodes(m, nodes...); err != nil {
		return err
	}
	got := rt.fetchSketches(ctx, m, nodes)
	for _, u := range nodes {
		if err := got[u].err; err != nil {
			return err
		}
		writeSketchFrame(buf, got[u].blob)
	}
	return nil
}

// shardHint is nil: the router answers for the whole id space, so it
// never reports ErrShardRange.
func (rt *Router) shardHint() *ShardHint { return nil }

func (rt *Router) stats() any {
	m := rt.smap.Load()
	reply := RouterStatsReply{
		TotalNodes:         m.total,
		QueriesServed:      rt.queries.Load(),
		SameShardPairs:     rt.sameShard.Load(),
		CrossShardPairs:    rt.crossShard.Load(),
		UpstreamErrors:     rt.upstreamErrors.Load(),
		Retries:            rt.retries.Load(),
		HedgesFired:        rt.hedgesFired.Load(),
		HedgesWon:          rt.hedgesWon.Load(),
		Probes:             rt.probes.Load(),
		MapRefreshes:       rt.mapRefreshes.Load(),
		MapRefreshFailures: rt.mapRefreshFails.Load(),
		StaleMapHits:       rt.staleMapHits.Load(),
		RequestsShed:       rt.shed.Load(),
		PanicsRecovered:    rt.panics.Load(),
		Draining:           rt.draining.Load(),
	}
	for _, g := range m.groups {
		info := RouterShardInfo{Lo: g.rng.Lo, Hi: g.rng.Hi}
		for _, rep := range g.replicas {
			rep.mu.Lock()
			ri := RouterReplicaInfo{
				Base:                rep.base,
				Healthy:             rep.healthy,
				ConsecutiveFailures: rep.consecFails,
			}
			rep.mu.Unlock()
			ri.Failures = rep.failures.Load()
			ri.Ejections = rep.ejections.Load()
			info.Replicas = append(info.Replicas, ri)
		}
		reply.Shards = append(reply.Shards, info)
	}
	return reply
}

func (rt *Router) ready() (ReadyReply, error) {
	return ReadyReply{Ready: true, Nodes: rt.TotalNodes()}, nil
}
