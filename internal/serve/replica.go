package serve

// Replicated shard routing: the machinery that turns the router's one
// base URL per node range into a self-healing replica set per node
// range.
//
//   - Every upstream call gets a per-attempt timeout and is retried
//     with jittered exponential backoff on the next candidate replica;
//     only replica faults (connection errors, timeouts, 5xx) retry —
//     an answer the upstream produced deliberately (4xx) would repeat
//     identically on a byte-identical replica.
//   - Slow reads are hedged: when the primary attempt has not answered
//     within the hedge delay, a second replica is raced against it,
//     the first answer wins, and the loser's request is canceled.
//   - A background prober re-polls every replica's /healthz and /stats:
//     consecutive failures eject a replica from the candidate rotation
//     (live traffic ejects the same way), consecutive successes
//     reinstate it, and a range that disagrees with the routing map
//     triggers a live map refresh — shards can be restarted or
//     re-split under the router without a router restart.
//
// Health state lives on persistent *replica values keyed by base URL,
// so ejections and counters survive map refreshes; the routing map
// itself is an immutable snapshot behind an atomic pointer, so a
// refresh never tears an in-flight request's view of the world.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"distsketch"
)

// replica is the persistent per-upstream health record. One exists per
// configured base URL for the router's lifetime; shard-map refreshes
// re-link it into new groups rather than resetting it.
type replica struct {
	base string

	mu          sync.Mutex
	healthy     bool
	consecFails int
	consecOKs   int

	failures  atomic.Int64 // failed attempts charged to this replica
	ejections atomic.Int64 // healthy -> ejected transitions
}

func (rep *replica) isHealthy() bool {
	rep.mu.Lock()
	defer rep.mu.Unlock()
	return rep.healthy
}

// markFailure charges a replica fault and ejects the replica once it
// has failed failThreshold times in a row.
func (rt *Router) markFailure(rep *replica) {
	rep.failures.Add(1)
	rep.mu.Lock()
	rep.consecOKs = 0
	rep.consecFails++
	eject := rep.healthy && rep.consecFails >= rt.failThreshold
	if eject {
		rep.healthy = false
	}
	rep.mu.Unlock()
	if eject {
		rep.ejections.Add(1)
		rt.logger.Printf("serve: router ejecting replica %s after %d consecutive failures", rep.base, rt.failThreshold)
	}
}

// markSuccess resets the failure streak and reinstates an ejected
// replica after reinstateAfter consecutive successes (probe or live
// traffic — a last-resort request that succeeds is evidence too).
func (rt *Router) markSuccess(rep *replica) {
	rep.mu.Lock()
	rep.consecFails = 0
	rep.consecOKs++
	reinstate := !rep.healthy && rep.consecOKs >= rt.reinstateAfter
	if reinstate {
		rep.healthy = true
	}
	rep.mu.Unlock()
	if reinstate {
		rt.logger.Printf("serve: router reinstating replica %s after %d consecutive successes", rep.base, rt.reinstateAfter)
	}
}

// replicaGroup is one node range's replica set inside a shard-map
// snapshot. The replicas themselves are shared with other snapshots.
type replicaGroup struct {
	rng      distsketch.ShardRange
	replicas []*replica
	// next rotates the starting candidate so load spreads across the
	// group's healthy replicas instead of hammering the first one.
	next atomic.Uint64
}

// candidates returns the group's replicas in attempt order: healthy
// ones first (rotated for load spread), ejected ones after them as a
// last resort — a group whose every replica is ejected still gets
// attempts, so a wrongly ejected fleet heals through traffic instead
// of being unreachable forever.
func (g *replicaGroup) candidates() []*replica {
	if len(g.replicas) == 1 {
		return g.replicas
	}
	start := int(g.next.Add(1)-1) % len(g.replicas)
	healthy := make([]*replica, 0, len(g.replicas))
	var down []*replica
	for i := range g.replicas {
		rep := g.replicas[(start+i)%len(g.replicas)]
		if rep.isHealthy() {
			healthy = append(healthy, rep)
		} else {
			down = append(down, rep)
		}
	}
	return append(healthy, down...)
}

// shardMap is one immutable routing-table snapshot: groups sorted by
// Range.Lo, tiling [0, total). Requests load it once and route every
// pair of the request against the same snapshot.
type shardMap struct {
	groups []*replicaGroup
	total  int
}

// groupOf returns the group owning global node u (u must be validated
// against total first).
func (m *shardMap) groupOf(u int) *replicaGroup {
	i := sort.Search(len(m.groups), func(i int) bool { return m.groups[i].rng.Hi > u })
	return m.groups[i]
}

// sameRanges reports whether two snapshots route identically (same
// group ranges in the same order; replica health is not compared).
func (m *shardMap) sameRanges(o *shardMap) bool {
	if o == nil || m.total != o.total || len(m.groups) != len(o.groups) {
		return false
	}
	for i := range m.groups {
		if m.groups[i].rng != o.groups[i].rng {
			return false
		}
	}
	return true
}

// buildShardMap validates that the groups tile one id space exactly —
// every node owned by exactly one group — and returns the sorted
// snapshot. Groups may be given in any order.
func buildShardMap(groups []*replicaGroup) (*shardMap, error) {
	if len(groups) == 0 {
		return nil, fmt.Errorf("serve: router needs at least one shard")
	}
	sorted := append([]*replicaGroup(nil), groups...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].rng.Lo < sorted[j].rng.Lo })
	want := 0
	for i, g := range sorted {
		if len(g.replicas) == 0 {
			return nil, fmt.Errorf("serve: shard %d has no replicas", i)
		}
		if g.rng.Lo != want {
			return nil, fmt.Errorf("serve: shard ranges do not tile the id space: %s does not start at %d", g.rng, want)
		}
		if g.rng.Hi <= g.rng.Lo {
			return nil, fmt.Errorf("serve: shard %d range %s is empty", i, g.rng)
		}
		want = g.rng.Hi
	}
	return &shardMap{groups: sorted, total: want}, nil
}

// upstreamFault marks an attempt failure that is the contacted
// replica's fault — a connection error, a per-attempt timeout, or a
// 5xx answer. Faults count against the replica's health and retry on
// the next candidate; every other error is terminal for the call.
type upstreamFault struct{ err error }

func (f *upstreamFault) Error() string { return f.err.Error() }
func (f *upstreamFault) Unwrap() error { return f.err }

func faultf(format string, args ...any) error {
	return &upstreamFault{fmt.Errorf(format, args...)}
}

func isFault(err error) bool {
	var f *upstreamFault
	return errors.As(err, &f)
}

// attemptOne runs one upstream call against one replica under the
// per-attempt timeout, charging the outcome to the replica's health
// record. An attempt cut off from outside — a hedge race already won,
// the client gone, or the router's own request deadline expired —
// charges nothing: only the per-attempt timeout, whose budget belongs
// to this replica alone, is evidence the replica is slow.
func attemptOne[T any](rt *Router, ctx context.Context, rep *replica, call func(ctx context.Context, base string) (T, error)) (T, error) {
	actx, cancel := rt.attemptCtx(ctx)
	defer cancel()
	v, err := call(actx, rep.base)
	if err == nil {
		rt.markSuccess(rep)
		return v, nil
	}
	if isFault(err) {
		if ctx.Err() != nil {
			return v, err
		}
		rt.upstreamErrors.Add(1)
		rt.markFailure(rep)
		err = fmt.Errorf("%s: %w", rep.base, err)
	}
	return v, err
}

// attemptCtx derives the per-attempt context: bounded by the attempt
// timeout when one is configured, the parent alone otherwise.
func (rt *Router) attemptCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if rt.attemptTimeout > 0 {
		return context.WithTimeout(ctx, rt.attemptTimeout)
	}
	return context.WithCancel(ctx)
}

// backoffDelay is the jittered exponential backoff before retry
// attempt n (0-based): base<<n plus up to 50% jitter, capped at 1s.
func (rt *Router) backoffDelay(n int) time.Duration {
	if rt.retryBackoff <= 0 {
		return 0
	}
	d := rt.retryBackoff << n
	if d > time.Second {
		d = time.Second
	}
	return d + time.Duration(rand.Int63n(int64(d)/2+1))
}

// doReplicated resolves one upstream call against a replica group: a
// hedged first wave when hedging is enabled and a second replica
// exists, then sequential retries with jittered exponential backoff
// over the remaining candidates (cycling, so even a single-replica
// group gets its retry budget). Only replica faults retry; the first
// terminal answer wins immediately.
func doReplicated[T any](rt *Router, ctx context.Context, g *replicaGroup, call func(ctx context.Context, base string) (T, error)) (T, error) {
	var zero T
	cands := g.candidates()
	start := 0
	var lastErr error
	if rt.hedgeDelay > 0 && len(cands) >= 2 {
		v, err, launched := hedgedFirst(rt, ctx, cands, call)
		if err == nil {
			return v, nil
		}
		if !isFault(err) {
			return zero, err
		}
		lastErr = err
		start = launched
	}
	for i := start; i < rt.maxAttempts; i++ {
		if i > 0 {
			rt.retries.Add(1)
			select {
			case <-ctx.Done():
				return zero, faultf("waiting to retry shard %s: %w", g.rng, ctx.Err())
			case <-time.After(rt.backoffDelay(i - 1)):
			}
		}
		v, err := attemptOne(rt, ctx, cands[i%len(cands)], call)
		if err == nil {
			return v, nil
		}
		if !isFault(err) {
			return zero, err
		}
		lastErr = err
	}
	return zero, fmt.Errorf("shard %s: all %d attempts failed: %w", g.rng, rt.maxAttempts, lastErr)
}

// hedgedFirst races the first candidate against the second: the hedge
// launches when the primary is still silent at the hedge delay (or
// immediately, as a plain retry, when the primary faults first). The
// first success cancels the loser. Returns how many attempts were
// consumed so the retry loop continues after them.
func hedgedFirst[T any](rt *Router, ctx context.Context, cands []*replica, call func(ctx context.Context, base string) (T, error)) (T, error, int) {
	var zero T
	type attemptResult struct {
		v     T
		err   error
		hedge bool
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	ch := make(chan attemptResult, 2)
	run := func(rep *replica, hedge bool) {
		v, err := attemptOne(rt, cctx, rep, call)
		ch <- attemptResult{v: v, err: err, hedge: hedge}
	}
	go run(cands[0], false)
	timer := time.NewTimer(rt.hedgeDelay)
	defer timer.Stop()
	launched := 1
	var lastErr error
	for got := 0; got < launched; {
		select {
		case <-timer.C:
			if launched == 1 {
				rt.hedgesFired.Add(1)
				launched = 2
				go run(cands[1], true)
			}
		case res := <-ch:
			got++
			if res.err == nil {
				if res.hedge {
					rt.hedgesWon.Add(1)
				}
				cancel() // the loser's request is torn down, not abandoned
				return res.v, nil, launched
			}
			if !isFault(res.err) {
				cancel()
				return zero, res.err, launched
			}
			lastErr = res.err
			if launched == 1 {
				// The primary faulted before the hedge delay: the second
				// replica is now a plain retry, not a hedge — its win must
				// not count as a hedge win.
				rt.retries.Add(1)
				launched = 2
				go run(cands[1], false)
			}
		}
	}
	return zero, lastErr, launched
}

// startProber launches the background health prober: every interval it
// re-polls each replica's /healthz and /stats, ejecting and
// reinstating through the same health accounting live traffic uses,
// and refreshes the shard map when any healthy replica reports a node
// range that disagrees with the current map.
func (rt *Router) startProber(interval time.Duration) {
	rt.wg.Add(1)
	go func() {
		defer rt.wg.Done()
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-rt.ctx.Done():
				return
			case <-ticker.C:
				rt.probeOnce()
			}
		}
	}()
}

// probeOnce is one prober sweep over the current map's replicas.
func (rt *Router) probeOnce() {
	m := rt.smap.Load()
	stale := false
	for _, g := range m.groups {
		for _, rep := range g.replicas {
			rng, ok := rt.probeReplica(rep)
			if !ok {
				continue
			}
			if rng != g.rng {
				stale = true
			}
		}
	}
	rt.probes.Add(1)
	if stale {
		if err := rt.RefreshShardMap(rt.ctx); err != nil && rt.ctx.Err() == nil {
			rt.logger.Printf("serve: router shard-map refresh failed: %v", err)
		}
	}
}

// probeReplica checks one replica's liveness (/healthz) and, when
// alive, learns its current node range (/stats). Both outcomes feed
// the replica's health streaks.
func (rt *Router) probeReplica(rep *replica) (distsketch.ShardRange, bool) {
	actx, cancel := rt.attemptCtx(rt.ctx)
	defer cancel()
	if err := getOK(actx, rt.client, rep.base+"/healthz"); err != nil {
		rt.markFailure(rep)
		return distsketch.ShardRange{}, false
	}
	stats, err := fetchUpstreamStats(actx, rt.client, rep.base)
	if err != nil {
		rt.markFailure(rep)
		return distsketch.ShardRange{}, false
	}
	rt.markSuccess(rep)
	return rangeOfStats(stats), true
}

// getOK performs a GET and demands a 200.
func getOK(ctx context.Context, client *http.Client, url string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	drainBody(resp)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s answered %d", url, resp.StatusCode)
	}
	return nil
}

// kickRefresh schedules one asynchronous shard-map refresh, coalescing
// concurrent kicks (a batch hitting a stale map produces one 421 per
// pair; one refresh fixes all of them).
func (rt *Router) kickRefresh() {
	if !rt.refreshing.CompareAndSwap(false, true) {
		return
	}
	rt.wg.Add(1)
	go func() {
		defer rt.wg.Done()
		defer rt.refreshing.Store(false)
		ctx, cancel := context.WithTimeout(rt.ctx, 10*time.Second)
		defer cancel()
		if err := rt.RefreshShardMap(ctx); err != nil && rt.ctx.Err() == nil {
			rt.logger.Printf("serve: router stale-map refresh failed: %v", err)
		}
	}()
}

// RefreshShardMap re-discovers every configured replica group's node
// range from the fleet's /stats and atomically swaps in the rebuilt
// routing map, so shards can be restarted or re-split under a live
// router. Within a group the reachable replicas must agree on range
// and envelope checksum; a group whose every replica is unreachable,
// or a rebuilt map that does not tile the id space (the fleet caught
// mid-restart), leaves the current map serving and returns the error.
func (rt *Router) RefreshShardMap(ctx context.Context) error {
	rt.refreshMu.Lock()
	defer rt.refreshMu.Unlock()
	groups := make([]*replicaGroup, 0, len(rt.groupBases))
	for _, bases := range rt.groupBases {
		rng, _, err := discoverGroup(ctx, rt.client, bases)
		if err != nil {
			rt.mapRefreshFails.Add(1)
			return fmt.Errorf("serve: refreshing shard map: %w", err)
		}
		groups = append(groups, &replicaGroup{rng: rng, replicas: rt.replicasFor(bases)})
	}
	m, err := buildShardMap(groups)
	if err != nil {
		rt.mapRefreshFails.Add(1)
		return fmt.Errorf("serve: refreshing shard map: %w", err)
	}
	old := rt.smap.Swap(m)
	rt.mapRefreshes.Add(1)
	if !m.sameRanges(old) {
		for _, g := range m.groups {
			rt.logger.Printf("serve: router shard map refreshed: %s -> %d replicas", g.rng, len(g.replicas))
		}
	}
	return nil
}

// replicasFor resolves base URLs to their persistent health records.
func (rt *Router) replicasFor(bases []string) []*replica {
	out := make([]*replica, len(bases))
	for i, b := range bases {
		out[i] = rt.replicas[b]
	}
	return out
}

// discoverGroup learns one replica group's node range and envelope
// checksum from its members' /stats. Unreachable replicas are skipped
// (they are probably down — the prober and live traffic handle them);
// the reachable ones must agree exactly, because replicas of a group
// are promised byte-identical: a range or checksum mismatch means the
// operator pointed the group at the wrong envelope, and routing to it
// would serve wrong answers, not degraded ones.
func discoverGroup(ctx context.Context, client *http.Client, bases []string) (distsketch.ShardRange, uint32, error) {
	var (
		rng     distsketch.ShardRange
		cksum   uint32
		from    string
		have    bool
		lastErr error
	)
	for _, base := range bases {
		stats, err := fetchUpstreamStats(ctx, client, base)
		if err != nil {
			lastErr = err
			continue
		}
		r := rangeOfStats(stats)
		if !have {
			rng, cksum, from, have = r, stats.EnvelopeChecksum, base, true
			continue
		}
		if r != rng {
			return rng, 0, fmt.Errorf("replicas disagree on node range: %s reports %s, %s reports %s", from, rng, base, r)
		}
		if cksum != 0 && stats.EnvelopeChecksum != 0 && cksum != stats.EnvelopeChecksum {
			return rng, 0, fmt.Errorf("replicas disagree on envelope checksum: %s reports %08x, %s reports %08x — replica sets must serve byte-identical envelopes", from, cksum, base, stats.EnvelopeChecksum)
		}
		if cksum == 0 {
			cksum = stats.EnvelopeChecksum
		}
	}
	if !have {
		return rng, 0, fmt.Errorf("no replica of %v reachable: %w", bases, lastErr)
	}
	return rng, cksum, nil
}

// rangeOfStats maps an upstream's /stats to the node range it answers:
// its shard range, or [0, nodes) for an unsharded full set.
func rangeOfStats(stats *StatsReply) distsketch.ShardRange {
	if stats.Shard != nil {
		return distsketch.ShardRange{Lo: stats.Shard.Lo, Hi: stats.Shard.Hi}
	}
	return distsketch.ShardRange{Lo: 0, Hi: stats.Nodes}
}
