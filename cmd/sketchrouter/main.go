// sketchrouter fans distance queries out across node-range shard
// servers — the thin stateless tier that makes a sharded sketch-set
// deployment look like one server. It holds only the shard map (learned
// from each shard's /stats at startup and refreshed live when the
// fleet moves), touches at most 2 shards per (u,v) query — one when
// the pair shares a shard, two via the paper's sketch-exchange when it
// does not — and serves the same endpoint shapes as sketchserve, so
// clients need not know sharding exists.
//
// Each shard may be a replica set: join byte-identical servers with
// "|" inside one comma-separated -shards entry. Upstream calls retry
// across replicas with jittered backoff, slow reads are hedged to a
// second replica, and a background prober ejects failing replicas and
// reinstates them when they recover — killing one replica of a group
// is invisible to clients.
//
// Typical flow:
//
//	distsketch -family geometric -n 100000 -kind landmark -eps 0.25 \
//	    -saveset net.dsk
//	distsketch -loadset net.dsk -split 2 -splitout shards/
//	sketchserve -set shards/shard-0-of-2.dsk -mmap -addr :7601 &
//	sketchserve -set shards/shard-0-of-2.dsk -mmap -addr :7611 &
//	sketchserve -set shards/shard-1-of-2.dsk -mmap -addr :7602 &
//	sketchserve -set shards/shard-1-of-2.dsk -mmap -addr :7612 &
//	sketchrouter -addr :7600 \
//	    -shards 'http://localhost:7601|http://localhost:7611,http://localhost:7602|http://localhost:7612'
//
//	curl 'localhost:7600/query?u=3&v=99999'
//	curl -X POST localhost:7600/query -d '{"pairs":[{"u":0,"v":9}]}'
//	curl localhost:7600/stats
//
// The router verifies at startup that the discovered shard ranges tile
// one id space exactly — a missing or overlapping shard refuses to
// start rather than silently misrouting — and that the reachable
// replicas of each group agree on range and envelope checksum. It
// keeps no labels and no graph; restarting it is instant, and running
// several behind a load balancer needs no coordination.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"distsketch/internal/serve"
)

// discoverWithRetry learns the shard map, retrying with jittered
// exponential backoff so the router survives a rolling fleet restart
// at boot instead of crash-looping on the first briefly-down shard.
func discoverWithRetry(specs []string, attempts int, timeout time.Duration) ([]serve.RouterShard, error) {
	backoff := 500 * time.Millisecond
	var lastErr error
	for attempt := 1; attempt <= attempts; attempt++ {
		dctx, cancel := context.WithTimeout(context.Background(), timeout)
		shards, err := serve.DiscoverShards(dctx, specs, nil)
		cancel()
		if err == nil {
			if attempt > 1 {
				log.Printf("sketchrouter: shard map discovered on attempt %d/%d", attempt, attempts)
			}
			return shards, nil
		}
		lastErr = err
		if attempt == attempts {
			break
		}
		sleep := backoff + time.Duration(rand.Int63n(int64(backoff)/2+1))
		log.Printf("sketchrouter: discovery attempt %d/%d failed: %v; retrying in %s", attempt, attempts, err, sleep.Round(time.Millisecond))
		time.Sleep(sleep)
		if backoff < 8*time.Second {
			backoff *= 2
		}
	}
	return nil, fmt.Errorf("shard discovery failed after %d attempts: %w", attempts, lastErr)
}

func main() {
	addr := flag.String("addr", ":7600", "listen address")
	shardList := flag.String("shards", "", "comma-separated shard specs (required); each spec is one or more replica base URLs joined with '|', e.g. http://h:7601|http://h:7611,http://h:7602")
	maxBatch := flag.Int("maxbatch", serve.DefaultMaxBatch, "max pairs per batched POST /query")
	discoverTimeout := flag.Duration("discover-timeout", 10*time.Second, "deadline per attempt for learning the shard map from the fleet's /stats")
	discoverRetry := flag.Int("discover-retry", 5, "startup shard-discovery attempts before giving up (backoff doubles between attempts)")
	attemptTimeout := flag.Duration("attempt-timeout", serve.DefaultAttemptTimeout, "per-attempt upstream timeout; slower replicas are retried elsewhere")
	maxAttempts := flag.Int("max-attempts", serve.DefaultMaxAttempts, "upstream attempts per call across a shard's replicas")
	hedgeDelay := flag.Duration("hedge-delay", serve.DefaultHedgeDelay, "race a second replica after this silence; negative disables hedging")
	probeInterval := flag.Duration("probe-interval", 2*time.Second, "background health-probe interval; 0 disables the prober")
	maxInFlight := flag.Int("maxinflight", serve.DefaultMaxInFlight, "max concurrently executing requests before shedding 503s; negative means unbounded")
	reqTimeout := flag.Duration("request-timeout", serve.DefaultRequestTimeout, "per-request execution deadline; negative disables")
	drainTimeout := flag.Duration("drain", 30*time.Second, "graceful-shutdown grace period for in-flight requests")
	flag.Parse()

	if *shardList == "" {
		fmt.Fprintln(os.Stderr, "sketchrouter: -shards is required")
		flag.Usage()
		os.Exit(2)
	}
	var specs []string
	for _, b := range strings.Split(*shardList, ",") {
		if b = strings.TrimSpace(b); b != "" {
			specs = append(specs, b)
		}
	}
	if len(specs) == 0 {
		log.Fatalf("sketchrouter: -shards lists no base URLs")
	}
	if *discoverRetry < 1 {
		*discoverRetry = 1
	}

	shards, err := discoverWithRetry(specs, *discoverRetry, *discoverTimeout)
	if err != nil {
		log.Fatalf("sketchrouter: %v", err)
	}
	rt, err := serve.NewRouter(shards, serve.RouterOptions{
		MaxBatch:       *maxBatch,
		AttemptTimeout: *attemptTimeout,
		MaxAttempts:    *maxAttempts,
		HedgeDelay:     *hedgeDelay,
		ProbeInterval:  *probeInterval,
		MaxInFlight:    *maxInFlight,
		RequestTimeout: *reqTimeout,
	})
	if err != nil {
		log.Fatalf("sketchrouter: %v", err)
	}
	defer rt.Close()
	for _, sh := range rt.Shards() {
		log.Printf("sketchrouter: shard %s -> %s", sh.Range, strings.Join(sh.Replicas, " | "))
	}
	log.Printf("sketchrouter: routing %d nodes across %d shards on %s (≤2 shards per query, hedge %s, probe %s)",
		rt.TotalNodes(), len(rt.Shards()), *addr, *hedgeDelay, *probeInterval)

	hs := &http.Server{
		Addr:              *addr,
		Handler:           rt.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()

	select {
	case err := <-errc:
		log.Fatalf("sketchrouter: %v", err)
	case <-ctx.Done():
		stop()
		log.Printf("sketchrouter: shutdown signal received; draining (grace %s, /readyz now 503)", *drainTimeout)
		rt.BeginDrain()
		sctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		code := 0
		if err := hs.Shutdown(sctx); err != nil {
			log.Printf("sketchrouter: drain incomplete after %s: %v; closing remaining connections", *drainTimeout, err)
			hs.Close()
			code = 1
		}
		rt.Close()
		log.Printf("sketchrouter: shutdown complete")
		os.Exit(code)
	}
}
