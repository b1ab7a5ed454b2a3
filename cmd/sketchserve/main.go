// sketchserve serves distance queries over HTTP from a persisted sketch
// set — the paper's query model as a network service: the build happens
// once (cmd/distsketch -saveset), and this process loads the envelope,
// keeps every sketch decoded in memory, and answers estimates from the
// sketches alone.
//
// Typical flow:
//
//	distsketch -family geometric -n 1024 -kind landmark -eps 0.25 \
//	    -saveset net.dsk -save net.edges
//	sketchserve -set net.dsk -graph net.edges -addr :7600
//
//	curl 'localhost:7600/query?u=3&v=900'
//	curl -X POST localhost:7600/query -d '{"pairs":[{"u":0,"v":9},{"u":4,"v":7}]}'
//	curl -s localhost:7600/sketch/3 | xxd | head
//	curl -s -X POST localhost:7600/sketch -d '{"nodes":[3,900]}' | xxd | head
//	curl localhost:7600/stats
//	curl -X POST localhost:7600/update-edge -d '{"u":12,"v":80,"weight":3}'
//	curl localhost:7600/healthz; curl localhost:7600/readyz
//	curl -X POST localhost:7600/save                 # with -snapshot
//
// With -mmap the envelope is memory-mapped instead of copied: startup
// is the O(n) directory scan alone, labels page in on first touch, and
// a multi-GB set serves from the page cache. A version-3 shard envelope
// (distsketch -split) serves its node range and answers 421 with a
// redirect hint for ids owned by other shards; put cmd/sketchrouter in
// front to fan queries across a shard fleet.
//
// -graph is optional; without it the server cannot apply /update-edge
// repairs (it needs the live topology) but serves queries normally.
// Note that /update-edge mutates the served set and the server does no
// authentication: expose it to untrusted clients only behind your own
// auth or network controls, or omit -graph to run read-only.
//
// Lifecycle: the envelope is loaded through the recovering loader
// (stale temp files from a killed save are swept; a torn or corrupt
// envelope is quarantined to <set>.corrupt and the process exits with a
// clear error instead of serving garbage). On SIGTERM/SIGINT the server
// drains gracefully: /readyz flips to 503 so load balancers stop
// routing here, in-flight requests (including an in-flight update swap)
// complete, new connections are refused, and a final counters line is
// logged. Overload is shed at the admission gate (-inflight) with 503 +
// Retry-After rather than queued without bound.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"distsketch"
	"distsketch/internal/atomicfile"
	"distsketch/internal/serve"
)

// sweepSetDir is the shard-directory form of the startup recovery the
// single-file loader performs: a server pointed at one envelope of a
// directory full of shards sweeps the whole directory's stale save
// temps (an interrupted SaveShards leaves siblings behind, not just
// this shard's temp) and reports any quarantined .corrupt files an
// earlier start left, so one log line names every shard needing repair.
func sweepSetDir(setPath string) {
	dir := filepath.Dir(setPath)
	if removed, err := atomicfile.CleanStaleDir(dir); err != nil {
		log.Printf("sketchserve: sweeping stale temps in %s: %v", dir, err)
	} else if len(removed) > 0 {
		log.Printf("sketchserve: removed %d stale save temp(s) from %s", len(removed), dir)
	}
	if quarantined, err := filepath.Glob(filepath.Join(dir, "*.corrupt")); err == nil && len(quarantined) > 0 {
		log.Printf("sketchserve: %d quarantined envelope(s) in %s need repair: %v", len(quarantined), dir, quarantined)
	}
}

func main() {
	setPath := flag.String("set", "", "sketch-set envelope to serve (required; see distsketch -saveset)")
	graphPath := flag.String("graph", "", "edge-list topology, enables POST /update-edge")
	addr := flag.String("addr", ":7600", "listen address")
	maxBatch := flag.Int("maxbatch", serve.DefaultMaxBatch, "max pairs per batched POST /query")
	maxInFlight := flag.Int("inflight", serve.DefaultMaxInFlight, "max concurrently executing requests; excess load is shed with 503 (negative disables)")
	reqTimeout := flag.Duration("timeout", serve.DefaultRequestTimeout, "per-request execution deadline (negative disables)")
	useMmap := flag.Bool("mmap", false, "open the envelope memory-mapped (zero payload copy; labels page in on demand)")
	snapshot := flag.String("snapshot", "", "enable POST /save: crash-safe snapshot of the served set to this path")
	readyProbe := flag.Bool("readyprobe", false, "make GET /readyz decode a label through the query path before reporting ready")
	drainTimeout := flag.Duration("drain", 30*time.Second, "graceful-shutdown grace period for in-flight requests")
	flag.Parse()

	if *setPath == "" {
		fmt.Fprintln(os.Stderr, "sketchserve: -set is required")
		flag.Usage()
		os.Exit(2)
	}
	// Startup recovery covers the whole directory, not just -set: a shard
	// server's directory holds sibling shards whose save temps and
	// quarantine leftovers deserve the same sweep.
	sweepSetDir(*setPath)
	// Both loaders recover: stale save temps are swept and a corrupt
	// envelope is quarantined so the next start does not trip on the same
	// bytes. -mmap maps the payload instead of copying it.
	var set *distsketch.SketchSet
	var err error
	if *useMmap {
		set, err = distsketch.OpenSketchSet(*setPath)
	} else {
		set, err = distsketch.LoadSketchSet(*setPath)
	}
	if err != nil {
		var ce *distsketch.ErrCorruptEnvelope
		if errors.As(err, &ce) && ce.Quarantined != "" {
			log.Fatalf("sketchserve: %v\nsketchserve: the corrupt file was quarantined to %s; restore a good envelope (e.g. the last POST /save snapshot) and restart", err, ce.Quarantined)
		}
		log.Fatalf("sketchserve: loading %s: %v", *setPath, err)
	}

	var g *distsketch.Graph
	if *graphPath != "" {
		gf, err := os.Open(*graphPath)
		if err != nil {
			log.Fatalf("sketchserve: %v", err)
		}
		g, err = distsketch.ReadGraph(gf)
		gf.Close()
		if err != nil {
			log.Fatalf("sketchserve: loading %s: %v", *graphPath, err)
		}
	}

	srv, err := serve.New(set, serve.Options{
		Graph:          g,
		MaxBatch:       *maxBatch,
		MaxInFlight:    *maxInFlight,
		RequestTimeout: *reqTimeout,
		SnapshotPath:   *snapshot,
		ProbeDecode:    *readyProbe,
	})
	if err != nil {
		log.Fatalf("sketchserve: %v", err)
	}
	// MeanSketchWords answers from the envelope's directory for a lazily
	// loaded (version-2) set, so this log line does not force any label
	// decodes — startup stays an O(n) directory scan.
	log.Printf("sketchserve: serving %s (%d nodes, kind=%s, mean sketch %.1f words, envelope v%d, %d/%d sketches decoded, backing=%s) on %s",
		*setPath, set.N(), set.Kind(), set.MeanSketchWords(), set.EnvelopeVersion(), set.DecodedSketches(), set.N(), set.Backing(), *addr)
	if set.Backing() == "mmap" {
		log.Printf("sketchserve: %d envelope bytes mapped, zero payload copy", set.MappedBytes())
	}
	if set.Sharded() {
		lo, hi := set.NodeRange()
		log.Printf("sketchserve: serving node-range shard [%d,%d) of %d nodes; ids owned by other shards answer 421 with a redirect hint", lo, hi, set.TotalNodes())
	}
	if g == nil {
		log.Printf("sketchserve: no -graph given; POST /update-edge disabled")
	}
	if *snapshot == "" {
		log.Printf("sketchserve: no -snapshot given; POST /save disabled")
	}
	// Explicit timeouts: a server for untrusted clients must not let a
	// dribbled request pin a connection forever (slowloris).
	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
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
		// The listener died on its own (port in use, fd limits) — there is
		// nothing to drain.
		log.Fatalf("sketchserve: %v", err)
	case <-ctx.Done():
		stop() // restore default signal handling: a second signal kills immediately
		log.Printf("sketchserve: shutdown signal received; draining (grace %s, /readyz now 503)", *drainTimeout)
		srv.BeginDrain()
		sctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		code := 0
		if err := hs.Shutdown(sctx); err != nil {
			// Some in-flight work outlived the grace period; close what is
			// left so the process exits promptly, and say so in the exit
			// code — an operator alerting on nonzero exits wants to know
			// drains are running long.
			log.Printf("sketchserve: drain incomplete after %s: %v; closing remaining connections", *drainTimeout, err)
			hs.Close()
			code = 1
		}
		// Unmap after the drain: every in-flight reader of the mapped
		// envelope has finished once Shutdown returns. The set being
		// served may be a repaired clone (heap-backed) of the opened set;
		// closing the served one releases the last reference either way.
		if err := srv.Set().Close(); err != nil {
			log.Printf("sketchserve: closing sketch set: %v", err)
		}
		c := srv.Counters()
		log.Printf("sketchserve: shutdown complete: %d queries served, %d updates applied, %d requests shed, %d deadline hits, %d panics recovered, %d decode failures, %d snapshots saved",
			c.Queries, c.Updates, c.Shed, c.DeadlineExceeded, c.PanicsRecovered, c.DecodeFailures, c.Snapshots)
		os.Exit(code)
	}
}
