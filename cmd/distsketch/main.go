// distsketch is a command-line front end for building distance sketches on
// generated networks, persisting the built sets, and issuing distance
// queries against them.
//
// Usage examples:
//
//	distsketch -family geometric -n 256 -kind tz -k 3 -query 0:255,3:17
//	distsketch -family barabasi-albert -n 512 -kind graceful -summary
//	distsketch -family grid -n 100 -kind landmark -eps 0.25 -dump 5
//
// A built set can be saved and served later without reconstruction:
//
//	distsketch -family geometric -n 1024 -kind tz -saveset net.dsk
//	distsketch -loadset net.dsk -query 0:1023,5:900
//
// A saved envelope can be sliced into node-range shards for a
// horizontally scaled deployment (sketchserve per shard, sketchrouter
// in front); -mmap opens the envelope zero-copy, so splitting a
// multi-GB set streams blobs from the page cache instead of the heap:
//
//	distsketch -loadset net.dsk -mmap -split 4 -splitout shards/
package main

import (
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"distsketch"
	"distsketch/internal/atomicfile"
)

func main() {
	family := flag.String("family", distsketch.FamilyGeometric, "graph family (erdos-renyi, geometric, grid, ring, tree, barabasi-albert, small-world, hypercube)")
	n := flag.Int("n", 256, "number of nodes")
	minW := flag.Int64("minw", 1, "minimum edge weight")
	maxW := flag.Int64("maxw", 100, "maximum edge weight")
	seed := flag.Uint64("seed", 1, "random seed")
	kind := flag.String("kind", "tz", "sketch kind: tz | landmark | cdg | graceful")
	k := flag.Int("k", 3, "Thorup–Zwick hierarchy depth (tz, cdg)")
	eps := flag.Float64("eps", 0.125, "slack parameter (landmark, cdg)")
	detection := flag.Bool("detection", false, "use in-band Section 3.3 termination detection (tz only)")
	queries := flag.String("query", "", "comma-separated u:v pairs to estimate")
	dump := flag.Int("dump", -1, "dump node's serialized sketch as hex")
	summary := flag.Bool("summary", true, "print construction cost summary")
	phases := flag.Bool("phases", false, "print the per-phase cost breakdown")
	load := flag.String("load", "", "read the network from an edge-list file instead of generating one")
	save := flag.String("save", "", "write the generated network to an edge-list file")
	saveSet := flag.String("saveset", "", "write the built sketch set to this file")
	loadSet := flag.String("loadset", "", "serve queries from a previously saved sketch set (skips the build)")
	useMmap := flag.Bool("mmap", false, "open -loadset memory-mapped (zero payload copy)")
	split := flag.Int("split", 0, "slice the set into this many node-range shard envelopes (with -splitout)")
	splitOut := flag.String("splitout", "", "directory receiving -split shard envelopes (created if missing)")
	flag.Parse()

	var set *distsketch.SketchSet
	if *loadSet != "" {
		// The recovering loaders: stale temps from a killed -saveset are
		// swept, and a torn or corrupt envelope is quarantined to
		// <file>.corrupt with a typed error naming the bad byte offset.
		var err error
		if *useMmap {
			set, err = distsketch.OpenSketchSet(*loadSet)
		} else {
			set, err = distsketch.LoadSketchSet(*loadSet)
		}
		if err != nil {
			fatal(err)
		}
		defer set.Close()
		if *summary {
			fmt.Printf("loaded:  %s (%d nodes, kind=%s, envelope v%d, %d/%d sketches decoded, backing=%s)\n",
				*loadSet, set.N(), set.Kind(), set.EnvelopeVersion(), set.DecodedSketches(), set.N(), set.Backing())
		}
	} else {
		var g *distsketch.Graph
		var err error
		if *load != "" {
			f, ferr := os.Open(*load)
			if ferr != nil {
				fatal(ferr)
			}
			g, err = distsketch.ReadGraph(f)
			f.Close()
		} else {
			g, err = distsketch.NewRandomWeightedGraph(*family, *n, *minW, *maxW, *seed)
		}
		if err != nil {
			fatal(err)
		}
		if *save != "" {
			// Atomic write: a crash (or a full disk) mid-save leaves the old
			// edge list intact instead of a partial file, and every error —
			// including the close/fsync the bare os.Create path used to drop
			// — reaches the exit code.
			if err := atomicfile.WriteFile(*save, func(w io.Writer) error {
				return distsketch.WriteGraph(w, g)
			}); err != nil {
				fatal(err)
			}
		}
		set, err = distsketch.Build(g, distsketch.Options{
			Kind:      distsketch.Kind(*kind),
			K:         *k,
			Eps:       *eps,
			Seed:      *seed,
			Detection: *detection,
		})
		if err != nil {
			fatal(err)
		}
		if *summary {
			fmt.Printf("graph:   family=%s n=%d m=%d seed=%d\n", *family, g.N(), g.M(), *seed)
		}
	}

	if *summary {
		fmt.Printf("sketch:  kind=%s", set.Kind())
		if *loadSet == "" {
			// Parameter details come from the build flags; a loaded set
			// was built with its own (unrecorded) parameters.
			switch set.Kind() {
			case distsketch.KindTZ:
				fmt.Printf(" k=%d stretch≤%d", *k, 2**k-1)
			case distsketch.KindCDG:
				fmt.Printf(" k=%d eps=%g stretch≤%d (ε-slack)", *k, *eps, 8**k-1)
			case distsketch.KindLandmark:
				fmt.Printf(" eps=%g stretch≤3 (ε-slack)", *eps)
			case distsketch.KindGraceful:
				fmt.Printf(" worst stretch O(log n), avg stretch O(1)")
			}
		}
		fmt.Println()
		fmt.Printf("cost:    rounds=%d messages=%d words=%d\n", set.Rounds(), set.Messages(), set.Words())
		fmt.Printf("size:    max=%d words, mean=%.1f words\n", set.MaxSketchWords(), set.MeanSketchWords())
	}

	if *phases {
		cost := set.Cost()
		fmt.Printf("%-24s  %10s  %14s  %14s\n", "phase", "rounds", "messages", "words")
		for _, p := range cost.Phases {
			fmt.Printf("%-24s  %10d  %14d  %14d\n", p.Name, p.Rounds, p.Messages, p.Words)
		}
		fmt.Printf("%-24s  %10d  %14d  %14d\n", "total", cost.Total.Rounds, cost.Total.Messages, cost.Total.Words)
	}

	if *saveSet != "" {
		// Crash-safe save: temp file + fsync + atomic rename, so a kill at
		// any instant leaves either the previous envelope or the new one —
		// never a torn file the next -loadset trips over.
		if err := distsketch.SaveSketchSet(*saveSet, set, distsketch.SetVersion2); err != nil {
			fatal(err)
		}
		if *summary {
			fmt.Printf("saved:   %s (envelope v%d)\n", *saveSet, distsketch.SetVersion2)
		}
	}

	if *split > 0 || *splitOut != "" {
		if *split <= 0 || *splitOut == "" {
			fatal(fmt.Errorf("-split and -splitout go together (got -split %d, -splitout %q)", *split, *splitOut))
		}
		if *split > set.N() {
			fatal(fmt.Errorf("cannot split %d nodes into %d shards", set.N(), *split))
		}
		if err := os.MkdirAll(*splitOut, 0o755); err != nil {
			fatal(err)
		}
		ranges := distsketch.EvenShardRanges(set.N(), *split)
		paths, err := distsketch.SaveShards(*splitOut, set, ranges)
		if err != nil {
			fatal(err)
		}
		if *summary {
			for i, p := range paths {
				fmt.Printf("shard:   %s nodes %s\n", p, ranges[i])
			}
		}
	}

	if *queries != "" {
		for _, q := range strings.Split(*queries, ",") {
			parts := strings.SplitN(strings.TrimSpace(q), ":", 2)
			if len(parts) != 2 {
				fatal(fmt.Errorf("bad query %q (want u:v)", q))
			}
			u, err1 := strconv.Atoi(parts[0])
			v, err2 := strconv.Atoi(parts[1])
			if err1 != nil || err2 != nil {
				fatal(fmt.Errorf("bad query %q", q))
			}
			est, err := set.QueryChecked(u, v)
			if err != nil {
				fatal(fmt.Errorf("query %q: %w", q, err))
			}
			if est == distsketch.Inf {
				fmt.Printf("d(%d,%d) ≈ ∞ (no common reference in sketches)\n", u, v)
			} else {
				fmt.Printf("d(%d,%d) ≈ %d\n", u, v, est)
			}
		}
	}

	if *dump >= 0 {
		blob, err := set.SketchBytesChecked(*dump)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("sketch of node %d (%d bytes, %d words):\n%s\n",
			*dump, len(blob), set.SketchWords(*dump), hex.Dump(blob))
	}
}

func fatal(err error) {
	// Library errors already carry the "distsketch: " prefix; don't
	// stutter it.
	fmt.Fprintln(os.Stderr, "distsketch:", strings.TrimPrefix(err.Error(), "distsketch: "))
	os.Exit(1)
}
