// sketchbench runs the paper's per-theorem reproduction experiments
// (package internal/experiments: E1–E14, F1 and F2) and prints each one's
// table: the measured quantity beside the bound its theorem or lemma
// proves. It exits 1 if a bound was violated or the report could not be
// written, and 2 on a bad flag.
//
// Usage:
//
//	sketchbench                   # all experiments, quick scale
//	sketchbench -scale full       # six families, n up to 512, 3 seeds
//	sketchbench -exp E6,E10       # a subset
//	sketchbench -json report.json # also write the report as JSON ('-' for stdout)
//
// The JSON report records each experiment's name, wall-clock seconds and
// verdict beside its whole table (title, header, rows, notes, failures),
// so two revisions' reports can be diffed quantity by quantity.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"distsketch/internal/experiments"
)

// report is the -json output schema.
type report struct {
	Scale        string   `json:"scale"`
	GoVersion    string   `json:"go_version"`
	GOMAXPROCS   int      `json:"gomaxprocs"`
	Experiments  []expRun `json:"experiments"`
	TotalSeconds float64  `json:"total_seconds"`
	OK           bool     `json:"ok"`
}

// expRun is one experiment's record: its name, wall-clock seconds and
// verdict, with its table's fields inlined beside them.
type expRun struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
	OK      bool    `json:"ok"`
	*experiments.Table
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses args, runs the chosen experiments, prints their tables to
// stdout and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sketchbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scale := fs.String("scale", "quick", "sweep scale: quick | full")
	exp := fs.String("exp", "all", "comma-separated experiment IDs (E1..E14, F1, F2) or 'all'")
	jsonPath := fs.String("json", "", "also write the report as JSON to this file ('-' for stdout)")
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "unexpected arguments %q\n", fs.Args())
		return 2
	}
	var sc experiments.Scale
	switch *scale {
	case "quick":
		sc = experiments.Quick
	case "full":
		sc = experiments.Full
	default:
		fmt.Fprintf(stderr, "unknown scale %q (want quick or full)\n", *scale)
		return 2
	}

	// Resolve every name before running any, so a typo fails at once.
	names := experiments.Names()
	if *exp != "all" {
		names = strings.Split(*exp, ",")
	}
	funcs := make([]func(experiments.Config) *experiments.Table, len(names))
	for i, name := range names {
		names[i] = strings.ToUpper(strings.TrimSpace(name))
		if funcs[i] = experiments.ByName(names[i]); funcs[i] == nil {
			fmt.Fprintf(stderr, "unknown experiment %q\n", name)
			return 2
		}
	}

	rep := report{
		Scale:      *scale,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		OK:         true,
	}
	cfg := experiments.NewConfig(sc)
	total := time.Now()
	for i, f := range funcs {
		start := time.Now()
		tab := f(cfg)
		took := time.Since(start)
		fmt.Fprintln(stdout, tab.String())
		fmt.Fprintf(stdout, "(%s)\n\n", took.Round(time.Millisecond))
		rep.Experiments = append(rep.Experiments, expRun{
			Name: names[i], Seconds: took.Seconds(), OK: tab.OK(), Table: tab,
		})
		rep.OK = rep.OK && tab.OK()
	}
	elapsed := time.Since(total)
	rep.TotalSeconds = elapsed.Seconds()
	if *exp == "all" {
		fmt.Fprintf(stdout, "total: %s\n", elapsed.Round(time.Millisecond))
	}
	if *jsonPath != "" {
		if err := writeReport(*jsonPath, stdout, &rep); err != nil {
			fmt.Fprintf(stderr, "writing %s: %v\n", *jsonPath, err)
			return 1
		}
	}
	if !rep.OK {
		fmt.Fprintln(stderr, "some paper bounds were violated")
		return 1
	}
	return 0
}

// writeReport writes r as indented JSON to path, or to stdout for "-".
func writeReport(path string, stdout io.Writer, r *report) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
