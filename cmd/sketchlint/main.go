// Command sketchlint is the multichecker for this repository's
// invariant-enforcing analyzers. It loads the packages matching its
// argument patterns (default ./...), runs every registered analyzer,
// prints surviving diagnostics in vet format
// (path:line:col: analyzer: message), and exits 1 if there were any.
//
// Suppression: //sketchlint:ignore <analyzer> <reason> on the flagged
// line or the line above. The reason is mandatory.
package main

import (
	"flag"
	"fmt"
	"os"

	"distsketch/internal/lint/analysis"
	"distsketch/internal/lint/canonlabel"
	"distsketch/internal/lint/hotpathalloc"
	"distsketch/internal/lint/std"
	"distsketch/internal/lint/swapdiscipline"
	"distsketch/internal/lint/wirebounds"
)

// analyzers is the full suite: the four invariant analyzers plus the
// vet-family passes reimplemented in internal/lint/std (copylocks is not
// among them: go vet runs it).
var analyzers = []*analysis.Analyzer{
	canonlabel.Analyzer,
	hotpathalloc.Analyzer,
	swapdiscipline.Analyzer,
	wirebounds.Analyzer,
	std.Nilness,
	std.Unusedwrite,
}

func main() {
	list := flag.Bool("list", false, "list registered analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: sketchlint [packages]\n\n")
		fmt.Fprintf(flag.CommandLine.Output(), "Runs the distsketch invariant analyzers over the given package\npatterns (default ./...).\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-15s %s\n", a.Name, a.Doc)
		}
		return
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sketchlint:", err)
		os.Exit(2)
	}
	diags, err := analysis.RunAnalyzers(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sketchlint:", err)
		os.Exit(2)
	}
	for _, d := range diags {
		fmt.Printf("%s: %s: %s\n", d.Position, d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "sketchlint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
