// vclint runs vcprof's determinism and concurrency analyzers over the
// repository (see internal/analysis and DESIGN.md §6).
//
// Usage:
//
//	vclint [-json] [-why] [-list] [packages]
//
// Packages are directory patterns relative to the working directory
// ("./...", "./internal/harness", "internal/analysis/testdata/detnow");
// the default is "./...". Wildcard patterns skip testdata directories,
// so the repo gate stays clean while fixture trees remain individually
// lintable.
//
// Exit status: 0 when no findings, 1 when findings were reported, 2 on
// usage, load, or type-check errors. Findings print one per line as
// file:line:col: analyzer: message, or as one JSON object with -json
// (whole-program findings carry their root→sink call chain in a
// "chain" array). -why appends the call chain to each chain-carrying
// text finding, one indented hop per line.
// Suppress an individual finding with //lint:ignore <analyzer> <reason>
// on the same line or the line above; chain-carrying findings may also
// be suppressed on the declaration line of the function containing the
// sink (the chain's last hop).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"vcprof/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vclint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON object")
	why := fs.Bool("why", false, "print the root→sink call chain under each whole-program finding")
	list := fs.Bool("list", false, "list analyzers and exit")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: vclint [-json] [-why] [-list] [packages]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	analyzers := analysis.VCProfAnalyzers()
	if *list {
		for _, az := range analyzers {
			fmt.Fprintf(stdout, "%-12s %s\n", az.Name, az.Doc)
		}
		return 0
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	loader, err := analysis.NewLoader(".")
	if err != nil {
		fmt.Fprintln(stderr, "vclint:", err)
		return 2
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "vclint:", err)
		return 2
	}
	diags := analysis.Run(pkgs, analyzers)
	if *jsonOut {
		if err := analysis.RenderJSON(stdout, diags); err != nil {
			fmt.Fprintln(stderr, "vclint:", err)
			return 2
		}
	} else {
		analysis.RenderText(stdout, diags, *why)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "vclint: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		return 1
	}
	return 0
}
