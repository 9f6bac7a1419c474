// Command lrplint runs the repository's static-analysis suite: the
// determinism, mbufown, eventhandle, hotalloc, and stepreq analyzers
// (see internal/analysis and the "Static analysis & invariants"
// sections of DESIGN.md). It exits nonzero when any finding survives, so
// CI can gate on it:
//
//	go run ./cmd/lrplint ./...
//
// Modes:
//
//	lrplint -json ./...                 findings as JSON (the baseline schema)
//	lrplint -baseline lint_baseline.json ./...
//	                                    fail only on findings not in the baseline
//	lrplint -why sendFrags ./...        print call-graph paths from every
//	                                    //lrp:hotpath root to a function, for
//	                                    triaging transitive diagnostics
//
// Patterns are Go package patterns relative to the module root; with no
// arguments the whole module is checked. Test files are not analyzed —
// they deliberately exercise protocol violations. To regenerate the
// baseline after triaging findings: lrplint -json ./... > lint_baseline.json
package main

import (
	"flag"
	"fmt"
	"os"

	"lrp/internal/analysis/lrplint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as JSON (same schema as the baseline file)")
	baseline := flag.String("baseline", "", "baseline `file`; only findings absent from it count toward the exit status")
	why := flag.String("why", "", "print call-graph paths from //lrp:hotpath roots to `symbol` and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: lrplint [flags] [packages]\n\nRuns the lrp static-analysis suite:\n")
		for _, a := range lrplint.Analyzers() {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()

	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "lrplint:", err)
		os.Exit(2)
	}
	if *why != "" {
		if err := lrplint.Why(wd, *why, flag.Args(), os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "lrplint:", err)
			os.Exit(2)
		}
		return
	}
	n, err := lrplint.Run(wd, flag.Args(), os.Stdout, lrplint.Options{
		JSON:     *jsonOut,
		Baseline: *baseline,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "lrplint:", err)
		os.Exit(2)
	}
	if n > 0 {
		fmt.Fprintf(os.Stderr, "lrplint: %d new finding(s)\n", n)
		os.Exit(1)
	}
}
