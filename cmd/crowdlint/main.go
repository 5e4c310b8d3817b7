// Command crowdlint runs the repository's custom static-analysis suite:
// three analyzers that enforce invariants the generic toolchain cannot see.
//
//	determinism  no wall-clock reads, global rand draws, or unsorted map
//	             iteration in the deterministic packages (core, dist, nhpp,
//	             rate, sim, kinds, bench, exp, wal, every command but
//	             priced and loadbench, and the examples) or on
//	             fingerprint/snapshot paths elsewhere
//	locksafe     no blocking operations (Solve, net/http, channel ops,
//	             WaitGroup.Wait) while a campaign/engine mutex is held;
//	             every Lock pairs with an Unlock on all return paths
//	directive    every //crowdlint:allow directive is well-formed, names a
//	             real analyzer, and carries a reason after --
//
// Findings are waived in place with an escape hatch that the directive
// analyzer itself audits:
//
//	//crowdlint:allow determinism -- request-latency metric wants wall time
//
// Usage:
//
//	crowdlint [-list] [packages]
//
// crowdlint loads the packages (default ./...) with their tests from
// source, relative to the working directory, and checks every one; their
// dependencies are type-checked by declaration only.
//
// Exit status: 0 clean, 1 operational error, 2 findings or a bad flag.
package main

import (
	"flag"
	"fmt"
	"os"

	"crowdpricing/internal/analysis/suite"
)

func main() {
	listOnly := flag.Bool("list", false, "list the analyzers in the suite and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "crowdlint: repository-specific static analysis (determinism, locksafe, directive)\n\n")
		fmt.Fprintf(flag.CommandLine.Output(), "usage: crowdlint [flags] [packages]\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *listOnly {
		for _, a := range suite.Analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	diags, err := suite.Check(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "crowdlint:", err)
		os.Exit(1)
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		os.Exit(2)
	}
}
