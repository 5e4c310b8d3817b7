// Command experiments regenerates every table and figure of the paper's
// evaluation section. With no arguments it runs everything; pass experiment
// ids (table1, table2, fig1, fig5, fig6, fig7a, fig7b, fig8, fig8d, fig9,
// fig10, fig10adaptive, fig11, fig12, fig1314, fig15, quality) to run a
// subset.
//
// Flags:
//
//	-seed int
//	      base random seed (default 1)
//	-trials int
//	      Monte Carlo trials for the sensitivity studies (default 200)
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"crowdpricing/internal/exp"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	flag.Usage = func() {
		o := flag.CommandLine.Output()
		fmt.Fprintf(o, "usage: experiments [flags] [experiment-id ...]\n\n")
		fmt.Fprintf(o, "Regenerate the paper's tables and figures (all of them by default).\n\nflags:\n")
		flag.PrintDefaults()
	}
	seed := flag.Int64("seed", 1, "base random seed")
	trials := flag.Int("trials", 200, "Monte Carlo trials for the sensitivity studies")
	flag.Parse()

	if err := exp.Render(os.Stdout, flag.Args(), *seed, *trials); err != nil {
		log.Fatal(err)
	}
}
