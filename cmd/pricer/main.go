// Command pricer computes pricing strategies for a batch of crowdsourcing
// tasks against the synthetic marketplace workload.
//
// Deadline mode (default) prints the dynamic price schedule:
//
//	pricer -mode deadline -n 200 -hours 24 -confidence 0.999
//
// Budget mode prints the optimal static two-price allocation:
//
//	pricer -mode budget -n 200 -budget 2500
//
// Flags:
//
//	-mode string
//	      deadline or budget (default "deadline")
//	-n int
//	      number of tasks (default 200)
//	-hours float
//	      deadline horizon in hours, deadline mode (default 24)
//	-interval int
//	      decision interval in minutes, deadline mode (default 20)
//	-confidence float
//	      completion probability target, deadline mode (default 0.999)
//	-budget int
//	      total budget in cents, budget mode (default 2500)
//	-export string
//	      write the solved deadline policy as JSON to this path
//	-load string
//	      load a previously exported deadline policy instead of solving
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"maps"
	"os"
	"slices"

	"crowdpricing/internal/core"
	"crowdpricing/internal/exp"
	"crowdpricing/internal/nhpp"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pricer: ")
	flag.Usage = func() {
		o := flag.CommandLine.Output()
		fmt.Fprintf(o, "usage: pricer [flags]\n\n")
		fmt.Fprintf(o, "Compute deadline or budget pricing strategies for a task batch.\n\nflags:\n")
		flag.PrintDefaults()
	}
	mode := flag.String("mode", "deadline", "deadline or budget")
	n := flag.Int("n", 200, "number of tasks")
	hours := flag.Float64("hours", 24, "deadline horizon in hours (deadline mode)")
	interval := flag.Int("interval", 20, "decision interval in minutes (deadline mode)")
	confidence := flag.Float64("confidence", 0.999, "completion probability target (deadline mode)")
	budget := flag.Int("budget", 2500, "total budget in cents (budget mode)")
	export := flag.String("export", "", "write the solved deadline policy as JSON to this path")
	load := flag.String("load", "", "load a previously exported deadline policy instead of solving")
	flag.Parse()

	if *load != "" {
		loadAndPrint(*load)
		return
	}
	w := exp.DefaultWorkload()
	switch *mode {
	case "deadline":
		runDeadline(w, *n, *hours, *interval, *confidence, *export)
	case "budget":
		runBudget(w, *n, *budget)
	default:
		log.Fatalf("unknown mode %q", *mode)
	}
}

// loadAndPrint restores an exported policy and reprints its summary, the
// round-trip a production scheduler would do at startup.
func loadAndPrint(path string) {
	data, err := os.ReadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	var pol core.DeadlinePolicy
	if err := json.Unmarshal(data, &pol); err != nil {
		log.Fatal(err)
	}
	out := pol.Evaluate()
	p := pol.Problem
	fmt.Printf("loaded policy: N=%d, T=%.1fh, %d intervals\n", p.N, p.Horizon, p.Intervals)
	fmt.Printf("completion probability: %.4f   expected cost: %.1fc   avg reward: %.2fc\n",
		out.CompletionProb, out.ExpectedCost, out.AvgReward)
	fmt.Printf("price now with full backlog: %dc\n", pol.PriceAt(p.N, 0))
}

func runDeadline(w *exp.Workload, n int, hours float64, interval int, confidence float64, export string) {
	p := w.DeadlineProblem(n, hours, interval)
	cal, err := p.CalibratePenaltyForConfidence(confidence, 1e6, 18)
	if err != nil {
		log.Fatal(err)
	}
	if export != "" {
		data, err := json.Marshal(cal.Policy)
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(export, data, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("policy exported to %s\n", export)
	}
	fixed, fixedErr := p.FixedPriceForConfidence(confidence)
	out := cal.Outcome
	fmt.Printf("deadline plan: N=%d, T=%.1fh, %d intervals of %dmin\n", n, hours, p.Intervals, interval)
	fmt.Printf("completion probability: %.4f   expected cost: %.1fc   avg reward: %.2fc\n",
		out.CompletionProb, out.ExpectedCost, out.AvgReward)
	if fixedErr == nil {
		fmt.Printf("fixed-price baseline: %dc/task (expected cost %.1fc, %.0f%% more)\n",
			fixed.Price, fixed.ExpectedCost, (fixed.ExpectedCost-out.ExpectedCost)/out.ExpectedCost*100)
	}
	fmt.Println("\nprice schedule (rows: remaining tasks; cols: elapsed intervals):")
	fmt.Fprint(os.Stdout, "  n\\t ")
	step := p.Intervals / 8
	if step == 0 {
		step = 1
	}
	for t := 0; t < p.Intervals; t += step {
		fmt.Printf("%6d", t)
	}
	fmt.Println()
	nStep := n / 10
	if nStep == 0 {
		nStep = 1
	}
	for remaining := n; remaining > 0; remaining -= nStep {
		fmt.Printf("%5d ", remaining)
		for t := 0; t < p.Intervals; t += step {
			fmt.Printf("%6d", cal.Policy.PriceAt(remaining, t))
		}
		fmt.Println()
	}
}

func runBudget(w *exp.Workload, n, budget int) {
	bp := &core.BudgetProblem{
		N: n, Budget: budget, Accept: w.Accept, MinPrice: 1, MaxPrice: exp.DefaultMaxPrice,
	}
	s, err := bp.SolveHull()
	if err != nil {
		log.Fatal(err)
	}
	lambdaBar := nhpp.AverageRate(w.Arrival, exp.DefaultHorizonHours)
	fmt.Printf("budget plan: N=%d, B=%dc\n", n, budget)
	for _, price := range slices.Sorted(maps.Keys(s.Counts)) {
		fmt.Printf("  %d tasks at %dc\n", s.Counts[price], price)
	}
	fmt.Printf("committed spend: %dc of %dc\n", s.TotalCost(), budget)
	fmt.Printf("E[worker arrivals]: %.0f   E[completion time]: %.1fh (at %.0f workers/h)\n",
		s.ExpectedWorkerArrivals(w.Accept), s.ExpectedLatency(w.Accept, lambdaBar), lambdaBar)
}
