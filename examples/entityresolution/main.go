// Entity resolution on a fixed budget: a data team has 250 candidate
// duplicate pairs to verify and exactly $30 to spend. The example solves the
// Section 4 problem — the optimal static two-price allocation on the convex
// hull of (c, 1/p(c)) — cross-checks it against the exact pseudo-polynomial
// DP, and simulates the completion-time distribution the team should expect
// (the Figure 11 analysis).
//
//	go run ./examples/entityresolution
package main

import (
	"fmt"
	"log"
	"maps"
	"slices"

	"crowdpricing/internal/choice"
	"crowdpricing/internal/core"
	"crowdpricing/internal/dist"
	"crowdpricing/internal/rate"
	"crowdpricing/internal/sim"
	"crowdpricing/internal/stats"
)

func main() {
	log.SetFlags(0)

	problem := &core.BudgetProblem{
		N:        250,
		Budget:   3000, // cents
		Accept:   choice.Paper13,
		MinPrice: 1,
		MaxPrice: 50,
	}

	// The near-optimal two-price strategy (Algorithm 3).
	hull, err := problem.SolveHull()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("hull strategy (at most two prices, Theorem 7):")
	for _, price := range slices.Sorted(maps.Keys(hull.Counts)) {
		fmt.Printf("  %4d tasks at %d cents\n", hull.Counts[price], price)
	}
	fmt.Printf("committed spend: %d of %d cents\n", hull.TotalCost(), problem.Budget)

	// Cross-check against the exact integer optimum (Theorem 6): the gap is
	// bounded by one task's 1/p difference (Theorem 8).
	exact, err := problem.SolveExactDP()
	if err != nil {
		log.Fatal(err)
	}
	hw := hull.ExpectedWorkerArrivals(problem.Accept)
	ew := exact.ExpectedWorkerArrivals(problem.Accept)
	fmt.Printf("\nexpected worker arrivals: hull %.0f vs exact DP %.0f (gap %.2f)\n", hw, ew, hw-ew)

	// What completion time does that buy? Simulate against a steady
	// marketplace (Section 5.3).
	lambdaBar := 5200.0
	fmt.Printf("analytic E[T] = E[W]/lambda = %.1f hours\n", hull.ExpectedLatency(problem.Accept, lambdaBar))
	times := sim.BudgetCompletion(hull, problem.Accept, rate.Constant(lambdaBar), 200, 300, dist.NewRNG(7))
	finite := sim.SortedFinite(times)
	if len(finite) == 0 {
		log.Fatal("no trial finished")
	}
	fmt.Printf("simulated completion time over %d runs:\n", len(finite))
	fmt.Printf("  mean %.1fh   p5 %.1fh   median %.1fh   p95 %.1fh\n",
		stats.Mean(finite),
		stats.Quantile(finite, 0.05),
		stats.Quantile(finite, 0.5),
		stats.Quantile(finite, 0.95))
	fmt.Println("note the spread: a fixed budget bounds spend, not latency (Section 5.3).")
}
