package crowdpricing_test

// Runnable godoc examples for the public facade. Each Example's output is
// asserted by `go test`, so the usage shown on pkg.go.dev is guaranteed to
// keep working; everything here is deterministic (the solvers are exact,
// not Monte Carlo).

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sort"

	"crowdpricing"
)

// ExampleDeadlineProblem solves the fixed-deadline problem of Section 3:
// finish 20 tasks in 4 hours at minimum expected cost, varying the posted
// reward each hour.
func ExampleDeadlineProblem() {
	arrival := crowdpricing.ConstantRate(5200) // marketplace arrivals/hour
	p := &crowdpricing.DeadlineProblem{
		N:         20,
		Horizon:   4,
		Intervals: 4,
		Lambdas:   crowdpricing.IntervalMeans(arrival, 4, 4),
		Accept:    crowdpricing.Paper13,
		MinPrice:  1,
		MaxPrice:  30,
		Penalty:   300, // cents charged per task missing at the deadline
		TruncEps:  1e-9,
	}
	pol, err := p.SolveEfficient()
	if err != nil {
		fmt.Println(err)
		return
	}
	out := pol.Evaluate()
	fmt.Printf("opening price: %dc\n", pol.PriceAt(p.N, 0))
	fmt.Printf("final-hour price with full backlog: %dc\n", pol.PriceAt(p.N, p.Intervals-1))
	fmt.Printf("completion probability: %.3f\n", out.CompletionProb)
	fmt.Printf("expected cost: %.1fc\n", out.ExpectedCost)
	// Output:
	// opening price: 5c
	// final-hour price with full backlog: 30c
	// completion probability: 0.982
	// expected cost: 146.5c
}

// ExampleBudgetProblem solves the fixed-budget problem of Section 4: spend
// at most 2500 cents on 100 tasks while minimizing expected completion
// time. By Theorem 7 the optimal static strategy uses at most two prices.
func ExampleBudgetProblem() {
	p := &crowdpricing.BudgetProblem{
		N:        100,
		Budget:   2500,
		Accept:   crowdpricing.Paper13,
		MinPrice: 1,
		MaxPrice: 50,
	}
	s, err := p.SolveHull()
	if err != nil {
		fmt.Println(err)
		return
	}
	prices := make([]int, 0, len(s.Counts))
	for price := range s.Counts {
		prices = append(prices, price)
	}
	sort.Ints(prices)
	for _, price := range prices {
		fmt.Printf("%d tasks at %dc\n", s.Counts[price], price)
	}
	fmt.Printf("committed spend: %dc\n", s.TotalCost())
	fmt.Printf("E[worker arrivals]: %.0f\n", s.ExpectedWorkerArrivals(crowdpricing.Paper13))
	// Output:
	// 100 tasks at 25c
	// committed spend: 2500c
	// E[worker arrivals]: 25676
}

// ExampleNewPricingClient shows the HTTP service flow end to end: start the
// daemon (here in-process via httptest; in production, cmd/priced), solve a
// problem, and observe that repeating it is a cache hit returning the
// byte-identical policy.
func ExampleNewPricingClient() {
	daemon := crowdpricing.NewPricingServer(crowdpricing.PricingServerOptions{})
	ts := httptest.NewServer(daemon.Handler())
	defer ts.Close()

	client := crowdpricing.NewPricingClient(ts.URL)
	req := crowdpricing.DeadlineRequest{
		N:            20,
		HorizonHours: 4,
		Intervals:    4,
		Lambdas:      []float64{5200, 5200, 5200, 5200},
		Accept:       crowdpricing.LogisticParams{S: 15, B: -0.39, M: 2000},
		MinPrice:     1,
		MaxPrice:     30,
		Penalty:      300,
		TruncEps:     1e-9,
	}
	cold, err := client.Solve(context.Background(), "deadline", req)
	if err != nil {
		fmt.Println(err)
		return
	}
	warm, err := client.Solve(context.Background(), "deadline", req)
	if err != nil {
		fmt.Println(err)
		return
	}
	pol, err := warm.DecodePolicy()
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("first request cache hit: %v\n", cold.CacheHit)
	fmt.Printf("second request cache hit: %v\n", warm.CacheHit)
	fmt.Printf("identical artifacts: %v\n", string(cold.Result) == string(warm.Result))
	fmt.Printf("opening price: %dc\n", pol.PriceAt(20, 0))
	// Output:
	// first request cache hit: false
	// second request cache hit: true
	// identical artifacts: true
	// opening price: 5c
}
