package server_test

import (
	"context"
	"fmt"
	"net/http/httptest"

	"crowdpricing/internal/kinds"
	"crowdpricing/internal/server"
)

// ExampleClient_Solve shows the kind-generic client path: any registered
// problem kind is one Solve call away, with no kind-specific client code.
// Here the "multi" kind (the paper's general-k multi-type extension) is
// solved and decoded — the same pattern serves kinds added after this
// client was written.
func ExampleClient_Solve() {
	daemon := server.New(server.Options{CacheSize: 64})
	defer daemon.Close()
	ts := httptest.NewServer(daemon.Handler())
	defer ts.Close()

	client := server.NewClient(ts.URL)
	req := kinds.MultiRequest{
		Counts:    []int{2, 2}, // two task types, two tasks each
		Intervals: 3,
		Lambdas:   []float64{40, 40, 40},
		Accepts: []kinds.LogisticParams{
			{S: 15, B: -0.39, M: 2000},
			{S: 12, B: -0.40, M: 1500},
		},
		MinPrice: 1, MaxPrice: 5,
		Penalty:  50,
		TruncEps: 1e-9,
	}
	resp, err := client.Solve(context.Background(), "multi", req)
	if err != nil {
		fmt.Println(err)
		return
	}
	var sched kinds.MultiSchedule
	if err := resp.Decode(&sched); err != nil {
		fmt.Println(err)
		return
	}
	again, err := client.Solve(context.Background(), "multi", req)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("kind=%s cache_hit=%v\n", resp.Kind, resp.CacheHit)
	fmt.Printf("opening price vector: %v\n", sched.Prices[0][len(sched.Prices[0])-1])
	fmt.Printf("repeat cache_hit=%v identical=%v\n", again.CacheHit, string(again.Result) == string(resp.Result))
	// Output:
	// kind=multi cache_hit=false
	// opening price vector: [5 5]
	// repeat cache_hit=true identical=true
}
