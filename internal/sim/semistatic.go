package sim

import (
	"errors"

	"crowdpricing/internal/choice"
	"crowdpricing/internal/dist"
)

// SemiStaticArrivals simulates a semi-static pricing strategy (Definition 2
// of the paper): the i-th remaining task is offered at prices[i], and the
// price switches to the next entry the moment a task is taken. It returns
// the number of worker arrivals consumed per trial — the quantity Theorem 5
// proves has expectation Σ 1/p(cᵢ) regardless of the order of the sequence.
func SemiStaticArrivals(prices []int, accept choice.AcceptanceFn, trials int, r *dist.RNG) ([]int, error) {
	if len(prices) == 0 {
		return nil, errors.New("sim: empty price sequence")
	}
	if accept == nil || trials <= 0 {
		return nil, errors.New("sim: invalid acceptance function or trial count")
	}
	for _, c := range prices {
		if accept.Accept(c) <= 0 {
			return nil, errors.New("sim: a price has zero acceptance; E[W] is infinite")
		}
	}
	out := make([]int, trials)
	for trial := 0; trial < trials; trial++ {
		arrivals := 0
		for _, c := range prices {
			// Arrivals until one accepts: geometric failures + the success.
			arrivals += dist.Geometric{P: accept.Accept(c)}.Sample(r) + 1
		}
		out[trial] = arrivals
	}
	return out, nil
}
