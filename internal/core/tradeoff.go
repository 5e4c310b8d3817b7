package core

import (
	"errors"
	"math"

	"crowdpricing/internal/choice"
)

// TradeoffProblem optimizes the Section 6 combined objective
//
//	Q = E(cost) + Alpha·E(latency)
//
// with neither a hard deadline nor a hard budget. Two formulations are
// provided, both with state = number of outstanding tasks and O(N·C)
// complexity:
//
//   - SolveFixedRate assumes a constant marketplace rate λ per unit time and
//     unit-time steps so small that at most one task completes per step.
//   - SolveWorkerArrival relaxes that to the Section 4.2.2 linearity
//     assumption E[T] = E[W]/λ̄: transitions happen per worker arrival.
type TradeoffProblem struct {
	// N is the number of tasks.
	N int
	// Alpha is the latency weight (cost units per hour).
	Alpha float64
	// Lambda is the (average) worker arrival rate per hour.
	Lambda float64
	// Accept maps price to acceptance probability.
	Accept choice.AcceptanceFn
	// MinPrice and MaxPrice bound the price search (cents, inclusive).
	MinPrice, MaxPrice int
}

// TradeoffPolicy holds the stationary optimal prices: Price[n] is the reward
// posted while n tasks remain, and Value[n] the optimal expected remaining
// objective.
type TradeoffPolicy struct {
	Price []int
	Value []float64
}

// Validate reports whether the problem is well formed: among the rest, α
// must be finite and non-negative and λ finite and positive, since a NaN
// or infinite one passes every comparison the solvers make and fails
// only in the solve.
func (p *TradeoffProblem) Validate() error {
	switch {
	case p.N <= 0:
		return errors.New("core: N must be positive")
	case p.Alpha < 0:
		return errors.New("core: negative latency weight")
	case math.IsNaN(p.Alpha) || math.IsInf(p.Alpha, 1):
		return errors.New("core: non-finite latency weight")
	case p.Lambda <= 0:
		return errors.New("core: non-positive arrival rate")
	case math.IsNaN(p.Lambda) || math.IsInf(p.Lambda, 1):
		return errors.New("core: non-finite arrival rate")
	case p.Accept == nil:
		return errors.New("core: nil acceptance function")
	case p.MinPrice < 0 || p.MaxPrice < p.MinPrice:
		return errors.New("core: bad price range")
	}
	return nil
}

// SolveFixedRate solves the fixed-rate formulation. With per-step completion
// probability q(c) = e^{−λ̃p(c)}·λ̃p(c) (exactly one completion in a unit
// step of expected arrivals λ̃) and per-step latency cost α, the Bellman
// equation telescopes to
//
//	Opt(n) = Opt(n−1) + min_c [ c + α̃/q(c) ],
//
// where α̃ is the per-step latency cost. The step is taken as one hour's
// worth of arrivals scaled down so λ̃·max_c p(c) ≤ 0.1, keeping the
// "at most one completion per step" reading honest.
func (p *TradeoffProblem) SolveFixedRate() (*TradeoffPolicy, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	// Choose a step small enough that two completions in one step are
	// negligible at every candidate price.
	maxP := p.Accept.Accept(p.MaxPrice)
	stepHours := 1.0
	if lim := 0.1 / (p.Lambda * maxP); lim < stepHours {
		stepHours = lim
	}
	lambdaStep := p.Lambda * stepHours
	alphaStep := p.Alpha * stepHours
	return p.solveStationary(alphaStep, func(c int) float64 {
		m := lambdaStep * p.Accept.Accept(c)
		return math.Exp(-m) * m
	})
}

// SolveWorkerArrival solves the worker-arrival formulation of Section 6:
// each transition is one worker arrival, acceptance probability p(c), and
// latency is charged at α/λ̄ per arrival (the linearity assumption). The
// Bellman equation telescopes to
//
//	Opt(n) = Opt(n−1) + min_c [ c + (α/λ̄)/p(c) ].
func (p *TradeoffProblem) SolveWorkerArrival() (*TradeoffPolicy, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p.solveStationary(p.Alpha/p.Lambda, p.Accept.Accept)
}

// solveStationary is the price scan both formulations telescope to: the
// increment c + latency/q(c) is the same for every remaining task, so the
// scan keeps the cheapest one over the prices with q(c) > 0 (the lowest
// such price on a tie) and every state posts its price. Price[0] and
// Value[0] stay zero.
func (p *TradeoffProblem) solveStationary(latency float64, q func(c int) float64) (*TradeoffPolicy, error) {
	bestInc := math.Inf(1)
	bestPrice := p.MinPrice
	for c := p.MinPrice; c <= p.MaxPrice; c++ {
		qc := q(c)
		if qc <= 0 {
			continue
		}
		if inc := float64(c) + latency/qc; inc < bestInc {
			bestInc = inc
			bestPrice = c
		}
	}
	if math.IsInf(bestInc, 1) {
		return nil, errors.New("core: no price yields a positive completion probability")
	}
	pol := &TradeoffPolicy{
		Price: make([]int, p.N+1),
		Value: make([]float64, p.N+1),
	}
	for n := 1; n <= p.N; n++ {
		pol.Price[n] = bestPrice
		pol.Value[n] = pol.Value[n-1] + bestInc
	}
	return pol, nil
}
