// Package core implements the paper's contribution: pricing algorithms for
// batches of crowdsourcing tasks.
//
//   - Fixed-deadline pricing (Section 3): a finite-horizon MDP over states
//     (remaining tasks, time interval), solved by backward-induction dynamic
//     programming with Poisson truncation (Theorem 1) and the monotone price
//     search of Algorithm 2 (Conjecture 1), plus the Penalty ↔ Bound
//     calibration of Theorem 2 and the extended (n+α)·Penalty variant.
//   - Fixed-budget pricing (Section 4): the near-optimal two-price static
//     strategy found on the lower convex hull of (c, 1/p(c)) (Algorithm 3,
//     Theorems 7–8), the exact pseudo-polynomial DP (Theorem 6), and the
//     worker-arrival identity E[W] = Σ 1/p(cᵢ) (Theorem 5).
//   - Baselines: the binary-search fixed pricing of Faridani et al. that the
//     paper compares against.
//   - Section 6 extensions: deadline/budget trade-off MDPs, multiple task
//     types, and quality-control integration.
//
// Prices are integer cents throughout, with a minimum increment of one cent
// as on Mechanical Turk.
package core

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"crowdpricing/internal/choice"
	"crowdpricing/internal/dist"
)

// DeadlineProblem is a fixed-deadline pricing instance: complete N identical
// tasks within Horizon hours at minimum expected cost.
type DeadlineProblem struct {
	// N is the number of tasks in the batch.
	N int
	// Horizon is the total time before the deadline, in hours.
	Horizon float64
	// Intervals is NT, the number of equal discretization intervals; prices
	// may change only at interval boundaries.
	Intervals int
	// Lambdas[t] is λ_t, the expected number of marketplace worker arrivals
	// during interval t (Equation 4). Its length must equal Intervals.
	Lambdas []float64
	// Accept maps a price in cents to the task acceptance probability.
	Accept choice.AcceptanceFn
	// MinPrice and MaxPrice bound the price search range in cents
	// (inclusive). MaxPrice is the C of Section 3.
	MinPrice, MaxPrice int
	// Penalty is the terminal cost per unfinished task.
	Penalty float64
	// Alpha is the extended penalty of Section 3.3: an extra Alpha·Penalty
	// is charged whenever at least one task remains. Zero recovers the
	// plain linear penalty.
	Alpha float64
	// TruncEps is the Poisson truncation threshold ε of Section 3.2.
	// Zero means no truncation (exact sums over the full support).
	TruncEps float64
	// Workers is the number of goroutines used to solve states within each
	// time interval of the backward induction. 0 means GOMAXPROCS; 1 forces
	// the serial path. Any value produces bit-identical policies — states
	// within an interval are independent given the next interval's value
	// row, so parallelism changes scheduling, never arithmetic. Workers is
	// a runtime knob, not a problem parameter, and is not serialized.
	Workers int
}

// Validate reports whether the problem is well formed.
func (p *DeadlineProblem) Validate() error {
	switch {
	case p.N <= 0:
		return errors.New("core: N must be positive")
	case p.Horizon <= 0:
		return errors.New("core: horizon must be positive")
	case p.Intervals <= 0:
		return errors.New("core: intervals must be positive")
	case len(p.Lambdas) != p.Intervals:
		return fmt.Errorf("core: %d lambdas for %d intervals", len(p.Lambdas), p.Intervals)
	case p.Accept == nil:
		return errors.New("core: nil acceptance function")
	case p.MinPrice < 0 || p.MaxPrice < p.MinPrice:
		return fmt.Errorf("core: bad price range [%d, %d]", p.MinPrice, p.MaxPrice)
	case p.Penalty < 0 || p.Alpha < 0:
		return errors.New("core: negative penalty")
	case p.TruncEps < 0:
		return errors.New("core: negative truncation threshold")
	}
	for t, l := range p.Lambdas {
		if l < 0 || math.IsNaN(l) {
			return fmt.Errorf("core: invalid lambda %v at interval %d", l, t)
		}
	}
	return nil
}

// DeadlinePolicy is a solved deadline pricing policy: the optimal price and
// cost-to-go for every (remaining tasks, interval) state.
type DeadlinePolicy struct {
	Problem *DeadlineProblem
	// Price[t][n] is the optimal reward (cents) at interval t with n tasks
	// remaining, for t in [0, Intervals) and n in [0, N].
	Price [][]int
	// Opt[t][n] is the optimal expected cost-to-go, t in [0, Intervals]
	// (row Intervals holds the terminal penalties).
	Opt [][]float64
}

// PriceAt returns the policy's price with n tasks remaining at interval t.
// n is clamped to [0, N] and t to [0, Intervals).
func (pol *DeadlinePolicy) PriceAt(n, t int) int {
	if n <= 0 {
		return pol.Problem.MinPrice
	}
	if n > pol.Problem.N {
		n = pol.Problem.N
	}
	if t < 0 {
		t = 0
	}
	if t >= pol.Problem.Intervals {
		t = pol.Problem.Intervals - 1
	}
	return pol.Price[t][n]
}

// intervalTable caches, for one interval t and every candidate price c, the
// truncated Poisson PMF of the completion count and its running CDF.
type intervalTable struct {
	// pmf[c-MinPrice] is the PMF of Pois(λ_t·p(c)) up to the truncation
	// point; cum is its cumulative sum.
	pmf [][]float64
	cum [][]float64
}

// workers resolves the Workers knob: 0 expands to GOMAXPROCS. parallelFor
// clamps per call, so no dimension-specific cap is needed here.
func (p *DeadlineProblem) workers() int {
	w := p.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w < 1 {
		w = 1
	}
	return w
}

// workerGroup is a sync.WaitGroup that carries a worker goroutine's panic
// back to the goroutine that waits. A panic on a goroutine of its own kills
// the process whatever its caller recovers; re-raised by Wait, it reaches
// the caller's recover instead (the solve engine turns it into an error for
// that one request). The zero value is ready to use.
type workerGroup struct {
	wg   sync.WaitGroup
	once sync.Once
	val  any
}

// Go runs fn on a new goroutine, catching its panic.
func (g *workerGroup) Go(fn func()) {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		defer func() {
			if r := recover(); r != nil {
				g.once.Do(func() { g.val = r })
			}
		}()
		fn()
	}()
}

// Wait blocks until every goroutine started by Go has returned, then
// re-raises the first panic one of them caught.
func (g *workerGroup) Wait() {
	g.wg.Wait()
	if g.val != nil {
		panic(g.val)
	}
}

// parallelFor runs fn(i) for every i in [lo, hi] on a pool of workers
// pulling fixed-size chunks off an atomic cursor (dynamic scheduling — the
// per-state cost of the DP grows with n, so static striping would leave the
// low-n workers idle). workers <= 1 degrades to the plain serial loop. A
// panic in fn is re-raised on the calling goroutine once every worker has
// stopped.
func parallelFor(lo, hi, workers int, fn func(i int)) {
	n := hi - lo + 1
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := lo; i <= hi; i++ {
			fn(i)
		}
		return
	}
	const chunk = 8
	var cursor atomic.Int64
	var g workerGroup
	for w := 0; w < workers; w++ {
		g.Go(func() {
			for {
				start := lo + int(cursor.Add(chunk)) - chunk
				if start > hi {
					return
				}
				end := start + chunk - 1
				if end > hi {
					end = hi
				}
				for i := start; i <= end; i++ {
					fn(i)
				}
			}
		})
	}
	g.Wait()
}

func (p *DeadlineProblem) buildTable(t int) intervalTable {
	nPrices := p.MaxPrice - p.MinPrice + 1
	tab := intervalTable{
		pmf: make([][]float64, nPrices),
		cum: make([][]float64, nPrices),
	}
	parallelFor(0, nPrices-1, p.workers(), func(ci int) {
		mean := p.Lambdas[t] * p.Accept.Accept(p.MinPrice+ci)
		limit := p.N + 1
		if p.TruncEps > 0 {
			s0 := poissonTruncation(mean, p.TruncEps)
			if s0 < limit {
				limit = s0
			}
		}
		tab.pmf[ci], tab.cum[ci] = poissonTable(mean, limit)
	})
	return tab
}

// poissonTable returns the PMF and running CDF of Pois(mean) for counts
// 0..limit-1, computed multiplicatively from the mode so large means do not
// underflow (exp(-mean) is 0 beyond mean ≈ 745).
func poissonTable(mean float64, limit int) (pmf, cum []float64) {
	pmf = make([]float64, limit)
	cum = make([]float64, limit)
	if limit == 0 {
		return pmf, cum
	}
	mode := int(mean)
	if mode >= limit {
		mode = limit - 1
	}
	d := dist.Poisson{Lambda: mean}
	anchor := d.PMF(mode)
	pmf[mode] = anchor
	term := anchor
	for s := mode - 1; s >= 0; s-- {
		term *= float64(s+1) / mean
		pmf[s] = term
	}
	term = anchor
	for s := mode + 1; s < limit; s++ {
		term *= mean / float64(s)
		pmf[s] = term
	}
	run := 0.0
	for s := range pmf {
		run += pmf[s]
		cum[s] = run
	}
	return pmf, cum
}

// poissonTruncation is the s0 of Section 3.2, delegated to the numerically
// stable tail walk in the dist package.
func poissonTruncation(mean, eps float64) int {
	return dist.Poisson{Lambda: mean}.TruncationPoint(eps)
}

// stateCost evaluates the DP objective for state (n, t) at price index ci
// using the interval's cached tables:
//
//	Σ_{s<n} PMF(s)·(s·c + Opt[t+1][n−s]) + P(X ≥ n)·n·c + P(X ≥ n)·Opt[t+1][0]
//
// with Opt[t+1][0] = 0 by construction.
func stateCost(tab intervalTable, next []float64, n, ci, price int) float64 {
	pmf := tab.pmf[ci]
	cum := tab.cum[ci]
	m := n
	if m > len(pmf) {
		m = len(pmf)
	}
	cost := 0.0
	for s := 0; s < m; s++ {
		cost += pmf[s] * (float64(s*price) + next[n-s])
	}
	// Tail mass P(X >= m'): everything at or beyond n completes all n
	// tasks; truncated mass beyond the table is treated the same, which is
	// exactly the estimate Est_trunc of Theorem 1 when m == len(pmf) < n.
	var covered float64
	if m > 0 {
		covered = cum[m-1]
	}
	tail := 1 - covered
	if tail > 0 {
		cost += tail * float64(n*price)
	}
	return cost
}

// terminalCosts returns Opt[Intervals][·], the final-state penalties of
// Section 3.3 (linear plus the optional Alpha surcharge).
func (p *DeadlineProblem) terminalCosts() []float64 {
	out := make([]float64, p.N+1)
	for n := 1; n <= p.N; n++ {
		out[n] = (float64(n) + p.Alpha) * p.Penalty
	}
	return out
}

// bestPrice scans prices [priceLo, priceHi] for state n and returns the
// minimizing cost and price. Both solvers — serial or parallel — evaluate
// every state through this one function, which is what makes the parallel
// policies bit-identical to the serial ones.
func (p *DeadlineProblem) bestPrice(tab intervalTable, next []float64, n, priceLo, priceHi int) (float64, int) {
	bestCost := math.Inf(1)
	best := priceLo
	for c := priceLo; c <= priceHi; c++ {
		cost := stateCost(tab, next, n, c-p.MinPrice, c)
		if cost < bestCost {
			bestCost = cost
			best = c
		}
	}
	return bestCost, best
}

// SolveSimple runs Algorithm 1 (SimpleDP): a full scan over every price for
// every state. Complexity O(N²·NT·C) before truncation. Within each
// interval the states are solved on a worker pool (see Workers); each state
// depends only on the next interval's value row and writes its own
// Opt/Price cells, so the fan-out needs no synchronization beyond the
// interval barrier.
func (p *DeadlineProblem) SolveSimple() (*DeadlinePolicy, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	pol := p.newPolicy()
	w := p.workers()
	for t := p.Intervals - 1; t >= 0; t-- {
		tab := p.buildTable(t)
		next := pol.Opt[t+1]
		parallelFor(1, p.N, w, func(n int) {
			pol.Opt[t][n], pol.Price[t][n] = p.bestPrice(tab, next, n, p.MinPrice, p.MaxPrice)
		})
	}
	return pol, nil
}

// SolveEfficient runs Algorithm 2 (ImprovedDP): for each interval it finds
// the optimal price of the midpoint state first and uses the monotonicity of
// Price(n, t) in n (Conjecture 1) to bound the price search range of the two
// halves, for complexity O(NT·N·(N + C·log N)). The two halves of each
// split are independent once the midpoint is solved, so the recursion
// fans out across the worker pool: a branch forks onto a new goroutine when
// a worker slot is free and its subrange is big enough to pay for the
// handoff, and runs inline otherwise.
func (p *DeadlineProblem) SolveEfficient() (*DeadlinePolicy, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	pol := p.newPolicy()
	w := p.workers()
	// minFork keeps goroutine churn bounded: a subrange smaller than this
	// runs inline, so at most ~2·N/minFork forks happen per interval.
	const minFork = 16
	sem := make(chan struct{}, w-1)
	for t := p.Intervals - 1; t >= 0; t-- {
		tab := p.buildTable(t)
		next := pol.Opt[t+1]
		var g workerGroup
		var solveRange func(lo, hi, priceLo, priceHi int)
		solveRange = func(lo, hi, priceLo, priceHi int) {
			if lo > hi {
				return
			}
			mid := (lo + hi) / 2
			bestCost, bestPrice := p.bestPrice(tab, next, mid, priceLo, priceHi)
			pol.Opt[t][mid] = bestCost
			pol.Price[t][mid] = bestPrice
			forked := false
			if w > 1 && mid-lo >= minFork {
				select {
				case sem <- struct{}{}:
					forked = true
					g.Go(func() {
						defer func() { <-sem }()
						solveRange(lo, mid-1, priceLo, bestPrice)
					})
				default:
				}
			}
			if !forked {
				solveRange(lo, mid-1, priceLo, bestPrice)
			}
			solveRange(mid+1, hi, bestPrice, priceHi)
		}
		solveRange(1, p.N, p.MinPrice, p.MaxPrice)
		g.Wait()
	}
	return pol, nil
}

func (p *DeadlineProblem) newPolicy() *DeadlinePolicy {
	pol := &DeadlinePolicy{Problem: p}
	pol.Price = make([][]int, p.Intervals)
	pol.Opt = make([][]float64, p.Intervals+1)
	for t := 0; t < p.Intervals; t++ {
		pol.Price[t] = make([]int, p.N+1)
		for n := range pol.Price[t] {
			pol.Price[t][n] = p.MinPrice
		}
		pol.Opt[t] = make([]float64, p.N+1)
	}
	pol.Opt[p.Intervals] = p.terminalCosts()
	return pol
}

// Outcome summarizes the exact forward evaluation of a policy: the terminal
// distribution over remaining tasks and the accumulated expected payment.
type Outcome struct {
	// ExpectedCost is the expected total reward paid (cents), excluding
	// terminal penalties.
	ExpectedCost float64
	// ExpectedRemaining is E[# of unfinished tasks at the deadline].
	ExpectedRemaining float64
	// CompletionProb is P(no task remains at the deadline).
	CompletionProb float64
	// Remaining[n] is P(n tasks remain at the deadline).
	Remaining []float64
	// AvgReward is ExpectedCost divided by the expected number of completed
	// tasks (the per-task price the paper plots).
	AvgReward float64
}

// Evaluate propagates the state distribution forward under the policy using
// the same (possibly truncated) transition kernel and returns exact outcome
// statistics — no Monte Carlo involved.
func (pol *DeadlinePolicy) Evaluate() Outcome {
	p := pol.Problem
	cur := make([]float64, p.N+1)
	next := make([]float64, p.N+1)
	cur[p.N] = 1
	expectedCost := 0.0
	for t := 0; t < p.Intervals; t++ {
		tab := p.buildTable(t)
		for i := range next {
			next[i] = 0
		}
		for n := 0; n <= p.N; n++ {
			mass := cur[n]
			if mass == 0 {
				continue
			}
			if n == 0 {
				next[0] += mass
				continue
			}
			price := pol.Price[t][n]
			ci := price - p.MinPrice
			pmf := tab.pmf[ci]
			cum := tab.cum[ci]
			m := n
			if m > len(pmf) {
				m = len(pmf)
			}
			for s := 0; s < m; s++ {
				next[n-s] += mass * pmf[s]
				expectedCost += mass * pmf[s] * float64(s*price)
			}
			var covered float64
			if m > 0 {
				covered = cum[m-1]
			}
			if tail := 1 - covered; tail > 0 {
				next[0] += mass * tail
				expectedCost += mass * tail * float64(n*price)
			}
		}
		cur, next = next, cur
	}
	out := Outcome{Remaining: append([]float64(nil), cur...), ExpectedCost: expectedCost}
	for n, prob := range cur {
		out.ExpectedRemaining += float64(n) * prob
	}
	out.CompletionProb = cur[0]
	if done := float64(p.N) - out.ExpectedRemaining; done > 0 {
		out.AvgReward = expectedCost / done
	}
	return out
}

// CalibrationResult pairs a calibrated penalty with the policy it induces
// and that policy's exact outcome.
type CalibrationResult struct {
	Penalty float64
	Policy  *DeadlinePolicy
	Outcome Outcome
}

// CalibratePenaltyForBound binary-searches the Penalty parameter so the
// induced policy's expected number of remaining tasks is at most bound, per
// the Penalty ↔ Bound correspondence of Theorem 2. The search runs over
// [MinPrice, maxPenalty]; iterations bounds the bisection depth.
func (p *DeadlineProblem) CalibratePenaltyForBound(bound, maxPenalty float64, iterations int) (CalibrationResult, error) {
	return p.calibrate(maxPenalty, iterations, func(o Outcome) bool {
		return o.ExpectedRemaining <= bound
	})
}

// CalibratePenaltyForConfidence binary-searches Penalty so the induced
// policy finishes every task by the deadline with at least the given
// probability (e.g. 0.999 in Section 5.2.2's experimental protocol).
func (p *DeadlineProblem) CalibratePenaltyForConfidence(confidence, maxPenalty float64, iterations int) (CalibrationResult, error) {
	return p.calibrate(maxPenalty, iterations, func(o Outcome) bool {
		return o.CompletionProb >= confidence
	})
}

func (p *DeadlineProblem) calibrate(maxPenalty float64, iterations int, ok func(Outcome) bool) (CalibrationResult, error) {
	if err := p.Validate(); err != nil {
		return CalibrationResult{}, err
	}
	if iterations <= 0 {
		iterations = 40
	}
	solveAt := func(penalty float64) (CalibrationResult, error) {
		q := *p
		q.Penalty = penalty
		pol, err := q.SolveEfficient()
		if err != nil {
			return CalibrationResult{}, err
		}
		return CalibrationResult{Penalty: penalty, Policy: pol, Outcome: pol.Evaluate()}, nil
	}
	hi, err := solveAt(maxPenalty)
	if err != nil {
		return CalibrationResult{}, err
	}
	if !ok(hi.Outcome) {
		return hi, fmt.Errorf("core: target unreachable even at penalty %v", maxPenalty)
	}
	lo := 0.0
	best := hi
	hiP := maxPenalty
	for i := 0; i < iterations; i++ {
		mid := (lo + hiP) / 2
		res, err := solveAt(mid)
		if err != nil {
			return CalibrationResult{}, err
		}
		if ok(res.Outcome) {
			best = res
			hiP = mid
		} else {
			lo = mid
		}
	}
	return best, nil
}
