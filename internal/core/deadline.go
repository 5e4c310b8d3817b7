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
	return checkLambdas(p.Lambdas)
}

// checkLambdas requires every λ_t to be a finite, non-negative number of
// expected arrivals. The deadline, multi and two-type problems all validate
// their arrivals here. A negative λ_t gives negative means, which either
// index a table below its first cell or solve as if no worker arrived, and
// an infinite one makes its interval's means infinite or NaN.
func checkLambdas(lambdas []float64) error {
	for t, l := range lambdas {
		if !(l >= 0) || math.IsInf(l, 1) {
			return fmt.Errorf("core: invalid lambda %v at interval %d", l, t)
		}
	}
	return nil
}

// DeadlinePolicy is a solved deadline pricing policy: the optimal price for
// every (remaining tasks, interval) state and the expected total cost of
// following it from the initial state.
type DeadlinePolicy struct {
	Problem *DeadlineProblem
	// Price[t][n] is the optimal reward (cents) at interval t with n tasks
	// remaining, for t in [0, Intervals) and n in [0, N].
	Price [][]int
	// Value is the optimal expected total cost from the initial state (N
	// tasks remaining at interval 0), Opt[0][N].
	Value float64
	// Opt[t][n] is the optimal expected cost-to-go, t in [0, Intervals]
	// (row Intervals holds the terminal penalties). It is the solver's
	// working table: the solvers return it, but it is not serialized, so a
	// policy restored by UnmarshalJSON has a nil Opt.
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

// typeTable holds, for one interval and every candidate price c, the
// truncated Poisson PMF of the completion count and its running CDF:
// pmf[c-min] is the PMF of Pois(λ_t·p(c)) up to the truncation point, and
// cum is its cumulative sum. A solve makes one per task type, evaluating
// the acceptance curve once per price, and fill rewrites every row for
// each interval into backing arrays the table keeps, so an interval
// allocates nothing once they are large enough.
type typeTable struct {
	pmf, cum [][]float64
	// tail[ci] is 1 − cum[ci][last], the mass at or past the row's end,
	// truncated mass included.
	tail []float64
	min  int
	// accept[ci] is p(min+ci).
	accept []float64
	// rev holds a cost-to-go row back to front for the deadline kernel
	// (see reversed). accept, tail and rev share one array.
	rev []float64
	// limit is the untruncated row length, N+1 for a type of N tasks.
	limit int
	eps   float64
	// pmfBuf and cumBuf back the rows: each row is written into limit free
	// cells and keeps only the ones it uses.
	pmfBuf, cumBuf []float64
}

func newTypeTable(accept choice.AcceptanceFn, minPrice, maxPrice, nMax int, eps float64) *typeTable {
	n := maxPrice - minPrice + 1
	vals := make([]float64, 2*n+nMax+1)
	tab := &typeTable{
		pmf:    make([][]float64, n),
		cum:    make([][]float64, n),
		tail:   vals[n : 2*n : 2*n],
		min:    minPrice,
		accept: vals[:n:n],
		rev:    vals[2*n:],
		limit:  nMax + 1,
		eps:    eps,
	}
	for ci := range tab.accept {
		tab.accept[ci] = accept.Accept(minPrice + ci)
	}
	return tab
}

func (p *DeadlineProblem) newTable() *typeTable {
	return newTypeTable(p.Accept, p.MinPrice, p.MaxPrice, p.N, p.TruncEps)
}

// fill builds every price's row for an interval with lambda expected
// arrivals.
func (tab *typeTable) fill(lambda float64) {
	off := 0
	for ci, accept := range tab.accept {
		if off+tab.limit > len(tab.pmfBuf) {
			// The rows written so far keep the old arrays until the next
			// fill; from then on every row lands in the new ones.
			size := 2 * (off + tab.limit)
			tab.pmfBuf, tab.cumBuf = make([]float64, size), make([]float64, size)
			off = 0
		}
		pmf := tab.pmfBuf[off : off+tab.limit : off+tab.limit]
		cum := tab.cumBuf[off : off+tab.limit : off+tab.limit]
		n := poissonRow(pmf, cum, lambda*accept, tab.eps)
		tab.pmf[ci], tab.cum[ci] = pmf[:n], cum[:n]
		tab.tail[ci] = 1 - cum[n-1]
		off += n
	}
}

// poissonRow writes the PMF of Pois(mean) and its running CDF for counts
// 0..n-1 into pmf and cum and returns n. n is len(pmf), at least 1, unless
// eps > 0 lowers it to the s0 of Section 3.2: the smallest s0 >= 1 with
// P(X >= s0) <= eps, found exactly as dist.Poisson's TruncationPoint finds
// it. The terms are computed multiplicatively from the mode, so large means
// do not underflow (exp(-mean) is 0 beyond mean ≈ 745), and one walk down
// and one walk up serve the table, the CDF and the truncation mass, which
// sums the same terms in TruncationPoint's order. A mode at or past
// len(pmf) anchors the walk at the last cell instead; the truncation point
// is then past the mode, so it cannot lower n. The mean is compared with
// the limit before it is converted, so a finite mean of any size, 2⁶³ and
// past it included, anchors there.
//
// The anchor is dist.Poisson's PMF at the mode. For a mean in (0, 1) that
// is PMF(0), which computes exp(0·log(mean) − mean − lgamma(1)), and
// lgamma(1) is exactly 0, so the row takes math.Exp(-mean) directly: the
// same bits without the Lgamma and Log calls. Every row of a small-λ
// problem, the service's sampled ones among them, has such a mean. Every
// other mean, zero and negative ones included, calls PMF.
func poissonRow(pmf, cum []float64, mean, eps float64) int {
	limit := len(pmf)
	var mode int
	trunc := eps > 0
	if mean >= float64(limit) {
		mode = limit - 1
		trunc = false
	} else {
		mode = int(mean)
	}
	var anchor float64
	if mean > 0 && mean < 1 {
		anchor = math.Exp(-mean)
	} else {
		anchor = dist.Poisson{Lambda: mean}.PMF(mode)
	}
	pmf[mode] = anchor
	// mass is TruncationPoint's running sum: the anchor, then the terms
	// below it down to the first one under anchor·1e-18, then the terms
	// above it.
	mass := anchor
	summing := trunc
	term := anchor
	for s := mode - 1; s >= 0; s-- {
		term *= float64(s+1) / mean
		pmf[s] = term
		if summing {
			mass += term
			if term < anchor*1e-18 {
				summing = false
			}
		}
	}
	run := 0.0
	for s := 0; s <= mode; s++ {
		run += pmf[s]
		cum[s] = run
	}
	// Walk up to the limit or, truncating, until TruncationPoint's loop
	// would stop.
	k := mode
	term = anchor
	for k+1 < limit && (!trunc || 1-mass > eps && term > 0) {
		k++
		term *= mean / float64(k)
		pmf[k] = term
		run += term
		cum[k] = run
		mass += term
	}
	return k + 1
}

// reversed copies next, the cost-to-go row of the interval after tab's,
// into tab's scratch row back to front and returns that row, in which
// next[k] sits at index len(next)-1-k. bestPrice reads the row this way
// round.
func (tab *typeTable) reversed(next []float64) []float64 {
	rev := tab.rev[:len(next)]
	for k, v := range next {
		rev[len(rev)-1-k] = v
	}
	return rev
}

// bestPrice scans prices [priceLo, priceHi] for state n, with n ≥ 1, and
// returns the lowest cost and the first price that reaches it. rev is the
// cost-to-go of the interval after tab's as reversed returns it: next[k]
// is rev[N−k]. A price c costs the DP objective
//
//	Σ_{s<m} PMF(s)·(s·c + next[n−s]) + P(X ≥ m)·n·c,   m = min(n, len(PMF)),
//
// summed in that order. Each completion count below m leaves n−s tasks to
// the next interval, and the tail, all the mass at or past m, completes
// all n; next[0] is 0, so nothing follows. The tail counts the truncated
// mass as completing, which is Theorem 1's estimate Est_trunc when
// m = len(PMF) < n. Both solvers evaluate every state here, so they differ
// only in which prices they scan.
//
// The cost is computed inline, with no call per price. rest[s] below is
// next[n−s], so the term loop reads the row and rest at one ascending
// index, and with both cut to one length the compiler drops every bounds
// check in it; it proves no descending index such as n−s in range. A
// row's whole tail is read from the table. Each term keeps the objective's
// form, PMF(s)·(s·c + next[n−s]) added to the running cost, so a target on
// which Go fuses x*y+z into one instruction fuses the same operations as
// the reference form in kernel_test.go, and the two agree bit for bit on
// every target.
func (p *DeadlineProblem) bestPrice(tab *typeTable, rev []float64, n, priceLo, priceHi int) (float64, int) {
	bestCost := math.Inf(1)
	best := priceLo
	rest := rev[len(rev)-1-n:]
	for c := priceLo; c <= priceHi; c++ {
		ci := c - p.MinPrice
		pmf, tail := tab.pmf[ci], tab.tail[ci]
		if n < len(pmf) {
			pmf, tail = pmf[:n], 1-tab.cum[ci][n-1]
		}
		r := rest[:len(pmf)]
		cost := 0.0
		for s, q := range pmf {
			cost += q * (float64(s*c) + r[s])
		}
		if tail > 0 {
			cost += tail * float64(n*c)
		}
		if cost < bestCost {
			bestCost = cost
			best = c
		}
	}
	return bestCost, best
}

// SolveSimple runs Algorithm 1 (SimpleDP): a full scan over every price for
// every state. Complexity O(N²·NT·C) before truncation. The solve is exact
// and serial: equal problems give bit-identical policies.
func (p *DeadlineProblem) SolveSimple() (*DeadlinePolicy, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	pol := p.newPolicy()
	tab := p.newTable()
	for t := p.Intervals - 1; t >= 0; t-- {
		tab.fill(p.Lambdas[t])
		rev := tab.reversed(pol.Opt[t+1])
		for n := 1; n <= p.N; n++ {
			pol.Opt[t][n], pol.Price[t][n] = p.bestPrice(tab, rev, n, p.MinPrice, p.MaxPrice)
		}
	}
	pol.Value = pol.Opt[0][p.N]
	return pol, nil
}

// SolveEfficient runs Algorithm 2 (ImprovedDP): for each interval it finds
// the optimal price of the midpoint state first and uses the monotonicity of
// Price(n, t) in n (Conjecture 1) to bound the price search range of the two
// halves, for complexity O(NT·N·(N + C·log N)). Like SolveSimple it is exact
// and serial: equal problems give bit-identical policies, which is what
// lets the service cache a solved policy under its problem's Fingerprint.
//
// The halving is a loop over a stack of spans, runs of states with the
// price range their optimal prices lie in, kept in a fixed array on the
// goroutine's stack. The lower half is popped first, so states are solved
// in a recursive walk's order (midpoint, lower half, upper half), each
// against its own price range. A span leaves at most one pending upper
// half per level of the halving, so the stack holds at most its depth plus
// two: 64 spans cover any N.
func (p *DeadlineProblem) SolveEfficient() (*DeadlinePolicy, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	pol := p.newPolicy()
	tab := p.newTable()
	type span struct{ lo, hi, priceLo, priceHi int }
	var stack [64]span
	for t := p.Intervals - 1; t >= 0; t-- {
		tab.fill(p.Lambdas[t])
		rev, opt, price := tab.reversed(pol.Opt[t+1]), pol.Opt[t], pol.Price[t]
		stack[0] = span{1, p.N, p.MinPrice, p.MaxPrice}
		for top := 1; top > 0; {
			top--
			s := stack[top]
			mid := (s.lo + s.hi) / 2
			cost, c := p.bestPrice(tab, rev, mid, s.priceLo, s.priceHi)
			opt[mid], price[mid] = cost, c
			if mid < s.hi {
				stack[top] = span{mid + 1, s.hi, c, s.priceHi}
				top++
			}
			if s.lo < mid {
				stack[top] = span{s.lo, mid - 1, s.priceLo, c}
				top++
			}
		}
	}
	pol.Value = pol.Opt[0][p.N]
	return pol, nil
}

// newPolicy allocates a policy whose Price rows are carved from one array
// (every cell MinPrice) and whose Opt rows from another, with row
// Intervals holding the terminal penalties of Section 3.3 (linear plus the
// optional Alpha surcharge).
func (p *DeadlineProblem) newPolicy() *DeadlinePolicy {
	w := p.N + 1
	prices := make([]int, p.Intervals*w)
	for i := range prices {
		prices[i] = p.MinPrice
	}
	costs := make([]float64, (p.Intervals+1)*w)
	pol := &DeadlinePolicy{
		Problem: p,
		Price:   make([][]int, p.Intervals),
		Opt:     make([][]float64, p.Intervals+1),
	}
	for t := range pol.Price {
		pol.Price[t] = prices[t*w : (t+1)*w : (t+1)*w]
	}
	for t := range pol.Opt {
		pol.Opt[t] = costs[t*w : (t+1)*w : (t+1)*w]
	}
	terminal := pol.Opt[p.Intervals]
	for n := 1; n <= p.N; n++ {
		terminal[n] = (float64(n) + p.Alpha) * p.Penalty
	}
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
	tab := p.newTable()
	for t := 0; t < p.Intervals; t++ {
		tab.fill(p.Lambdas[t])
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
