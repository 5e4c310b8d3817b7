package core

import (
	"errors"
	"fmt"
	"math"

	"crowdpricing/internal/choice"
)

// MultiProblem generalizes the Section 6 multiple-task-type extension to an
// arbitrary number of types k: the state is the count vector
// (n₁, …, n_k, t), each type carries its own acceptance curve and price,
// and completions per interval are independent Poissons. The joint state
// and action spaces grow as ∏(Nᵢ+1) and C^k, so Solve enforces explicit
// size budgets. This is the multi-type entry point: the service's "multi"
// kind (internal/kinds) and the root package solve it. MultiTypeProblem is
// the two-type special case of the construction the paper sketches.
type MultiProblem struct {
	// Counts holds the batch size per type.
	Counts []int
	// Intervals is the number of discretization intervals NT.
	Intervals int
	// Lambdas[t] is the expected worker arrivals in interval t.
	Lambdas []float64
	// Accepts holds one acceptance curve per type.
	Accepts []choice.AcceptanceFn
	// MinPrice and MaxPrice bound every type's price (cents, inclusive).
	MinPrice, MaxPrice int
	// Penalty is the terminal cost per unfinished task of any type.
	Penalty float64
	// TruncEps is the Poisson truncation threshold (0 = exact).
	TruncEps float64
}

// Solve size budgets: the joint DP refuses instances whose state×action
// product would be intractable rather than silently running for hours.
// The state and price-vector budgets bound each factor; maxMultiWork bounds
// the inner terms Solve sums, Intervals × ∏ᵢ C·(Nᵢ+1)(Nᵢ+2)/2 for C prices
// (exact with exact sums, an upper bound with truncation). That is ~17×
// the paper-scale sample's 15.1M terms, and ~5.5 s at the ~22 ns a term
// measured on a 2-vCPU x86-64 host.
const (
	maxMultiStates  = 200_000
	maxMultiActions = 20_000
	maxMultiWork    = 250_000_000
)

// Validate reports whether the problem is well formed and within the size
// budgets.
func (p *MultiProblem) Validate() error {
	if len(p.Counts) == 0 {
		return errors.New("core: no task types")
	}
	if len(p.Accepts) != len(p.Counts) {
		return fmt.Errorf("core: %d acceptance curves for %d types", len(p.Accepts), len(p.Counts))
	}
	states := 1
	for i, n := range p.Counts {
		if n <= 0 {
			return fmt.Errorf("core: type %d has count %d", i, n)
		}
		if p.Accepts[i] == nil {
			return fmt.Errorf("core: type %d has nil acceptance", i)
		}
		states *= n + 1
		if states > maxMultiStates {
			return fmt.Errorf("core: joint state space exceeds %d states", maxMultiStates)
		}
	}
	if p.Intervals <= 0 || len(p.Lambdas) != p.Intervals {
		return errors.New("core: bad interval configuration")
	}
	if err := checkLambdas(p.Lambdas); err != nil {
		return err
	}
	if p.MinPrice < 0 || p.MaxPrice < p.MinPrice {
		return errors.New("core: bad price range")
	}
	actions := 1
	nPrices := p.MaxPrice - p.MinPrice + 1
	for range p.Counts {
		actions *= nPrices
		if actions > maxMultiActions {
			return fmt.Errorf("core: joint action space exceeds %d price vectors", maxMultiActions)
		}
	}
	// Each factor is at most maxMultiActions·maxMultiStates², so only the
	// running product can overflow, and the division keeps it in range.
	work := p.Intervals
	for _, n := range p.Counts {
		f := nPrices * (n + 1) * (n + 2) / 2
		if work > maxMultiWork/f {
			return fmt.Errorf("core: joint DP exceeds %d inner terms (intervals × ∏ prices·(n+1)(n+2)/2)", maxMultiWork)
		}
		work *= f
	}
	if p.Penalty < 0 {
		return errors.New("core: negative penalty")
	}
	return nil
}

// MultiPolicy is the solved general-k policy.
type MultiPolicy struct {
	Problem *MultiProblem
	// strides flatten count vectors to state indices.
	strides []int
	// Prices[t][state] is the optimal price vector (one price per type).
	Prices [][][]int
	// Opt[t][state] is the cost-to-go; row Intervals is terminal.
	Opt [][]float64
}

// index flattens a count vector.
func (pol *MultiPolicy) index(counts []int) int {
	idx := 0
	for i, n := range counts {
		idx += n * pol.strides[i]
	}
	return idx
}

// PricesAt returns the optimal price vector for the given remaining counts
// at interval t, clamping out-of-range values.
func (pol *MultiPolicy) PricesAt(counts []int, t int) []int {
	p := pol.Problem
	cl := make([]int, len(counts))
	for i := range counts {
		cl[i] = clamp(counts[i], 0, p.Counts[i])
	}
	t = clamp(t, 0, p.Intervals-1)
	out := make([]int, len(cl))
	copy(out, pol.Prices[t][pol.index(cl)])
	return out
}

// Solve runs backward induction over the joint state space, enumerating all
// price vectors per state. Use only at extension scale (see the size
// budgets). Every k, two included, is solved here; MultiTypeProblem is the
// two-type reference TestMultiKTwoTypesMatchesSpecialized compares against.
func (p *MultiProblem) Solve() (*MultiPolicy, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	k := len(p.Counts)
	strides := make([]int, k)
	states := 1
	for i := k - 1; i >= 0; i-- {
		strides[i] = states
		states *= p.Counts[i] + 1
	}
	pol := &MultiPolicy{Problem: p, strides: strides}
	pol.Prices = make([][][]int, p.Intervals)
	pol.Opt = make([][]float64, p.Intervals+1)

	// Terminal penalties.
	terminal := make([]float64, states)
	counts := make([]int, k)
	for s := 0; s < states; s++ {
		total := 0
		for _, n := range counts {
			total += n
		}
		terminal[s] = float64(total) * p.Penalty
		incCounts(counts, p.Counts)
	}
	pol.Opt[p.Intervals] = terminal

	// Price vectors, enumerated once.
	var priceVecs [][]int
	vec := make([]int, k)
	var enumerate func(i int)
	enumerate = func(i int) {
		if i == k {
			cp := make([]int, k)
			copy(cp, vec)
			priceVecs = append(priceVecs, cp)
			return
		}
		for c := p.MinPrice; c <= p.MaxPrice; c++ {
			vec[i] = c
			enumerate(i + 1)
		}
	}
	enumerate(0)

	// Per-type kernels, refilled for each interval.
	tabs := make([]*typeTable, k)
	for i := range tabs {
		tabs[i] = newTypeTable(p.Accepts[i], p.MinPrice, p.MaxPrice, p.Counts[i], p.TruncEps)
	}
	for t := p.Intervals - 1; t >= 0; t-- {
		for _, tab := range tabs {
			tab.fill(p.Lambdas[t])
		}
		next := pol.Opt[t+1]
		cur := make([]float64, states)
		prices := make([][]int, states)
		for i := range counts {
			counts[i] = 0
		}
		for s := 0; s < states; s++ {
			if allZero(counts) {
				prices[s] = make([]int, k)
				for i := range prices[s] {
					prices[s][i] = p.MinPrice
				}
				incCounts(counts, p.Counts)
				continue
			}
			best := math.Inf(1)
			var bestVec []int
			for _, pv := range priceVecs {
				if redundantVector(counts, pv, p.MinPrice) {
					continue
				}
				cost := p.vectorCost(tabs, next, pol, counts, pv)
				if cost < best {
					best = cost
					bestVec = pv
				}
			}
			cur[s] = best
			prices[s] = bestVec
			incCounts(counts, p.Counts)
		}
		pol.Opt[t] = cur
		pol.Prices[t] = prices
	}
	return pol, nil
}

// redundantVector skips price vectors that differ from the canonical one
// only on types with zero remaining tasks (their price is irrelevant).
func redundantVector(counts, prices []int, minPrice int) bool {
	for i, n := range counts {
		if n == 0 && prices[i] != minPrice {
			return true
		}
	}
	return false
}

// vectorCost marginalizes the k independent completion counts recursively.
func (p *MultiProblem) vectorCost(tabs []*typeTable, next []float64, pol *MultiPolicy, counts, prices []int) float64 {
	k := len(counts)
	// Pre-list outcomes per type.
	outCounts := make([][]int, k)
	outProbs := make([][]float64, k)
	for i := 0; i < k; i++ {
		ci := prices[i] - tabs[i].min
		outCounts[i], outProbs[i] = completionOutcomes(tabs[i].pmf[ci], tabs[i].cum[ci], counts[i])
	}
	total := 0.0
	var rec func(i int, prob, pay float64, idx int)
	rec = func(i int, prob, pay float64, idx int) {
		if prob == 0 {
			return
		}
		if i == k {
			total += prob * (pay + next[idx])
			return
		}
		for o, s := range outCounts[i] {
			rec(i+1,
				prob*outProbs[i][o],
				pay+float64(s*prices[i]),
				idx+(counts[i]-s)*pol.strides[i])
		}
	}
	rec(0, 1, 0, 0)
	return total
}

func incCounts(counts, limits []int) {
	for i := len(counts) - 1; i >= 0; i-- {
		counts[i]++
		if counts[i] <= limits[i] {
			return
		}
		counts[i] = 0
	}
}

func allZero(xs []int) bool {
	for _, x := range xs {
		if x != 0 {
			return false
		}
	}
	return true
}
