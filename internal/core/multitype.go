package core

import (
	"errors"
	"fmt"
	"math"

	"crowdpricing/internal/choice"
)

// MultiTypeProblem is the Section 6 "Multiple Task Types" extension: two
// task types share one deadline; the state is (n₁, n₂, t) and each type
// carries its own acceptance curve and price. Completions of the two types
// in one interval are independent Poissons (workers who pick up type-i tasks
// do so with probability pᵢ(cᵢ)).
//
// It is the two-type reference implementation of the construction the
// paper sketches: no service or library path solves through it. The
// service and the root package solve every k, two included, with
// MultiProblem.Solve, and TestMultiKTwoTypesMatchesSpecialized holds the
// two equal on a two-type problem.
type MultiTypeProblem struct {
	// N1, N2 are the batch sizes of the two task types.
	N1, N2 int
	// Intervals is the number of discretization intervals NT.
	Intervals int
	// Lambdas[t] is the expected worker arrivals in interval t.
	Lambdas []float64
	// Accept1, Accept2 map each type's price to its acceptance probability.
	Accept1, Accept2 choice.AcceptanceFn
	// MinPrice and MaxPrice bound both price searches (cents, inclusive).
	MinPrice, MaxPrice int
	// Penalty is the terminal cost per unfinished task of either type.
	Penalty float64
	// TruncEps is the Poisson truncation threshold (0 = exact).
	TruncEps float64
}

// Validate reports whether the problem is well formed.
func (p *MultiTypeProblem) Validate() error {
	switch {
	case p.N1 <= 0 || p.N2 <= 0:
		return errors.New("core: both type counts must be positive")
	case p.Intervals <= 0:
		return errors.New("core: intervals must be positive")
	case len(p.Lambdas) != p.Intervals:
		return fmt.Errorf("core: %d lambdas for %d intervals", len(p.Lambdas), p.Intervals)
	case p.Accept1 == nil || p.Accept2 == nil:
		return errors.New("core: nil acceptance function")
	case p.MinPrice < 0 || p.MaxPrice < p.MinPrice:
		return errors.New("core: bad price range")
	case p.Penalty < 0:
		return errors.New("core: negative penalty")
	}
	return checkLambdas(p.Lambdas)
}

// MultiTypePolicy holds the solved joint policy. Indexing is
// [t][n1*(N2+1)+n2].
type MultiTypePolicy struct {
	Problem *MultiTypeProblem
	// Price1 and Price2 hold each type's optimal price per state.
	Price1, Price2 [][]int
	// Opt holds the cost-to-go per state; row Intervals is terminal.
	Opt [][]float64
}

func (p *MultiTypeProblem) idx(n1, n2 int) int { return n1*(p.N2+1) + n2 }

// PricesAt returns the optimal price pair with (n1, n2) tasks remaining at
// interval t, clamping out-of-range arguments.
func (pol *MultiTypePolicy) PricesAt(n1, n2, t int) (int, int) {
	p := pol.Problem
	n1 = clamp(n1, 0, p.N1)
	n2 = clamp(n2, 0, p.N2)
	t = clamp(t, 0, p.Intervals-1)
	i := p.idx(n1, n2)
	return pol.Price1[t][i], pol.Price2[t][i]
}

func clamp(x, lo, hi int) int {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// Solve runs backward induction over the joint state space, scanning the
// full price grid per state; complexity is O(NT·N1·N2·C²·s̄) with s̄ the
// truncated support size — the vector-state DP sketched in Section 6.
func (p *MultiTypeProblem) Solve() (*MultiTypePolicy, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	states := (p.N1 + 1) * (p.N2 + 1)
	pol := &MultiTypePolicy{Problem: p}
	pol.Price1 = make([][]int, p.Intervals)
	pol.Price2 = make([][]int, p.Intervals)
	pol.Opt = make([][]float64, p.Intervals+1)
	terminal := make([]float64, states)
	for n1 := 0; n1 <= p.N1; n1++ {
		for n2 := 0; n2 <= p.N2; n2++ {
			terminal[p.idx(n1, n2)] = float64(n1+n2) * p.Penalty
		}
	}
	pol.Opt[p.Intervals] = terminal

	// The joint Bellman operator does not decouple exactly (the value
	// function is not additively separable in general), so every price pair
	// is evaluated against the true joint continuation with truncated
	// Poisson kernels. O(N1·N2·C²) per interval — fine at extension scale.
	tab1 := newTypeTable(p.Accept1, p.MinPrice, p.MaxPrice, p.N1, p.TruncEps)
	tab2 := newTypeTable(p.Accept2, p.MinPrice, p.MaxPrice, p.N2, p.TruncEps)
	for t := p.Intervals - 1; t >= 0; t-- {
		tab1.fill(p.Lambdas[t])
		tab2.fill(p.Lambdas[t])
		next := pol.Opt[t+1]
		cur := make([]float64, states)
		pr1 := make([]int, states)
		pr2 := make([]int, states)
		for i := range pr1 {
			pr1[i] = p.MinPrice
			pr2[i] = p.MinPrice
		}
		for n1 := 0; n1 <= p.N1; n1++ {
			for n2 := 0; n2 <= p.N2; n2++ {
				if n1 == 0 && n2 == 0 {
					continue
				}
				best := math.Inf(1)
				b1, b2 := p.MinPrice, p.MinPrice
				for c1 := p.MinPrice; c1 <= p.MaxPrice; c1++ {
					if n1 == 0 && c1 > p.MinPrice {
						break // price of an empty type is irrelevant
					}
					for c2 := p.MinPrice; c2 <= p.MaxPrice; c2++ {
						if n2 == 0 && c2 > p.MinPrice {
							break
						}
						cost := jointCost(p, tab1, tab2, next, n1, n2, c1, c2)
						if cost < best {
							best = cost
							b1, b2 = c1, c2
						}
					}
				}
				i := p.idx(n1, n2)
				cur[i] = best
				pr1[i], pr2[i] = b1, b2
			}
		}
		pol.Opt[t] = cur
		pol.Price1[t] = pr1
		pol.Price2[t] = pr2
	}
	return pol, nil
}

// Evaluate propagates the joint state distribution forward under the policy
// and returns the expected total payment and the expected number of
// unfinished tasks (both types combined) — the multi-type analogue of
// DeadlinePolicy.Evaluate.
func (pol *MultiTypePolicy) Evaluate() (expectedCost, expectedRemaining float64) {
	p := pol.Problem
	states := (p.N1 + 1) * (p.N2 + 1)
	cur := make([]float64, states)
	next := make([]float64, states)
	cur[p.idx(p.N1, p.N2)] = 1
	tab1 := newTypeTable(p.Accept1, p.MinPrice, p.MaxPrice, p.N1, p.TruncEps)
	tab2 := newTypeTable(p.Accept2, p.MinPrice, p.MaxPrice, p.N2, p.TruncEps)
	for t := 0; t < p.Intervals; t++ {
		tab1.fill(p.Lambdas[t])
		tab2.fill(p.Lambdas[t])
		for i := range next {
			next[i] = 0
		}
		for n1 := 0; n1 <= p.N1; n1++ {
			for n2 := 0; n2 <= p.N2; n2++ {
				mass := cur[p.idx(n1, n2)]
				if mass == 0 {
					continue
				}
				if n1 == 0 && n2 == 0 {
					next[0] += mass
					continue
				}
				i := p.idx(n1, n2)
				c1, c2 := pol.Price1[t][i], pol.Price2[t][i]
				s1s, p1s := completionOutcomes(tab1.pmf[c1-tab1.min], tab1.cum[c1-tab1.min], n1)
				s2s, p2s := completionOutcomes(tab2.pmf[c2-tab2.min], tab2.cum[c2-tab2.min], n2)
				for a, s1 := range s1s {
					for b, s2 := range s2s {
						prob := mass * p1s[a] * p2s[b]
						if prob == 0 {
							continue
						}
						next[p.idx(n1-s1, n2-s2)] += prob
						expectedCost += prob * float64(s1*c1+s2*c2)
					}
				}
			}
		}
		cur, next = next, cur
	}
	for n1 := 0; n1 <= p.N1; n1++ {
		for n2 := 0; n2 <= p.N2; n2++ {
			expectedRemaining += cur[p.idx(n1, n2)] * float64(n1+n2)
		}
	}
	return expectedCost, expectedRemaining
}

// completionOutcomes lists the possible completion counts from a truncated
// Poisson kernel when n tasks remain: counts 0..m−1 with their PMF mass plus
// a final "all n complete" bucket absorbing the tail (and any truncated
// mass). For n == 0 the single outcome is zero completions.
func completionOutcomes(pmf, cum []float64, n int) (counts []int, probs []float64) {
	if n == 0 {
		return []int{0}, []float64{1}
	}
	m := n
	if m > len(pmf) {
		m = len(pmf)
	}
	counts = make([]int, 0, m+1)
	probs = make([]float64, 0, m+1)
	for s := 0; s < m; s++ {
		counts = append(counts, s)
		probs = append(probs, pmf[s])
	}
	covered := 0.0
	if m > 0 {
		covered = cum[m-1]
	}
	if tail := 1 - covered; tail > 0 {
		counts = append(counts, n)
		probs = append(probs, tail)
	}
	return counts, probs
}

// jointCost evaluates the expected stage cost plus continuation for pricing
// the two types at (c1, c2) from state (n1, n2), marginalizing the two
// independent truncated Poisson completion counts.
func jointCost(p *MultiTypeProblem, tab1, tab2 *typeTable, next []float64, n1, n2, c1, c2 int) float64 {
	s1s, p1s := completionOutcomes(tab1.pmf[c1-tab1.min], tab1.cum[c1-tab1.min], n1)
	s2s, p2s := completionOutcomes(tab2.pmf[c2-tab2.min], tab2.cum[c2-tab2.min], n2)
	cost := 0.0
	for i, s1 := range s1s {
		if p1s[i] == 0 {
			continue
		}
		for j, s2 := range s2s {
			prob := p1s[i] * p2s[j]
			if prob == 0 {
				continue
			}
			pay := float64(s1*c1 + s2*c2)
			cost += prob * (pay + next[p.idx(n1-s1, n2-s2)])
		}
	}
	return cost
}
