// Package sim evaluates pricing policies by Monte Carlo simulation against
// a marketplace whose true dynamics may differ from the dynamics the policy
// was trained on — the setup of the sensitivity experiments (Sections 5.2.4
// and 5.2.5) and of the fixed-budget completion-time study (Section 5.3).
package sim

import (
	"errors"
	"math"
	"sort"

	"crowdpricing/internal/choice"
	"crowdpricing/internal/core"
	"crowdpricing/internal/dist"
	"crowdpricing/internal/rate"
)

// World is the ground truth the simulation runs against: the real arrival
// mass per interval and the real acceptance curve, which may both differ
// from what a policy assumed during training.
type World struct {
	// Lambdas[t] is the true expected worker arrivals in interval t.
	Lambdas []float64
	// Accept is the true acceptance curve.
	Accept choice.AcceptanceFn
}

// TrialStats aggregates per-trial simulation results.
type TrialStats struct {
	// Trials is the number of Monte Carlo runs.
	Trials int
	// MeanCost is the average total payment in cents.
	MeanCost float64
	// MeanRemaining is the average number of unfinished tasks.
	MeanRemaining float64
	// CompletionRate is the fraction of trials finishing every task.
	CompletionRate float64
	// MeanAvgReward is the average of per-trial cost divided by completed
	// tasks (the "average task reward" the paper plots).
	MeanAvgReward float64
	// Remaining holds each trial's unfinished count.
	Remaining []int
	// Costs holds each trial's total payment.
	Costs []float64
}

// RunDeadlinePolicy simulates a deadline policy for trials runs against the
// world. Each interval samples a Poisson completion count with the *true*
// rate λ_t·p_true(c) at the policy's price for the current backlog.
func RunDeadlinePolicy(pol *core.DeadlinePolicy, w World, trials int, r *dist.RNG) (TrialStats, error) {
	return runTrials(pol.Problem, w, trials, r, pol.PriceAt)
}

// RunFixedPrice simulates the fixed-price baseline under the same world.
func RunFixedPrice(p *core.DeadlineProblem, price int, w World, trials int, r *dist.RNG) (TrialStats, error) {
	return runTrials(p, w, trials, r, func(int, int) int { return price })
}

// runTrials is the trial loop of both: priceAt(n, t) is the price posted
// with n tasks remaining at interval t.
func runTrials(p *core.DeadlineProblem, w World, trials int, r *dist.RNG, priceAt func(n, t int) int) (TrialStats, error) {
	if len(w.Lambdas) != p.Intervals {
		return TrialStats{}, errors.New("sim: world has wrong interval count")
	}
	if w.Accept == nil || trials <= 0 {
		return TrialStats{}, errors.New("sim: invalid world or trial count")
	}
	st := TrialStats{Trials: trials}
	for i := 0; i < trials; i++ {
		n := p.N
		cost := 0.0
		for t := 0; t < p.Intervals && n > 0; t++ {
			price := priceAt(n, t)
			mean := w.Lambdas[t] * w.Accept.Accept(price)
			done := dist.Poisson{Lambda: mean}.Sample(r)
			if done > n {
				done = n
			}
			cost += float64(done * price)
			n -= done
		}
		st.accumulate(p.N, n, cost)
	}
	st.finalize()
	return st, nil
}

func (st *TrialStats) accumulate(total, remaining int, cost float64) {
	st.Remaining = append(st.Remaining, remaining)
	st.Costs = append(st.Costs, cost)
	st.MeanCost += cost
	st.MeanRemaining += float64(remaining)
	if remaining == 0 {
		st.CompletionRate++
	}
	if done := total - remaining; done > 0 {
		st.MeanAvgReward += cost / float64(done)
	}
}

func (st *TrialStats) finalize() {
	n := float64(st.Trials)
	st.MeanCost /= n
	st.MeanRemaining /= n
	st.CompletionRate /= n
	st.MeanAvgReward /= n
}

// BudgetCompletion simulates the static budget strategy of Section 4
// against an NHPP arrival stream (Section 5.3 / Figure 11): tasks drain
// highest price first, each arriving worker accepts the current top price c
// with probability p(c). It returns each trial's completion time in hours,
// +Inf when the horizon elapses first.
func BudgetCompletion(s core.StaticStrategy, accept choice.AcceptanceFn, arrival rate.Fn, horizon float64, trials int, r *dist.RNG) []float64 {
	prices := s.Prices() // descending
	out := make([]float64, 0, trials)
	// Hour-resolution stepping with per-step Poisson arrival counts keeps
	// the simulation cheap while resolving completion times to ~1 minute.
	const step = 1.0 / 60
	for trial := 0; trial < trials; trial++ {
		idx := 0
		tEnd := math.Inf(1)
		for t := 0.0; t < horizon && idx < len(prices); t += step {
			mean := arrival.Integral(t, t+step)
			arrivals := dist.Poisson{Lambda: mean}.Sample(r)
			for a := 0; a < arrivals && idx < len(prices); a++ {
				if r.Bernoulli(accept.Accept(prices[idx])) {
					idx++
				}
			}
			if idx == len(prices) {
				tEnd = t + step
			}
		}
		out = append(out, tEnd)
	}
	return out
}

// FiniteMean returns the mean of the finite entries of xs and the count of
// infinite ones.
func FiniteMean(xs []float64) (mean float64, infinite int) {
	sum, n := 0.0, 0
	for _, x := range xs {
		if math.IsInf(x, 1) {
			infinite++
			continue
		}
		sum += x
		n++
	}
	if n == 0 {
		return math.Inf(1), infinite
	}
	return sum / float64(n), infinite
}

// SortedFinite returns the finite entries of xs in ascending order, for
// histogramming completion-time distributions.
func SortedFinite(xs []float64) []float64 {
	var out []float64
	for _, x := range xs {
		if !math.IsInf(x, 1) {
			out = append(out, x)
		}
	}
	sort.Float64s(out)
	return out
}
