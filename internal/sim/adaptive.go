package sim

import (
	"errors"
	"fmt"
	"math"

	"crowdpricing/internal/core"
	"crowdpricing/internal/dist"
)

// AdaptiveConfig tunes the adaptive arrival-rate controller, the extension
// the paper sketches at the end of Section 5.2.5 ("predicting the
// arrival-rate in next few hours based on arrival-rate in last few hours")
// for days like Jan 1 whose traffic consistently deviates from the trained
// profile.
//
// The controller pre-solves one deadline policy per scale factor in Factors
// (each with the trained λ_t scaled by the factor). While running, it
// estimates the current scale as observed arrivals over expected arrivals
// in a trailing window and follows the policy of the nearest factor — a
// quantized re-plan that avoids solving the DP inside the simulation loop.
type AdaptiveConfig struct {
	// Factors is the grid of rate scale factors to pre-solve, e.g.
	// 0.5, 0.6, …, 1.5. It must be non-empty, positive and finite, and
	// sorted strictly ascending.
	Factors []float64
	// WindowIntervals is the trailing-window length for the scale
	// estimate, in DP intervals (e.g. 9 intervals = 3 hours at 20 min).
	WindowIntervals int
}

// DefaultAdaptiveConfig covers −50%…+50% rate deviations in 10% steps
// with a 3-hour window at 20-minute intervals. Each factor is i/10 for an
// integer i, so the grid holds exactly 1.0: accumulating f += 0.1 would
// land on 0.9999999999999999 and solve the "unchanged rate" policy on a
// perturbed λ. This is the one definition of the §5.2.5 grid; the
// campaign service's default is this grid too.
func DefaultAdaptiveConfig() AdaptiveConfig {
	factors := make([]float64, 0, 11)
	for i := 5; i <= 15; i++ {
		factors = append(factors, float64(i)/10)
	}
	return AdaptiveConfig{Factors: factors, WindowIntervals: 9}
}

// Validate checks the grid and the window: at least one factor, every
// factor positive and finite, the factors sorted strictly ascending, and a
// window of at least one interval. The simulator's bank and the campaign
// service refuse the same configs.
func (cfg AdaptiveConfig) Validate() error {
	if len(cfg.Factors) == 0 {
		return errors.New("sim: empty factor grid")
	}
	for i, f := range cfg.Factors {
		if f <= 0 || math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Errorf("sim: adaptive factor %v is not a positive finite number", f)
		}
		if i > 0 && f <= cfg.Factors[i-1] {
			return errors.New("sim: adaptive factors must be sorted strictly ascending")
		}
	}
	if cfg.WindowIntervals < 1 {
		return fmt.Errorf("sim: adaptive window must cover at least one interval, got %d", cfg.WindowIntervals)
	}
	return nil
}

// ScaledLambdas returns the trained profile base with every λ_t scaled by
// f: the arrival rates of factor f's policy.
func ScaledLambdas(base []float64, f float64) []float64 {
	out := make([]float64, len(base))
	for t, l := range base {
		out[t] = l * f
	}
	return out
}

// EstimateScale is the controller's rate-scale estimate: observed over
// expected arrivals across a trailing window whose entries cover intervals
// [end−len(window), end), against the trained λ_t in base. An interval
// past the trained horizon has no expectation, so it counts on neither
// side. ok is false when the window expects no arrivals. A ratio past the
// float64 range reads math.MaxFloat64, not +Inf, so the estimate always
// encodes as JSON.
func EstimateScale(window, base []float64, end int) (scale float64, ok bool) {
	var obs, expct float64
	for i, a := range window {
		k := end - len(window) + i
		if k < 0 || k >= len(base) {
			continue
		}
		obs += a
		expct += base[k]
	}
	if expct <= 0 {
		return 0, false
	}
	return min(obs/expct, math.MaxFloat64), true
}

// NearestFactor returns the index of the factor nearest x, the lowest
// index on a tie. x is clamped into [factors[0], factors[len−1]] first:
// far past an edge every |f − x| rounds to the same float64, and the edge
// factor must still win.
func NearestFactor(factors []float64, x float64) int {
	x = max(factors[0], min(x, factors[len(factors)-1]))
	best, bestD := 0, math.Abs(factors[0]-x)
	for i, f := range factors {
		if d := math.Abs(f - x); d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// AdaptivePolicyBank holds the pre-solved per-factor policies.
type AdaptivePolicyBank struct {
	cfg      AdaptiveConfig
	problem  *core.DeadlineProblem
	policies []*core.DeadlinePolicy
}

// NewAdaptivePolicyBank solves one policy per factor, each calibrated via
// the shared Penalty already set on the problem.
func NewAdaptivePolicyBank(p *core.DeadlineProblem, cfg AdaptiveConfig) (*AdaptivePolicyBank, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	bank := &AdaptivePolicyBank{cfg: cfg, problem: p}
	for _, f := range cfg.Factors {
		q := *p
		q.Lambdas = ScaledLambdas(p.Lambdas, f)
		pol, err := q.SolveEfficient()
		if err != nil {
			return nil, err
		}
		bank.policies = append(bank.policies, pol)
	}
	return bank, nil
}

// policyFor returns the policy of the factor nearest to f.
func (b *AdaptivePolicyBank) policyFor(f float64) *core.DeadlinePolicy {
	return b.policies[NearestFactor(b.cfg.Factors, f)]
}

// RunAdaptiveDeadline simulates the adaptive controller against the world.
// Marketplace arrivals per interval are observable (as on mturk-tracker);
// completions are Binomial thinnings of those arrivals — the composed
// Thinned-NHPP model of Section 2.1. Each interval the controller updates
// its scale estimate from the trailing window and prices from the matching
// pre-solved policy.
func RunAdaptiveDeadline(bank *AdaptivePolicyBank, w World, trials int, r *dist.RNG) (TrialStats, error) {
	p := bank.problem
	if len(w.Lambdas) != p.Intervals {
		return TrialStats{}, errors.New("sim: world has wrong interval count")
	}
	if w.Accept == nil || trials <= 0 {
		return TrialStats{}, errors.New("sim: invalid world or trial count")
	}
	st := TrialStats{Trials: trials}
	window := bank.cfg.WindowIntervals
	for trial := 0; trial < trials; trial++ {
		n := p.N
		cost := 0.0
		factor := 1.0
		observed := make([]float64, 0, p.Intervals)
		for t := 0; t < p.Intervals; t++ {
			// Estimate the current rate scale from the trailing window.
			if scale, ok := EstimateScale(observed[max(t-window, 0):], p.Lambdas, t); ok {
				factor = scale
			}
			arrivals := dist.Poisson{Lambda: w.Lambdas[t]}.Sample(r)
			observed = append(observed, float64(arrivals))
			if n == 0 {
				continue
			}
			price := bank.policyFor(factor).PriceAt(n, t)
			done := dist.Binomial{N: arrivals, P: w.Accept.Accept(price)}.Sample(r)
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
