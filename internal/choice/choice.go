// Package choice implements the Discrete Choice (conditional logit) model of
// Section 2.2: worker utilities with Gumbel noise, multinomial logit choice
// probabilities, the parametric task acceptance probability function
//
//	p(c) = exp(c/s − b) / (exp(c/s − b) + M)        (Equation 3)
//
// mapping a task reward c (in cents) to the probability that an arriving
// worker picks the requester's task, plus the utility-based simulation of
// Section 5.1.1 used to validate the logit form (Figure 5).
package choice

import (
	"fmt"
	"math"

	"crowdpricing/internal/dist"
)

// AcceptanceFn maps a task reward in cents to a task acceptance probability
// in [0, 1]. Implementations must be non-decreasing in the reward; the
// pricing algorithms depend on that monotonicity.
type AcceptanceFn interface {
	Accept(cents int) float64
}

// Logistic is the parametric acceptance function of Equation (3):
// p(c) = exp(c/S − B) / (exp(c/S − B) + M).
type Logistic struct {
	// S is the reward scale in cents (how many cents buy one unit of
	// utility).
	S float64
	// B is the task-intrinsic utility offset; more attractive tasks have
	// smaller (more negative) B.
	B float64
	// M is the competing-market mass, the sum of exponentiated utilities of
	// every other task in the marketplace.
	M float64
}

// Paper13 is the calibrated acceptance function of Equation (13), derived in
// Section 5.1.2 for a Data Collection task with a 2-minute completion time
// on Mechanical Turk: p(c) = exp(c/15 + 0.39) / (exp(c/15 + 0.39) + 2000).
var Paper13 = Logistic{S: 15, B: -0.39, M: 2000}

// Accept implements AcceptanceFn.
func (l Logistic) Accept(cents int) float64 {
	return l.AcceptFloat(float64(cents))
}

// AcceptFloat evaluates the acceptance curve at a real-valued reward; the
// convex-hull machinery of Section 4.3 needs the continuous curve.
//
// Equation (3) is evaluated as 1 / (1 + M·exp(B − c/S)), the same curve
// divided through by exp(c/S − B). That form stays in [0, 1] at every
// reward (exp overflowing gives 0, underflowing gives 1), where e/(e+M) is
// Inf/Inf = NaN once c/S − B passes ~709.8; and it is monotone in c under
// rounding, being a chain of monotone float operations, where e/(e+M) can
// round one ulp down as c grows near p ≈ 1.
func (l Logistic) AcceptFloat(c float64) float64 {
	return 1 / (1 + l.M*math.Exp(l.B-c/l.S))
}

// InverseAccept returns the smallest integer reward c with p(c) >= target,
// or ok=false if no reward up to maxCents reaches the target.
func (l Logistic) InverseAccept(target float64, maxCents int) (c int, ok bool) {
	for c := 0; c <= maxCents; c++ {
		if l.Accept(c) >= target {
			return c, true
		}
	}
	return 0, false
}

// Validate returns an error if the parameters do not describe a proper
// monotone acceptance curve.
func (l Logistic) Validate() error {
	if l.S <= 0 {
		return fmt.Errorf("choice: scale S = %v must be positive", l.S)
	}
	if l.M <= 0 {
		return fmt.Errorf("choice: market mass M = %v must be positive", l.M)
	}
	return nil
}

// Market is a conditional-logit marketplace of competing task utilities:
// the probability a worker picks task i is exp(U_i)/Σ_j exp(U_j).
type Market struct {
	// Utilities holds the deterministic utility of every competing task
	// (excluding the requester's task).
	Utilities []float64
	expSum    float64
}

// NewMarket builds a logit marketplace from competing task utilities.
func NewMarket(utilities []float64) *Market {
	m := &Market{Utilities: append([]float64(nil), utilities...)}
	for _, u := range m.Utilities {
		m.expSum += math.Exp(u)
	}
	return m
}

// ExpSum returns Σ exp(U_i) over the competing tasks — the M constant of
// Equation (3) when the competitors are held fixed.
func (m *Market) ExpSum() float64 { return m.expSum }

// ChooseProb returns the multinomial-logit probability that a worker picks a
// task of utility u over all competitors (Section 2.2):
// p = exp(u)/(exp(u) + Σ exp(U_i)).
func (m *Market) ChooseProb(u float64) float64 {
	e := math.Exp(u)
	return e / (e + m.expSum)
}

// UtilitySimConfig configures the utility-based simulation of Section 5.1.1,
// which validates that maximum-of-random-utility choice produces logit-shaped
// acceptance probabilities (Figure 5).
type UtilitySimConfig struct {
	// NumTasks is the number of competing tasks on the marketplace
	// (100 in the paper).
	NumTasks int
	// Trials is the number of utility draws per reward level.
	Trials int
	// RewardToUtility maps the requester task's reward c to the mean of its
	// utility estimate; the paper uses μ1 = c/50 − 1.
	RewardToUtility func(c int) float64
}

// DefaultUtilitySim reproduces the paper's Section 5.1.1 settings.
func DefaultUtilitySim() UtilitySimConfig {
	return UtilitySimConfig{
		NumTasks: 100,
		Trials:   20_000,
		RewardToUtility: func(c int) float64 {
			return float64(c)/50 - 1
		},
	}
}

// SimulateAcceptance runs the utility-based simulation: competing task i has
// utility mean μ_i ~ N(0,1) and utility noise scale σ_i ~ U[0,1], drawn once;
// the requester's task has mean RewardToUtility(c) and its own σ1 ~ U[0,1].
// For each reward in rewards, it samples all utilities Trials times and
// counts how often the requester's task wins, returning the empirical
// acceptance probability per reward.
func SimulateAcceptance(cfg UtilitySimConfig, rewards []int, r *dist.RNG) []float64 {
	if cfg.NumTasks < 1 || cfg.Trials < 1 {
		panic("choice: invalid utility simulation config")
	}
	// Competing task parameters are sampled once and shared across rewards,
	// matching the paper's setup.
	mus := make([]float64, cfg.NumTasks-1)
	sigmas := make([]float64, cfg.NumTasks-1)
	for i := range mus {
		mus[i] = r.NormFloat64()
		sigmas[i] = r.Float64()
	}
	sigma1 := r.Float64()

	out := make([]float64, len(rewards))
	for ri, c := range rewards {
		mu1 := cfg.RewardToUtility(c)
		wins := 0
		for t := 0; t < cfg.Trials; t++ {
			u1 := mu1 + sigma1*r.NormFloat64()
			won := true
			for i := range mus {
				if mus[i]+sigmas[i]*r.NormFloat64() >= u1 {
					won = false
					break
				}
			}
			if won {
				wins++
			}
		}
		out[ri] = float64(wins) / float64(cfg.Trials)
	}
	return out
}

// FitBeta fits the single-coefficient logit regression of Figure 5: given
// per-task mean utilities z_i for competitors and the reward→utility map for
// the requester's task, find β minimizing squared error between
// exp(β z1(c)) / (exp(β z1(c)) + Σ exp(β z_i)) and the simulated
// probabilities. A golden-section scan over β is ample for one parameter.
func FitBeta(rewardUtil func(c int) float64, competitors []float64, rewards []int, probs []float64) float64 {
	sse := func(beta float64) float64 {
		var z float64
		for _, u := range competitors {
			z += math.Exp(beta * u)
		}
		total := 0.0
		for i, c := range rewards {
			e := math.Exp(beta * rewardUtil(c))
			d := e/(e+z) - probs[i]
			total += d * d
		}
		return total
	}
	lo, hi := 0.01, 20.0
	for iter := 0; iter < 200; iter++ {
		m1 := lo + (hi-lo)/3
		m2 := hi - (hi-lo)/3
		if sse(m1) < sse(m2) {
			hi = m2
		} else {
			lo = m1
		}
	}
	return (lo + hi) / 2
}
