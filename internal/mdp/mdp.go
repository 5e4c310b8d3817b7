// Package mdp provides generic Markov Decision Process solvers: exact
// backward induction for finite-horizon problems (the structure behind the
// deadline pricing DP of Section 3) and value iteration for stationary
// problems (the structure behind the deadline/budget trade-off MDPs of
// Section 6). The specialized, optimized DP lives in internal/core; this
// package exists to cross-validate it on small instances and to host the
// Section 6 extensions that do not need the specialized speed-ups.
package mdp

import (
	"errors"
	"math"
)

// Transition is one outcome of taking an action: with probability Prob the
// process moves to state Next paying Cost.
type Transition struct {
	Next int
	Prob float64
	Cost float64
}

// FiniteHorizon describes a finite-horizon MDP with stage-indexed dynamics:
// at stage t in state s, action a yields Transitions(t, s, a). States and
// actions are dense integer indices.
type FiniteHorizon struct {
	// Horizon is the number of decision stages T; decisions happen at
	// stages 0..T-1 and TerminalCost applies at stage T.
	Horizon int
	// States is the number of states.
	States int
	// Actions is the number of actions available in every state.
	Actions int
	// Transitions returns the outcome distribution of action a in state s
	// at stage t. Probabilities should sum to 1; any shortfall is treated
	// as remaining in s at zero cost. SolveFiniteHorizon reads each
	// returned slice before its next call, so an implementation may return
	// the same buffer every time.
	Transitions func(t, s, a int) []Transition
	// TerminalCost is the cost of ending the horizon in state s.
	TerminalCost func(s int) float64
}

// Policy is a stage-indexed action choice: Action[t][s] is the optimal
// action at stage t in state s, and Value[t][s] the optimal cost-to-go.
type Policy struct {
	Action [][]int
	Value  [][]float64
}

// SolveFiniteHorizon runs exact backward induction and returns the optimal
// policy and value function.
func SolveFiniteHorizon(m FiniteHorizon) (Policy, error) {
	if m.Horizon <= 0 || m.States <= 0 || m.Actions <= 0 {
		return Policy{}, errors.New("mdp: non-positive problem dimensions")
	}
	if m.Transitions == nil || m.TerminalCost == nil {
		return Policy{}, errors.New("mdp: missing Transitions or TerminalCost")
	}
	value := make([][]float64, m.Horizon+1)
	action := make([][]int, m.Horizon)
	value[m.Horizon] = make([]float64, m.States)
	for s := 0; s < m.States; s++ {
		value[m.Horizon][s] = m.TerminalCost(s)
	}
	for t := m.Horizon - 1; t >= 0; t-- {
		value[t] = make([]float64, m.States)
		action[t] = make([]int, m.States)
		next := value[t+1]
		for s := 0; s < m.States; s++ {
			best := math.Inf(1)
			bestA := 0
			for a := 0; a < m.Actions; a++ {
				q := 0.0
				mass := 0.0
				for _, tr := range m.Transitions(t, s, a) {
					q += tr.Prob * (tr.Cost + next[tr.Next])
					mass += tr.Prob
				}
				if mass < 1 {
					// Unassigned mass stays in place at zero cost.
					q += (1 - mass) * next[s]
				}
				if q < best {
					best = q
					bestA = a
				}
			}
			value[t][s] = best
			action[t][s] = bestA
		}
	}
	return Policy{Action: action, Value: value}, nil
}

// Stationary describes an infinite-horizon total-cost MDP with an absorbing
// goal: dynamics do not depend on a stage index and every policy eventually
// reaches a zero-cost absorbing state (a stochastic shortest path problem).
type Stationary struct {
	States  int
	Actions int
	// Transitions returns the outcome distribution of action a in state s.
	// Probabilities should sum to 1; shortfall mass stays in s at zero
	// cost, which models "nothing happened this step" only if an explicit
	// self-loop cost is included in the returned transitions instead.
	Transitions func(s, a int) []Transition
	// Absorbing reports whether s is a zero-cost terminal state.
	Absorbing func(s int) bool
}

// SolveValueIteration solves a stationary total-cost MDP by value iteration
// to the given tolerance, returning per-state optimal values and actions.
// maxIter bounds the number of sweeps.
func SolveValueIteration(m Stationary, tol float64, maxIter int) ([]float64, []int, error) {
	if m.States <= 0 || m.Actions <= 0 {
		return nil, nil, errors.New("mdp: non-positive problem dimensions")
	}
	value := make([]float64, m.States)
	action := make([]int, m.States)
	for iter := 0; iter < maxIter; iter++ {
		delta := 0.0
		for s := 0; s < m.States; s++ {
			if m.Absorbing(s) {
				value[s] = 0
				continue
			}
			best := math.Inf(1)
			bestA := 0
			for a := 0; a < m.Actions; a++ {
				trs := m.Transitions(s, a)
				// Solve for the Q-value treating a self-loop analytically:
				// q = cost + pSelf*q + Σ_other p(c + v(next))
				// ⇒ q = [Σ_other p(cost + v)] / (1 − pSelf) when the
				// self-loop carries per-step cost folded into its entry.
				pSelf := 0.0
				selfCost := 0.0
				rest := 0.0
				for _, tr := range trs {
					if tr.Next == s {
						pSelf += tr.Prob
						selfCost += tr.Prob * tr.Cost
					} else {
						rest += tr.Prob * (tr.Cost + value[tr.Next])
					}
				}
				var q float64
				if pSelf >= 1-1e-12 {
					q = math.Inf(1) // never leaves: infinite total cost
				} else {
					q = (selfCost + rest) / (1 - pSelf)
				}
				if q < best {
					best = q
					bestA = a
				}
			}
			if d := math.Abs(best - value[s]); d > delta {
				delta = d
			}
			value[s] = best
			action[s] = bestA
		}
		if delta < tol {
			return value, action, nil
		}
	}
	return value, action, errors.New("mdp: value iteration did not converge")
}
