package market

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"

	"crowdpricing/internal/dist"
	"crowdpricing/internal/mdp"
)

// GroupRates holds the estimated marketplace response per candidate bundle
// size, the quantities Section 5.4.2 estimates from the fixed-pricing
// trials: HITPerArrival[g] is the expected number of HIT completions per
// marketplace worker arrival while the bundle size is g. Keeping the
// estimate per-arrival lets the planner modulate it with the time-varying
// arrival profile, matching the paper's use of "normalized worker arrival
// data" from the fixed trials.
type GroupRates struct {
	Sizes         []int
	HITPerArrival map[int]float64
	basePr        int
}

// EstimateGroupRates derives per-arrival HIT completion rates from
// fixed-trial results, dividing completed HITs by the expected worker
// arrivals over the effective runtime (completion time if the batch
// finished, otherwise the horizon).
func EstimateGroupRates(cfg Config, results map[int]*Result) (GroupRates, error) {
	gr := GroupRates{
		Sizes:         slices.Sorted(maps.Keys(results)),
		HITPerArrival: map[int]float64{},
		basePr:        cfg.BasePriceCents,
	}
	if len(gr.Sizes) == 0 {
		return GroupRates{}, errors.New("market: no fixed trials supplied")
	}
	for _, g := range gr.Sizes {
		res := results[g]
		dur := cfg.Horizon
		if !math.IsInf(res.CompletionTime, 1) && res.CompletionTime > 0 {
			dur = res.CompletionTime
		}
		arrivals := cfg.Arrival.Integral(0, dur)
		if arrivals <= 0 {
			return GroupRates{}, fmt.Errorf("market: no expected arrivals for group %d", g)
		}
		gr.HITPerArrival[g] = float64(len(res.HITs)) / arrivals
	}
	return gr, nil
}

// PlanGroupSizes solves a finite-horizon MDP over hourly decision epochs:
// the state is the number of remaining task units, the action is the bundle
// size, completions within an hour are Poisson with mean HITRate[g]·g/unit,
// the stage cost is the HIT payments, and unfinished units at the deadline
// pay penaltyCents each. unitTasks coarsens the state space (10 task units
// keep 5000 tasks tractable); penaltyCents is per unit.
//
// The returned GroupChooser indexes the solved policy by (remaining tasks,
// hour) and is plugged straight into RunDynamic — this is the paper's
// Section 5.4.2 controller with the deadline MDP of Section 3 transplanted
// onto bundle-size actions.
func PlanGroupSizes(cfg Config, rates GroupRates, unitTasks int, penaltyCents float64) (GroupChooser, error) {
	if unitTasks <= 0 {
		return nil, errors.New("market: unitTasks must be positive")
	}
	if len(rates.Sizes) == 0 {
		return nil, errors.New("market: no candidate bundle sizes")
	}
	units := (cfg.TotalTasks + unitTasks - 1) / unitTasks
	hours := int(math.Ceil(cfg.Horizon))
	actions := rates.Sizes
	// Expected worker arrivals per decision hour, so late quiet hours are
	// planned with their true lower throughput.
	hourArrivals := make([]float64, hours)
	for h := range hourArrivals {
		hourArrivals[h] = cfg.Arrival.Integral(float64(h), math.Min(float64(h+1), cfg.Horizon))
	}
	// Units completed in hour t under action a are Poisson with the
	// unit-rate mean. rows[t*len(actions)+a] holds the probabilities of
	// k = 0, 1, … completed units, for k below units and up to the first
	// term past the mean that falls under 1e-12. State s reads the row's
	// first s terms and sends the rest of the mass to state 0.
	rows := make([][]float64, hours*len(actions))
	costPerUnit := make([]float64, len(actions))
	for a, g := range actions {
		costPerUnit[a] = float64(rates.basePr) * float64(unitTasks) / float64(g)
		for t, arrivals := range hourArrivals {
			meanUnits := rates.HITPerArrival[g] * arrivals * float64(g) / float64(unitTasks)
			pois := dist.Poisson{Lambda: meanUnits}
			var row []float64
			for k := 0; k < units; k++ {
				p := pois.PMF(k)
				if p < 1e-12 && k > int(meanUnits)+5 {
					break
				}
				row = append(row, p)
			}
			rows[t*len(actions)+a] = row
		}
	}
	// SolveFiniteHorizon reads each slice Transitions returns before its
	// next call, so every call reuses one buffer.
	trs := make([]mdp.Transition, 0, units+1)
	m := mdp.FiniteHorizon{
		Horizon: hours,
		States:  units + 1,
		Actions: len(actions),
		Transitions: func(t, s, a int) []mdp.Transition {
			trs = trs[:0]
			if s == 0 {
				return append(trs, mdp.Transition{Next: 0, Prob: 1})
			}
			row, cost := rows[t*len(actions)+a], costPerUnit[a]
			cum := 0.0
			for k, p := range row[:min(s, len(row))] {
				cum += p
				trs = append(trs, mdp.Transition{
					Next: s - k, Prob: p, Cost: float64(k) * cost,
				})
			}
			if tail := 1 - cum; tail > 0 {
				trs = append(trs, mdp.Transition{
					Next: 0, Prob: tail, Cost: float64(s) * cost,
				})
			}
			return trs
		},
		TerminalCost: func(s int) float64 { return float64(s) * penaltyCents },
	}
	pol, err := mdp.SolveFiniteHorizon(m)
	if err != nil {
		return nil, err
	}
	return func(remainingTasks, hour int) int {
		if hour < 0 {
			hour = 0
		}
		if hour >= hours {
			hour = hours - 1
		}
		u := (remainingTasks + unitTasks - 1) / unitTasks
		if u > units {
			u = units
		}
		if u <= 0 {
			return actions[0]
		}
		return actions[pol.Action[hour][u]]
	}, nil
}
