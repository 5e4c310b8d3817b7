package core

import (
	"errors"
	"fmt"
)

// Coarsen returns a copy of the problem whose decision epochs are hold
// intervals of the original grid merged together — the marketplace
// constraint Section 2.3 mentions ("some marketplaces may impose a minimum
// time only after which the task reward may be changed"). Each merged λ_t
// is the sum of the hold original ones, so the expected arrivals over the
// horizon are unchanged, and a policy solved on the coarsened problem
// changes price at most once per hold×(original interval length): it is
// the original problem restricted to prices held over each merged epoch,
// so its optimal cost is at least the original's, up to the Poisson
// truncation error.
//
// The original interval count must be divisible by hold: merged intervals
// with ragged tails would bias the λ_t of Equation (4).
func (p *DeadlineProblem) Coarsen(hold int) (*DeadlineProblem, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if hold <= 0 {
		return nil, errors.New("core: hold must be positive")
	}
	if p.Intervals%hold != 0 {
		return nil, fmt.Errorf("core: %d intervals not divisible by hold %d", p.Intervals, hold)
	}
	q := *p
	q.Intervals = p.Intervals / hold
	q.Lambdas = make([]float64, q.Intervals)
	for i := range q.Lambdas {
		for j := 0; j < hold; j++ {
			q.Lambdas[i] += p.Lambdas[i*hold+j]
		}
	}
	return &q, nil
}
