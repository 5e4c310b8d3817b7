// Package nhpp implements the non-homogeneous Poisson process (NHPP) worker
// arrival model of Section 2.1: event simulation by thinning, counting over
// intervals via Equation (1), Bernoulli thinning into a task completion
// process (the "Thinned NHPP"), and estimation of a piecewise-constant λ(t)
// from historical bucket counts the way the experiments bind mturk-tracker
// data.
package nhpp

import (
	"math"

	"crowdpricing/internal/dist"
	"crowdpricing/internal/rate"
)

// Process is a non-homogeneous Poisson process with arrival-rate function
// Lambda (workers per hour).
type Process struct {
	Lambda rate.Fn
}

// New returns an NHPP with the given rate function.
func New(fn rate.Fn) *Process { return &Process{Lambda: fn} }

// Count samples N[s, u], the number of events in [s, u], which by
// Equation (1) is Poisson with mean Λ(s, u).
func (p *Process) Count(r *dist.RNG, s, u float64) int {
	return dist.Poisson{Lambda: p.Lambda.Integral(s, u)}.Sample(r)
}

// ExpectedCount returns Λ(s, u) = E[N[s, u]].
func (p *Process) ExpectedCount(s, u float64) float64 {
	return p.Lambda.Integral(s, u)
}

// Events simulates the arrival times in [s, u) by Lewis–Shedler thinning
// against the supremum of λ over the span. The returned times are sorted.
// maxRate must dominate λ(t) on [s, u); if maxRate is zero, a dominating
// bound is probed from the rate function on a fine grid.
func (p *Process) Events(r *dist.RNG, s, u, maxRate float64) []float64 {
	if u <= s {
		return nil
	}
	if maxRate <= 0 {
		maxRate = probeMax(p.Lambda, s, u)
	}
	if maxRate == 0 {
		return nil
	}
	var times []float64
	t := s
	for {
		t += dist.Exponential{Rate: maxRate}.Sample(r)
		if t >= u {
			break
		}
		lam := p.Lambda.Rate(t)
		if lam > maxRate {
			// The dominating bound was violated; grow it and keep the draw
			// unconditionally (conservative, keeps the sampler total).
			maxRate = lam
			times = append(times, t)
			continue
		}
		if r.Float64()*maxRate < lam {
			times = append(times, t)
		}
	}
	return times
}

// Thin returns the thinned process with rate λ(t)·p, the task completion
// process of Section 2.1. It panics if p is outside [0, 1].
func (p *Process) Thin(accept float64) *Process {
	if accept < 0 || accept > 1 {
		panic("nhpp: acceptance probability outside [0,1]")
	}
	return &Process{Lambda: rate.Scaled{Base: p.Lambda, Factor: accept}}
}

// FirstPassage samples the time at which the w-th event occurs, i.e. the
// total elapsed time T given worker-arrival quantity W = w (Section 4.2.2).
// It returns +Inf if the event never occurs within horizon.
func (p *Process) FirstPassage(r *dist.RNG, w int, horizon float64) float64 {
	if w <= 0 {
		return 0
	}
	// Walk in small steps sampling counts; fine-grained enough for the
	// experiment horizons (days) while staying cheap.
	const step = 1.0 / 60 // one minute
	count := 0
	for t := 0.0; t < horizon; t += step {
		count += p.Count(r, t, t+step)
		if count >= w {
			return t + step
		}
	}
	return math.Inf(1)
}

func probeMax(fn rate.Fn, s, u float64) float64 {
	const grid = 4096
	maxRate := 0.0
	for i := 0; i <= grid; i++ {
		t := s + (u-s)*float64(i)/grid
		if v := fn.Rate(t); v > maxRate {
			maxRate = v
		}
	}
	return maxRate * 1.05 // headroom for values between grid points
}

// EstimatePiecewise fits a piecewise-constant λ(t) from event counts per
// bucket: the MLE for a constant-rate bucket of width w with k events is
// k/w. This mirrors how the paper's experiments turn mturk-tracker 20-minute
// completion counts into an arrival-rate function.
func EstimatePiecewise(counts []int, width float64) *rate.Piecewise {
	rates := make([]float64, len(counts))
	for i, k := range counts {
		rates[i] = float64(k) / width
	}
	return rate.NewPiecewise(width, rates)
}

// AverageRate returns λ̄, the long-run average arrival rate over the horizon
// used by the linearity argument E[T|W] ≈ W/λ̄ of Section 4.2.2.
func AverageRate(fn rate.Fn, horizon float64) float64 {
	return rate.Average(fn, 0, horizon)
}
