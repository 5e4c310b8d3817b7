// Package market is an event-driven simulator of a crowdsourcing
// marketplace in the style of Mechanical Turk, built to reproduce the
// paper's live experiments (Section 5.4) without the live platform.
//
// Workers arrive following a non-homogeneous Poisson process. Each arriving
// worker decides whether to take one of the requester's HITs (a bundle of
// unit tasks; the live experiments express price through the bundle size at
// a fixed $0.02 HIT reward). A worker who accepts completes HITs back to
// back, staying for another HIT with a wage-dependent retention probability
// (the Section 5.4.3 observation behind Figure 15), and answers each unit
// task correctly according to a latent per-worker accuracy that is
// independent of price (Figures 13/14, Tables 3/4).
package market

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"crowdpricing/internal/dist"
	"crowdpricing/internal/rate"
)

// Config describes one live-experiment marketplace.
type Config struct {
	// TotalTasks is the number of unit tasks to complete (5000 photo pairs
	// in the paper).
	TotalTasks int
	// BasePriceCents is the fixed reward per HIT ($0.02 → 2).
	BasePriceCents int
	// TaskSeconds is the average working time per unit task.
	TaskSeconds float64
	// Horizon is the experiment length in hours (14 in the paper: 8am–10pm).
	Horizon float64
	// Arrival is the marketplace worker arrival rate (workers/hour).
	Arrival rate.Fn
	// AcceptHIT returns the probability that an arriving worker takes one
	// of the requester's HITs when the bundle size is g tasks.
	AcceptHIT func(g int) float64
	// Retention returns the probability that a worker who just finished a
	// HIT of size g immediately takes another one.
	Retention func(g int) float64
	// AccuracyMean and AccuracySigma parameterize the latent per-worker
	// answer accuracy (clamped to [0.5, 1]).
	AccuracyMean, AccuracySigma float64
}

// Validate reports whether the configuration is usable.
func (c *Config) Validate() error {
	switch {
	case c.TotalTasks <= 0:
		return errors.New("market: TotalTasks must be positive")
	case c.BasePriceCents <= 0:
		return errors.New("market: BasePriceCents must be positive")
	case c.TaskSeconds <= 0:
		return errors.New("market: TaskSeconds must be positive")
	case c.Horizon <= 0:
		return errors.New("market: Horizon must be positive")
	case c.Arrival == nil:
		return errors.New("market: nil arrival rate")
	case c.AcceptHIT == nil || c.Retention == nil:
		return errors.New("market: nil behaviour functions")
	case c.AccuracyMean < 0.5 || c.AccuracyMean > 1:
		return fmt.Errorf("market: accuracy mean %v outside [0.5, 1]", c.AccuracyMean)
	case c.AccuracySigma < 0:
		return errors.New("market: negative accuracy sigma")
	}
	return nil
}

// HITRecord is one completed HIT.
type HITRecord struct {
	// Time is the completion time in hours from the experiment start.
	Time float64
	// Group is the bundle size of this HIT.
	Group int
	// Tasks is the number of unit tasks in the HIT (== Group except for a
	// final partial bundle).
	Tasks int
	// Correct is the number of correctly answered unit tasks.
	Correct int
	// Worker identifies the worker who completed the HIT.
	Worker int
}

// Accuracy returns the fraction of correct answers in the HIT.
func (h HITRecord) Accuracy() float64 {
	if h.Tasks == 0 {
		return 0
	}
	return float64(h.Correct) / float64(h.Tasks)
}

// Result is the outcome of one simulated experiment run.
type Result struct {
	// HITs lists every completed HIT in completion-time order.
	HITs []HITRecord
	// TasksCompleted is the total number of unit tasks completed within
	// the horizon.
	TasksCompleted int
	// CostCents is the total payment (BasePriceCents per completed HIT).
	CostCents int
	// Workers is the number of distinct workers who took at least one HIT.
	Workers int
	// CompletionTime is the time the final task finished, or +Inf if the
	// batch did not finish within the horizon.
	CompletionTime float64
}

// CompletedTasksBy returns the number of unit tasks finished by time t.
func (r *Result) CompletedTasksBy(t float64) int {
	total := 0
	for _, h := range r.HITs {
		if h.Time <= t {
			total += h.Tasks
		}
	}
	return total
}

// CompletedHITsBy returns the number of HITs finished by time t.
func (r *Result) CompletedHITsBy(t float64) int {
	n := sort.Search(len(r.HITs), func(i int) bool { return r.HITs[i].Time > t })
	return n
}

// HITsPerWorker returns the average number of HITs completed per worker.
func (r *Result) HITsPerWorker() float64 {
	if r.Workers == 0 {
		return 0
	}
	return float64(len(r.HITs)) / float64(r.Workers)
}

// Accuracies returns the per-HIT accuracy sample.
func (r *Result) Accuracies() []float64 {
	out := make([]float64, len(r.HITs))
	for i, h := range r.HITs {
		out[i] = h.Accuracy()
	}
	return out
}

// GroupChooser picks the bundle size for newly offered HITs. It is invoked
// at every decision epoch (hourly in the live experiments) with the tasks
// still unassigned and the time; it must return one of the configured
// bundle sizes.
type GroupChooser func(remainingTasks int, hour int) int

// RunFixed simulates the Section 5.4.1 fixed-pricing experiment: the bundle
// size stays g for the whole horizon.
func RunFixed(cfg Config, g int, seed int64) (*Result, error) {
	return run(cfg, func(int, int) int { return g }, seed)
}

// RunDynamic simulates the Section 5.4.2 dynamic-pricing experiment: choose
// re-picks the bundle size at every hour boundary.
func RunDynamic(cfg Config, choose GroupChooser, seed int64) (*Result, error) {
	if choose == nil {
		return nil, errors.New("market: nil group chooser")
	}
	return run(cfg, choose, seed)
}

// run advances the marketplace in one-minute steps: arrivals are Poisson
// within each step, each arrival flips acceptance for the current bundle
// size, and accepted workers chain HITs until retention fails, inventory
// runs out, or the horizon would be exceeded.
func run(cfg Config, choose GroupChooser, seed int64) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := dist.NewRNG(seed)
	res := &Result{CompletionTime: math.Inf(1)}
	remaining := cfg.TotalTasks
	const perHour = 60 // one-minute steps
	const step = 1.0 / perHour
	g := choose(remaining, 0)
	if g <= 0 {
		return nil, fmt.Errorf("market: chooser returned bundle size %d", g)
	}
	workerID := 0
	steps := int(math.Ceil(cfg.Horizon * perHour))
	for k := 0; k < steps && remaining > 0; k++ {
		t := float64(k) * step
		if k > 0 && k%perHour == 0 {
			g = choose(remaining, k/perHour)
			if g <= 0 {
				return nil, fmt.Errorf("market: chooser returned bundle size %d", g)
			}
		}
		mean := cfg.Arrival.Integral(t, t+step)
		arrivals := dist.Poisson{Lambda: mean}.Sample(r)
		for a := 0; a < arrivals && remaining > 0; a++ {
			if !r.Bernoulli(cfg.AcceptHIT(g)) {
				continue
			}
			workerID++
			res.Workers++
			acc := min(max(r.Normal(cfg.AccuracyMean, cfg.AccuracySigma), 0.5), 1)
			// Arrival lands uniformly within the minute.
			at := t + r.Float64()*step
			now := at
			for remaining > 0 {
				take := g
				if take > remaining {
					take = remaining
				}
				finish := now + float64(take)*cfg.TaskSeconds/3600
				if finish > cfg.Horizon {
					break // the HIT would not finish before the deadline
				}
				correct := dist.Binomial{N: take, P: acc}.Sample(r)
				res.HITs = append(res.HITs, HITRecord{
					Time: finish, Group: g, Tasks: take, Correct: correct, Worker: workerID,
				})
				remaining -= take
				res.TasksCompleted += take
				res.CostCents += cfg.BasePriceCents
				now = finish
				if remaining == 0 {
					res.CompletionTime = finish
					break
				}
				if !r.Bernoulli(cfg.Retention(g)) {
					break
				}
			}
		}
	}
	sort.Slice(res.HITs, func(i, j int) bool { return res.HITs[i].Time < res.HITs[j].Time })
	return res, nil
}
