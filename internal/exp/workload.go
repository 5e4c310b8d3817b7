// Package exp contains one driver per table and figure of the paper's
// evaluation (Section 5). Each driver returns structured rows/series and can
// print itself, so cmd/experiments and the benchmark harness regenerate the
// full evaluation from the same code paths.
//
// The default workload mirrors Section 5.2's settings: N = 200 Data
// Collection tasks with a 2-minute completion time, a 24-hour deadline
// starting at midnight of a regular weekday, the Equation-13 acceptance
// curve, and a worker arrival-rate function bound to 20-minute buckets of
// the (synthetic) mturk-tracker trace.
package exp

import (
	"crowdpricing/internal/choice"
	"crowdpricing/internal/core"
	"crowdpricing/internal/nhpp"
	"crowdpricing/internal/rate"
	"crowdpricing/internal/trace"
)

// Defaults of the Section 5.2 experiment protocol.
const (
	// DefaultN is the batch size.
	DefaultN = 200
	// DefaultHorizonHours is the deadline T.
	DefaultHorizonHours = 24.0
	// DefaultIntervalMinutes is the DP training granularity.
	DefaultIntervalMinutes = 20
	// DefaultMaxPrice is C, the price search upper bound in cents; it
	// leaves enough headroom for the tightest sweep cell (N=400, T=6h).
	DefaultMaxPrice = 50
	// DefaultConfidence is the completion guarantee both strategies are
	// calibrated to in the comparisons.
	DefaultConfidence = 0.999
	// WorkloadDay is the trace day the default experiment window starts at
	// (day 7 = Wednesday Jan 8, a regular weekday).
	WorkloadDay = 7
	// WorkloadStartHour is the hour of day tasks are posted (the paper's
	// experiments post at 8 a.m., so short deadlines run through daytime
	// traffic rather than the overnight lull).
	WorkloadStartHour = 8
)

// Workload bundles the shared experiment inputs.
type Workload struct {
	// Trace is the synthetic mturk-tracker dataset.
	Trace *trace.Trace
	// Arrival is the fitted arrival-rate function for the experiment
	// window.
	Arrival rate.Fn
	// Accept is the Equation-13 acceptance curve.
	Accept choice.Logistic
}

// DefaultWorkload builds the shared workload deterministically.
func DefaultWorkload() *Workload {
	tr := trace.Generate(trace.DefaultConfig())
	return &Workload{
		Trace:   tr,
		Arrival: windowRate(tr, WorkloadDay, DefaultHorizonHours),
		Accept:  choice.Paper13,
	}
}

// windowRate fits a piecewise-constant rate to the trace starting at
// WorkloadStartHour of the given day for the given number of hours.
func windowRate(tr *trace.Trace, day int, hours float64) rate.Fn {
	buckets := int(hours / trace.BucketWidth)
	start := day*trace.BucketsPerDay + WorkloadStartHour*3
	return nhpp.EstimatePiecewise(tr.Counts[start:start+buckets], trace.BucketWidth)
}

// averageWindowRate averages the 8 a.m.-anchored experiment windows of
// several trace days into one training profile, the Section 5.2.5 protocol
// ("the training arrival-rate is the average arrival-rate of the other 3
// days") aligned to the posting hour.
func averageWindowRate(w *Workload, days []int) rate.Fn {
	buckets := int(DefaultHorizonHours / trace.BucketWidth)
	rates := make([]float64, buckets)
	for _, d := range days {
		start := d*trace.BucketsPerDay + WorkloadStartHour*3
		for i := 0; i < buckets; i++ {
			rates[i] += float64(w.Trace.Counts[start+i])
		}
	}
	for i := range rates {
		rates[i] = rates[i] / float64(len(days)) / trace.BucketWidth
	}
	return rate.NewPiecewise(trace.BucketWidth, rates)
}

// DeadlineProblem builds the deadline pricing instance for the workload with
// the given batch size, horizon, and interval length in minutes.
func (w *Workload) DeadlineProblem(n int, horizonHours float64, intervalMinutes int) *core.DeadlineProblem {
	intervals := int(horizonHours * 60 / float64(intervalMinutes))
	return &core.DeadlineProblem{
		N:         n,
		Horizon:   horizonHours,
		Intervals: intervals,
		Lambdas:   rate.IntervalMeans(w.Arrival, horizonHours, intervals),
		Accept:    w.Accept,
		MinPrice:  0,
		MaxPrice:  DefaultMaxPrice,
		Penalty:   500,
		TruncEps:  1e-9,
	}
}

// DefaultDeadlineProblem is the Section 5.2 default instance.
func (w *Workload) DefaultDeadlineProblem() *core.DeadlineProblem {
	return w.DeadlineProblem(DefaultN, DefaultHorizonHours, DefaultIntervalMinutes)
}
