// Package trace generates the synthetic stand-in for the mturk-tracker data
// the paper's experiments consume. The real feed was a sequence of
// 20-minute marketplace snapshots from 1/1/2014–1/28/2014; the generator
// reproduces its structure — weekly periodicity, a diurnal cycle, a weekend
// dip, Poisson sampling noise, and the New-Year's-Day anomaly that drives
// Figure 10 — without the proprietary data. It also synthesizes the task
// group snapshots behind Table 2 and Figure 6.
package trace

import (
	"math"

	"crowdpricing/internal/dist"
	"crowdpricing/internal/nhpp"
	"crowdpricing/internal/rate"
)

// Bucket constants of the mturk-tracker feed.
const (
	// BucketWidth is the snapshot spacing in hours (20 minutes).
	BucketWidth = 1.0 / 3
	// BucketsPerDay is the number of 20-minute buckets per day.
	BucketsPerDay = 72
	// Days is the length of the generated trace (1/1–1/28).
	Days = 28
)

// Config shapes the synthetic marketplace arrival trace. Rates are worker
// arrivals per hour for the whole marketplace.
type Config struct {
	// BaseRate is the average arrival rate (the paper observes ≈6000 task
	// completions per hour marketplace-wide; arrivals scale with it).
	BaseRate float64
	// DiurnalAmplitude in [0,1) scales the day/night swing.
	DiurnalAmplitude float64
	// WeekendDip in [0,1) is the fractional rate drop on Saturday/Sunday.
	WeekendDip float64
	// HolidayDip in [0,1) is the fractional rate drop on day 1 (Jan 1), the
	// consistent deviation Figure 10(c) attributes to the special date.
	HolidayDip float64
	// Seed drives the Poisson sampling noise.
	Seed int64
}

// DefaultConfig mirrors the magnitudes visible in Figure 1 and the
// marketplace totals of Section 5.1.2. The base arrival rate is calibrated
// so the paper's default workload (N=200 tasks, 24-hour deadline, Equation
// 13 acceptance) reproduces the break-even price c₀ ≈ 12 of Section 5.2.1;
// the paper's headline 6000/hour figure counts completions marketplace-wide,
// not arrivals, so the two need not match.
func DefaultConfig() Config {
	return Config{
		BaseRate:         5200,
		DiurnalAmplitude: 0.45,
		WeekendDip:       0.25,
		HolidayDip:       0.45,
		Seed:             20140101,
	}
}

// Trace is a generated arrival dataset.
type Trace struct {
	// Counts holds worker arrivals per 20-minute bucket, Days*BucketsPerDay
	// entries starting at midnight on day 1.
	Counts []int
	// Truth is the noiseless rate function the counts were sampled from.
	Truth rate.Fn
	cfg   Config
}

// trueRate returns the noiseless λ(t) at hour t since the trace start.
func trueRate(cfg Config, t float64) float64 {
	day := int(math.Floor(t / 24))
	hourOfDay := t - float64(day)*24
	// Diurnal cycle peaking mid-day (US daytime dominates MTurk traffic).
	diurnal := 1 + cfg.DiurnalAmplitude*math.Sin(2*math.Pi*(hourOfDay-9)/24)
	r := cfg.BaseRate * diurnal
	// Day 0 is Wednesday Jan 1 2014; weekend days are 3,4 mod 7 (Sat, Sun).
	switch ((day % 7) + 7) % 7 {
	case 3, 4:
		r *= 1 - cfg.WeekendDip
	}
	if day == 0 {
		r *= 1 - cfg.HolidayDip
	}
	if r < 0 {
		r = 0
	}
	return r
}

// truthFn adapts trueRate to the rate.Fn interface with numerically exact
// piecewise-constant integration at bucket resolution.
type truthFn struct{ cfg Config }

func (f truthFn) Rate(t float64) float64 { return trueRate(f.cfg, t) }

func (f truthFn) Integral(s, u float64) float64 {
	if s > u {
		return -f.Integral(u, s)
	}
	// Integrate at bucket resolution: the generator samples per bucket, so
	// bucket-midpoint evaluation is the exact inverse of the sampler.
	total := 0.0
	t := s
	for t < u {
		end := math.Min(u, (math.Floor(t/BucketWidth)+1)*BucketWidth)
		if end <= t {
			end = math.Nextafter(t, math.Inf(1))
		}
		mid := (t + end) / 2
		total += trueRate(f.cfg, mid) * (end - t)
		t = end
	}
	return total
}

// Generate samples a full 28-day trace from the configured rate shape.
func Generate(cfg Config) *Trace {
	r := dist.NewRNG(cfg.Seed)
	fn := truthFn{cfg: cfg}
	n := Days * BucketsPerDay
	counts := make([]int, n)
	for i := range counts {
		s := float64(i) * BucketWidth
		mean := fn.Integral(s, s+BucketWidth)
		counts[i] = dist.Poisson{Lambda: mean}.Sample(r)
	}
	return &Trace{Counts: counts, Truth: fn, cfg: cfg}
}

// Day returns the 72 bucket counts of day d (0-based).
func (tr *Trace) Day(d int) []int {
	if d < 0 || d >= Days {
		panic("trace: day out of range")
	}
	return tr.Counts[d*BucketsPerDay : (d+1)*BucketsPerDay]
}

// Rate fits a piecewise-constant rate over the whole trace.
func (tr *Trace) Rate() *rate.Piecewise {
	return nhpp.EstimatePiecewise(tr.Counts, BucketWidth)
}

// SixHourSeries aggregates the trace into 6-hour completion counts, the
// series plotted in Figure 1.
func (tr *Trace) SixHourSeries() []int {
	per := 18 // 6h / 20min
	out := make([]int, len(tr.Counts)/per)
	for i := range out {
		sum := 0
		for j := 0; j < per; j++ {
			sum += tr.Counts[i*per+j]
		}
		out[i] = sum
	}
	return out
}
