// Package analytics is the live analytics plane of the pricing daemon —
// the "A" side of the HTAP split PAPERS.md's Polynesia argues for: the
// transactional path (create/observe/quote under per-campaign mutexes)
// streams its lifecycle events into this aggregator, which folds them
// into the paper's rate-model estimators so /v1/analytics and /metrics
// answer "what is the fleet's arrival rate right now?" without touching
// a single campaign lock.
//
// The aggregator implements campaign.EventSink, so the same fold serves
// three feeds: live traffic (Manager.AttachSink), the recorded history of
// an event log, which Manager.ReplayWAL streams to the attached sink as
// it reads the log at boot, and offline replay in cmd/wal's stats command
// (campaign.FoldWAL, the same pass without the rebuild). The fold is
// deterministic by construction — plain accumulation in event-stream
// order, no clocks, no map-order dependence — so replaying a fixed-seed
// WAL twice yields bit-identical λ̂ fits, an acceptance gate tested here
// and in CI.
//
// Estimators, all per DP interval (the paper's time unit):
//
//   - λ̂ (lambda_hat): mean arrivals per observed interval over a
//     trailing window of the last W observes — the fleet's current rate,
//     re-fit as traffic drifts.
//   - λ̂ lifetime: the same mean over every observe since boot.
//   - interval means: per-interval-index mean arrivals across campaigns —
//     the piecewise arrival profile λ̂_t, which for Poisson interval
//     counts is exactly the MLE fit internal/nhpp.EstimatePiecewise
//     computes, exposed as a rate.Piecewise via Snapshot.Rate.
//
// Cohorts (kind, plus "/adaptive" for re-planning campaigns) carry
// completion and price summaries per traffic class.
package analytics

import (
	"sync"
	"sync/atomic"

	"crowdpricing/internal/rate"
)

// DefaultWindow is the trailing-window length (in observes) of the λ̂
// re-fit when the aggregator is built with window 0.
const DefaultWindow = 256

// maxProfileIntervals bounds the per-interval arrival profile; observes
// past this interval index still count toward λ̂ but not the profile.
const maxProfileIntervals = 1024

// Aggregator folds campaign lifecycle events into fleet-wide and
// per-cohort summaries. Build with New, attach with
// campaign.Manager.AttachSink (live traffic, and the recorded log during
// ReplayWAL) or feed through campaign.FoldWAL (recorded, offline); safe
// for arbitrary concurrent use. Its mutex is a leaf: no sink method calls
// out of the package.
type Aggregator struct {
	mu     sync.Mutex
	window int

	// recent is the trailing-window ring of per-observe arrivals; next is
	// the insertion cursor and count the observes folded so far (the ring
	// holds min(count, window) entries).
	recent []float64
	next   int
	count  int64

	arrivals    float64
	completions int64

	// profileSum/profileObs accumulate arrivals by interval index — the
	// piecewise λ̂_t fit. profileClipped counts observes beyond the bound.
	profileSum     []float64
	profileObs     []int64
	profileClipped int64

	cohorts map[string]*cohortAgg

	// byKey is a copy-on-write index of cohorts for the quote hot path:
	// rebuilt under mu whenever a cohort is created, read with one atomic
	// load by CampaignQuoted so quotes never contend on mu (which would
	// serialize every quote and observe fleet-wide on a single lock).
	byKey atomic.Pointer[map[string]*cohortAgg]
}

type cohortAgg struct {
	campaigns   int64
	finished    int64
	expired     int64
	observes    int64
	arrivals    float64
	completions int64

	// quotes and priceSum are written with atomic adds off the aggregator
	// mutex — the quote hot path — and read with atomic loads in Snapshot.
	quotes   atomic.Int64
	priceSum atomic.Int64
}

// New builds an Aggregator with a trailing λ̂ window of window observes
// (<= 0 = DefaultWindow).
func New(window int) *Aggregator {
	if window <= 0 {
		window = DefaultWindow
	}
	return &Aggregator{
		window:  window,
		recent:  make([]float64, window),
		cohorts: make(map[string]*cohortAgg),
	}
}

// CohortKey renders the cohort label for (kind, adaptive) — the value of
// the `cohort` metric label.
func CohortKey(kind string, adaptive bool) string {
	if adaptive {
		return kind + "/adaptive"
	}
	return kind
}

// cohort returns (creating on first sight) one cohort's accumulator.
// Callers hold a.mu.
func (a *Aggregator) cohort(kind string, adaptive bool) *cohortAgg {
	key := CohortKey(kind, adaptive)
	c, ok := a.cohorts[key]
	if !ok {
		c = &cohortAgg{}
		a.cohorts[key] = c
		read := make(map[string]*cohortAgg, len(a.cohorts))
		for k, v := range a.cohorts {
			read[k] = v
		}
		a.byKey.Store(&read)
	}
	return c
}

// CampaignCreated implements campaign.EventSink.
func (a *Aggregator) CampaignCreated(kind string, adaptive bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.cohort(kind, adaptive).campaigns++
}

// CampaignObserved implements campaign.EventSink: one observed interval's
// arrivals fold into the trailing window, the lifetime totals, the
// interval profile, and the cohort.
func (a *Aggregator) CampaignObserved(kind string, adaptive bool, arrivals float64, completed int, interval int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.recent[a.next] = arrivals
	a.next = (a.next + 1) % a.window
	a.count++
	a.arrivals += arrivals
	a.completions += int64(completed)
	if interval >= 0 && interval < maxProfileIntervals {
		for len(a.profileSum) <= interval {
			a.profileSum = append(a.profileSum, 0)
			a.profileObs = append(a.profileObs, 0)
		}
		a.profileSum[interval] += arrivals
		a.profileObs[interval]++
	} else {
		a.profileClipped++
	}
	c := a.cohort(kind, adaptive)
	c.observes++
	c.arrivals += arrivals
	c.completions += int64(completed)
}

// CampaignQuoted implements campaign.EventSink. It is on the quote hot
// path: after a cohort's first quote it is two atomic adds against the
// copy-on-write index — no lock, no allocation — so quotes across all
// campaigns never serialize on the aggregator mutex. Only a cohort's
// very first quote (before any create/observe registered it) takes mu.
func (a *Aggregator) CampaignQuoted(kind string, adaptive bool, price int) {
	var c *cohortAgg
	if m := a.byKey.Load(); m != nil {
		c = (*m)[CohortKey(kind, adaptive)]
	}
	if c == nil {
		a.mu.Lock()
		c = a.cohort(kind, adaptive)
		a.mu.Unlock()
	}
	c.quotes.Add(1)
	c.priceSum.Add(int64(price))
}

// CampaignFinished implements campaign.EventSink.
func (a *Aggregator) CampaignFinished(kind string, adaptive bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.cohort(kind, adaptive).finished++
}

// CampaignExpired implements campaign.EventSink.
func (a *Aggregator) CampaignExpired(kind string, adaptive bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.cohort(kind, adaptive).expired++
}

// Snapshot renders the current fold. Deterministic for a deterministic
// event stream: window sums run oldest-to-newest, cohort maps marshal in
// sorted key order, and nothing reads a clock.
func (a *Aggregator) Snapshot() *Snapshot {
	a.mu.Lock()
	defer a.mu.Unlock()
	s := &Snapshot{
		Window:         a.window,
		Observes:       a.count,
		Arrivals:       a.arrivals,
		Completions:    a.completions,
		ProfileClipped: a.profileClipped,
		Cohorts:        make(map[string]CohortSnapshot, len(a.cohorts)),
	}
	// Trailing-window λ̂: mean of the last min(count, window) arrivals,
	// summed in insertion order so the float fold is reproducible.
	n := a.count
	if n > int64(a.window) {
		n = int64(a.window)
	}
	if n > 0 {
		start := (a.next - int(n) + a.window) % a.window
		var sum float64
		for i := 0; i < int(n); i++ {
			sum += a.recent[(start+i)%a.window]
		}
		s.WindowObserves = n
		s.LambdaHat = sum / float64(n)
	}
	if a.count > 0 {
		s.LambdaHatLifetime = a.arrivals / float64(a.count)
	}
	if len(a.profileSum) > 0 {
		s.IntervalMeans = make([]float64, len(a.profileSum))
		s.IntervalObserves = append([]int64(nil), a.profileObs...)
		for i, sum := range a.profileSum {
			if a.profileObs[i] > 0 {
				s.IntervalMeans[i] = sum / float64(a.profileObs[i])
			}
		}
	}
	for key, c := range a.cohorts {
		cs := CohortSnapshot{
			Campaigns:   c.campaigns,
			Finished:    c.finished,
			Expired:     c.expired,
			Observes:    c.observes,
			Arrivals:    c.arrivals,
			Completions: c.completions,
			Quotes:      c.quotes.Load(),
			PriceSum:    c.priceSum.Load(),
		}
		if c.observes > 0 {
			cs.LambdaHat = c.arrivals / float64(c.observes)
		}
		if cs.Quotes > 0 {
			cs.MeanPrice = float64(cs.PriceSum) / float64(cs.Quotes)
		}
		s.Cohorts[key] = cs
	}
	return s
}

// Snapshot is the wire-facing analytics view served on /v1/analytics and
// printed by wal stats (cmd/wal).
type Snapshot struct {
	// LambdaHat is the trailing-window mean arrivals per interval —
	// the fleet's current rate estimate; WindowObserves is how many
	// observes it averaged (at most Window).
	LambdaHat      float64 `json:"lambda_hat"`
	WindowObserves int64   `json:"window_observes"`
	Window         int     `json:"window"`
	// LambdaHatLifetime is the same mean over every observe folded.
	LambdaHatLifetime float64 `json:"lambda_hat_lifetime"`
	// Observes, Arrivals, and Completions are fleet lifetime totals.
	Observes    int64   `json:"observes"`
	Arrivals    float64 `json:"observed_arrivals"`
	Completions int64   `json:"completions"`
	// IntervalMeans is the per-interval-index mean-arrival profile λ̂_t
	// (the piecewise MLE fit); IntervalObserves the per-index sample
	// counts behind it. ProfileClipped counts observes whose interval
	// index fell outside the profile bound.
	IntervalMeans    []float64 `json:"interval_means,omitempty"`
	IntervalObserves []int64   `json:"interval_observes,omitempty"`
	ProfileClipped   int64     `json:"profile_clipped,omitempty"`
	// Cohorts maps cohort keys (kind, plus "/adaptive" for re-planning
	// campaigns) to their summaries.
	Cohorts map[string]CohortSnapshot `json:"cohorts,omitempty"`
}

// CohortSnapshot is one traffic class's summary.
type CohortSnapshot struct {
	Campaigns   int64   `json:"campaigns"`
	Finished    int64   `json:"finished"`
	Expired     int64   `json:"expired,omitempty"`
	Observes    int64   `json:"observes"`
	Arrivals    float64 `json:"observed_arrivals"`
	Completions int64   `json:"completions"`
	// LambdaHat is the cohort's lifetime mean arrivals per interval.
	LambdaHat float64 `json:"lambda_hat,omitempty"`
	Quotes    int64   `json:"quotes"`
	PriceSum  int64   `json:"price_sum,omitempty"`
	MeanPrice float64 `json:"mean_price,omitempty"`
}

// Rate returns the fitted piecewise arrival-rate function (unit interval
// width), or nil before any interval-indexed observe — the bridge from
// recorded traffic back into internal/rate, where the paper's NHPP
// machinery (thinning, integrals, figure pipelines) can consume it.
func (s *Snapshot) Rate() *rate.Piecewise {
	if len(s.IntervalMeans) == 0 {
		return nil
	}
	return rate.NewPiecewise(1, s.IntervalMeans)
}
