// Package campaign is the online runtime of the pricing service: where
// internal/core solves a policy and internal/sim replays one offline, a
// campaign executes a solved policy against the real world, interval by
// interval, the way GaoP14 intends the system to be used — a requester
// posts a batch, observes worker arrivals, and quotes the price the DP
// dictates for the *current* state.
//
// The design keeps the transactional hot path separate from analytical
// re-planning (the HTAP split PAPERS.md's Polynesia argues for): Observe
// and Quote are O(1) updates and table lookups under a per-campaign mutex,
// while every expensive solve — the initial policy and the adaptive bank's
// per-factor policies — runs through internal/engine's admission-controlled
// scheduler before the campaign goes live. Decoded policy tables live in a
// fingerprint-keyed intern table (intern.go): identical campaigns share
// one compact table, decoded once per distinct problem and resident until
// the last campaign holding it ends, so a quote never waits on a solve.
//
// A Manager owns the campaign table: create/observe/quote/finish lifecycle,
// TTL expiry of abandoned campaigns, Prometheus-style counters, and one
// durability path, the event log (wal.go), so neither a restart nor a
// crash drops live campaigns. The log stores each campaign's original
// request plus its mutations, folded into snapshot records on compaction;
// replay re-solves through the engine — deterministic, so replayed
// campaigns quote bit-identical prices. Every campaign, live or replayed,
// is built by one constructor (newCampaign).
//
// Adaptive mode implements the Section 5.2.5 controller from
// internal/sim/adaptive.go as an online service: the bank of per-factor
// policies (base λ_t scaled by each factor) is pre-solved at creation, the
// arrival-rate scale is re-estimated from a trailing window on every
// Observe, and the campaign switches to the nearest factor's policy — a
// quantized re-plan with zero solver work at decision time. The grid check
// (sim.AdaptiveConfig.Validate), the λ scaling (sim.ScaledLambdas), the
// estimate (sim.EstimateScale) and the nearest-factor rule
// (sim.NearestFactor) are the simulator's own, so both make the same
// decisions.
package campaign

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"crowdpricing/internal/sim"
)

// Campaign lifecycle errors, mapped to HTTP statuses by internal/server.
var (
	// ErrNotFound marks an unknown (or already finished / expired)
	// campaign ID.
	ErrNotFound = errors.New("campaign: not found")
	// ErrUnsupportedKind marks a problem kind with no sequential price
	// table (budget strategies are static up-front allocations).
	ErrUnsupportedKind = errors.New("campaign: kind not supported")
	// ErrAdaptiveUnsupported marks an adaptive request for a kind other
	// than deadline — the §5.2.5 controller re-scales per-interval arrival
	// rates, which only the deadline MDP has.
	ErrAdaptiveUnsupported = errors.New("campaign: adaptive mode requires a deadline campaign")
	// ErrTableFull marks the campaign table at capacity; finish or expire
	// campaigns before creating more.
	ErrTableFull = errors.New("campaign: table is full")
	// ErrBadInput marks malformed observe inputs (negative counts,
	// non-finite arrivals, wrong type arity) — the requester's fault.
	ErrBadInput = errors.New("campaign: bad input")
)

// AdaptiveOptions enables §5.2.5 adaptive re-planning for a deadline
// campaign. The zero value of each field picks the sim package's defaults.
type AdaptiveOptions struct {
	// Factors is the grid of arrival-rate scale factors to pre-solve,
	// sorted ascending (default 0.5, 0.6, …, 1.5).
	Factors []float64 `json:"factors,omitempty"`
	// WindowIntervals is the trailing-window length of the scale estimate,
	// in DP intervals (default 9 — three hours at 20-minute intervals).
	WindowIntervals int `json:"window_intervals,omitempty"`
}

// defaultFactors is the §5.2.5 grid of sim.DefaultAdaptiveConfig, the one
// place it and the default window are defined: −50%…+50% deviations in
// 10% steps, holding exactly 1.0. The factors reach fingerprints and wire
// states, so the simulator and the service must not drift apart.
func defaultFactors() []float64 { return sim.DefaultAdaptiveConfig().Factors }

// MaxAdaptiveFactors bounds an adaptive campaign's factor grid (about six
// times the default 11). The grid is request input, and every factor costs
// a solve at create and a decoded table for the campaign's life.
const MaxAdaptiveFactors = 64

// normalized fills the zero fields with sim's defaults and checks the
// result against MaxAdaptiveFactors and sim's grid rules.
func (o *AdaptiveOptions) normalized() (AdaptiveOptions, error) {
	out := AdaptiveOptions{Factors: o.Factors, WindowIntervals: o.WindowIntervals}
	if len(out.Factors) == 0 {
		out.Factors = defaultFactors()
	}
	if len(out.Factors) > MaxAdaptiveFactors {
		return out, fmt.Errorf("campaign: adaptive grid has %d factors, over the limit of %d", len(out.Factors), MaxAdaptiveFactors)
	}
	if out.WindowIntervals == 0 {
		out.WindowIntervals = sim.DefaultAdaptiveConfig().WindowIntervals
	}
	return out, sim.AdaptiveConfig(out).Validate()
}

// campaign is one live campaign. The Manager's table maps IDs to campaigns;
// all dynamic state is guarded by mu, so concurrent Observe/Quote on the
// same campaign serialize while campaigns stay independent of each other.
type campaign struct {
	id   string
	kind string
	// request is the original wire body, kept verbatim for snapshots.
	request []byte
	// fingerprint identifies the base solved artifact.
	fingerprint string

	// static policy path: bank has exactly one interned handle and factors
	// is nil. adaptive path: bank[i] is the handle for factors[i],
	// baseLambdas the unscaled per-interval expectations, window the
	// estimate length. Handles are refcounted by the manager's intern
	// table; the decoded tables behind them may be shared across campaigns
	// and stay resident while any campaign holds them.
	bank        []*internedQuoter
	factors     []float64
	window      int
	baseLambdas []float64

	mu        sync.Mutex
	remaining []int
	interval  int
	// quoteBuf is the reusable price-vector scratch quoteLocked appends
	// into, so a warm quote allocates nothing.
	quoteBuf []int
	// observed is the trailing window of per-interval arrivals (adaptive
	// campaigns only, at most window entries — the estimator never reads
	// further back, and an unbounded history would grow daemon memory and
	// snapshots linearly with campaign age); observedTotal is the running
	// sum across the whole campaign.
	observed      []float64
	observedTotal float64
	activeIdx     int
	factor        float64 // last scale estimate (1 until the first observe)
	quotes        int64
	replans       int64
	created       time.Time
	lastTouched   time.Time
	// lastLSN is the event-log sequence number of the campaign's latest
	// logged mutation; WAL snapshot records carry it so replay can skip
	// events already folded into the snapshot (see ReplayWAL).
	lastLSN uint64
}

// active returns the interned handle the campaign currently follows.
// Callers hold mu.
func (c *campaign) active() *internedQuoter { return c.bank[c.activeIdx] }

// adaptive reports whether the campaign re-plans from a factor bank.
func (c *campaign) adaptive() bool { return len(c.factors) > 0 }

// observeLocked advances the campaign one interval: subtract completions,
// record the interval's observed arrivals, and (adaptive mode) re-estimate
// the rate scale over the trailing window and switch to the nearest
// factor's pre-solved policy. Callers hold mu.
func (c *campaign) observeLocked(arrivals float64, completed []int) error {
	if arrivals < 0 || math.IsNaN(arrivals) || math.IsInf(arrivals, 0) {
		return fmt.Errorf("%w: invalid observed arrivals %v", ErrBadInput, arrivals)
	}
	if len(completed) != 0 && len(completed) != len(c.remaining) {
		return fmt.Errorf("%w: %d completion counts for %d task types", ErrBadInput, len(completed), len(c.remaining))
	}
	// Validate the whole vector before mutating anything: a rejected
	// observe must leave the campaign exactly as it was, or a client that
	// fixes its request and retries would double-apply the valid entries.
	for i, done := range completed {
		if done < 0 {
			return fmt.Errorf("%w: negative completion count %d for type %d", ErrBadInput, done, i)
		}
	}
	for i, done := range completed {
		c.remaining[i] -= done
		if c.remaining[i] < 0 {
			c.remaining[i] = 0
		}
	}
	c.observedTotal += arrivals
	c.interval++
	if c.adaptive() {
		c.observed = append(c.observed, arrivals)
		if len(c.observed) > c.window {
			c.observed = c.observed[len(c.observed)-c.window:]
		}
		c.replanLocked()
	}
	return nil
}

// replanLocked re-estimates the rate scale with the simulator's rules,
// sim.EstimateScale over the trailing window and sim.NearestFactor, and
// follows the nearest factor's policy. Intervals past the policy horizon
// have no trained expectation, so once the whole window is past the
// horizon the estimate freezes (the simulator never runs past it). Callers
// hold mu.
func (c *campaign) replanLocked() {
	scale, ok := sim.EstimateScale(c.observed, c.baseLambdas, c.interval)
	if !ok {
		return // no expectation to compare against; keep the current policy
	}
	c.factor = scale
	if best := sim.NearestFactor(c.factors, scale); best != c.activeIdx {
		c.activeIdx = best
		c.replans++
	}
}

// quoteLocked is the hot path: one table lookup in the active policy,
// appended into the campaign's reusable scratch so a warm quote performs
// zero heap allocations. tab is the active handle's decoded table, loaded
// by the caller. Callers hold mu.
func (c *campaign) quoteLocked(tab *priceTable) []int {
	c.quotes++
	c.quoteBuf = tab.appendQuote(c.quoteBuf[:0], c.remaining, c.interval)
	return c.quoteBuf
}

// done reports whether every task type is complete. Callers hold mu.
func (c *campaign) doneLocked() bool {
	for _, n := range c.remaining {
		if n > 0 {
			return false
		}
	}
	return true
}

// stateLocked renders the wire-facing state. Callers hold mu.
func (c *campaign) stateLocked() *State {
	st := &State{
		ID:          c.id,
		Kind:        c.kind,
		Fingerprint: c.fingerprint,
		Interval:    c.interval,
		Horizon:     c.active().load().horizon,
		Remaining:   append([]int(nil), c.remaining...),
		Done:        c.doneLocked(),
		Adaptive:    c.adaptive(),
		Quotes:      c.quotes,
		Replans:     c.replans,
	}
	if c.adaptive() {
		st.Factor = c.factor
		st.ActiveFactor = c.factors[c.activeIdx]
	}
	return st
}

// State is a campaign's wire-facing view, returned by create, observe, and
// state reads.
type State struct {
	ID          string `json:"id"`
	Kind        string `json:"kind"`
	Fingerprint string `json:"fingerprint"`
	// SolveCacheHit reports whether the initial policy came from the
	// engine's warm cache (create responses only).
	SolveCacheHit bool `json:"solve_cache_hit,omitempty"`
	// Interval is the number of intervals observed so far — the t the next
	// quote prices at.
	Interval int `json:"interval"`
	// Horizon is the policy's interval count (0 = stationary, no horizon).
	Horizon int `json:"horizon"`
	// Remaining is the outstanding task count per type (length 1 except
	// for multi campaigns).
	Remaining []int `json:"remaining"`
	// Done reports whether every task is complete.
	Done bool `json:"done"`
	// Adaptive reports whether the campaign re-plans from a factor bank;
	// Factor is the latest trailing-window scale estimate and ActiveFactor
	// the bank factor currently followed.
	Adaptive     bool    `json:"adaptive"`
	Factor       float64 `json:"factor,omitempty"`
	ActiveFactor float64 `json:"active_factor,omitempty"`
	// Quotes counts the quotes this process has served for the campaign.
	// Quotes are reads and are never logged, so a replayed campaign counts
	// from zero.
	Quotes  int64 `json:"quotes"`
	Replans int64 `json:"replans"`
}

// Quote is one priced lookup: the price vector the solved policy dictates
// for the campaign's current state.
type Quote struct {
	ID string `json:"id"`
	// Price is the single price for one-type campaigns — Prices[0], kept
	// first-class because it is the common case.
	Price int `json:"price"`
	// Prices is the full per-type price vector.
	Prices []int `json:"prices"`
	// Interval and Remaining echo the state the quote priced.
	Interval  int   `json:"interval"`
	Remaining []int `json:"remaining"`
	// Done reports whether every task is already complete (the quote is
	// then the policy's idle price — MinPrice for deadline campaigns).
	Done bool `json:"done"`
	// ActiveFactor is the bank factor behind this quote (adaptive only).
	ActiveFactor float64 `json:"active_factor,omitempty"`
}

// Summary is the terminal accounting returned by Finish.
type Summary struct {
	ID        string `json:"id"`
	Kind      string `json:"kind"`
	Intervals int    `json:"intervals"`
	Remaining []int  `json:"remaining"`
	Done      bool   `json:"done"`
	Quotes    int64  `json:"quotes"`
	Replans   int64  `json:"replans"`
	// ObservedArrivals is the sum of observed arrivals across intervals.
	ObservedArrivals float64 `json:"observed_arrivals"`
}
