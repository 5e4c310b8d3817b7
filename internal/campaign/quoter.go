package campaign

import (
	"encoding/json"
	"fmt"
	"math"

	"crowdpricing/internal/core"
	"crowdpricing/internal/kinds"
)

// priceTable is a decoded policy in the one compact layout every kind
// shares: the hot-path O(1) lookup from campaign state (remaining task
// counts, elapsed interval) to the price vector the policy dictates right
// now. States are count vectors flattened row-major with the last type's
// count varying fastest (the MultiSchedule wire layout), and the price of
// type i in state idx at interval t is prices[(t*states+idx)*k+i], with
// k = len(counts). A deadline policy is the k = 1 case. A tradeoff policy
// is k = 1 with one interval row and horizon 0: its price never depends
// on time. A table is immutable once built, so the hot path reads it
// under nothing but the campaign's own mutex. A campaign's tables are all
// decoded before it goes live and stay resident while it lives, so a
// quote never waits on a solve.
type priceTable struct {
	counts    []int
	strides   []int
	states    int
	intervals int
	// horizon is the policy's interval count, or 0 for a stationary policy
	// with no finite horizon (tradeoff).
	horizon int
	prices  []int32
}

// newPriceTable allocates the table for count vectors up to counts over
// intervals rows.
func newPriceTable(counts []int, intervals, horizon int) *priceTable {
	q := &priceTable{counts: counts, strides: make([]int, len(counts)), states: 1,
		intervals: intervals, horizon: horizon}
	for i := len(counts) - 1; i >= 0; i-- {
		q.strides[i] = q.states
		q.states *= counts[i] + 1
	}
	q.prices = make([]int32, intervals*q.states*len(counts))
	return q
}

// put narrows decoded prices into the table's cells from at on. Prices are
// integer cents bounded by the problem's price range, so the narrowing is
// a formality — but a corrupt artifact must fail at decode, not quote
// wrong prices.
func (q *priceTable) put(at int, prices []int) error {
	for i, p := range prices {
		if p < math.MinInt32 || p > math.MaxInt32 {
			return fmt.Errorf("campaign: price %d overflows the compact table cell", p)
		}
		q.prices[at+i] = int32(p)
	}
	return nil
}

// residentBytes is the table's decoded footprint, which the intern table
// sums into its resident-bytes gauge.
func (q *priceTable) residentBytes() int64 {
	return int64(len(q.prices))*4 + int64(len(q.counts)+len(q.strides))*8
}

// appendQuote appends the policy's price vector (one price per type) for
// the remaining counts at interval t to dst and returns it. t and each
// count clamp into the table, as in core's PriceAt and PricesAt, so a
// campaign past its horizon or below zero remaining still quotes
// deterministically. Reusing dst across quotes keeps the warm path
// allocation-free.
func (q *priceTable) appendQuote(dst, remaining []int, t int) []int {
	t = min(max(t, 0), q.intervals-1)
	idx := 0
	for i, n := range remaining {
		idx += min(max(n, 0), q.counts[i]) * q.strides[i]
	}
	k := len(q.counts)
	base := (t*q.states + idx) * k
	for _, p := range q.prices[base : base+k] {
		dst = append(dst, int(p))
	}
	return dst
}

// SupportsKind reports whether kind has a campaign runtime — a sequential
// per-state price table to quote from. Budget strategies are static
// up-front allocations, so they (and unknown kinds) report false. A
// campaign create refuses any other kind before it solves, and the bench
// harness uses this to validate campaign-scenario mixes.
func SupportsKind(kind string) bool {
	switch kind {
	case kinds.KindDeadline, kinds.KindTradeoff, kinds.KindMulti:
		return true
	}
	return false
}

// decodeTable decodes the engine's solved artifact for kind into its
// compact price table, in place of the artifact's per-row boxed slices.
// Budget is rejected: a budget strategy is a static up-front allocation
// with no per-state price table, so "the current price" is undefined for
// it.
func decodeTable(kind string, artifact []byte) (*priceTable, error) {
	switch kind {
	case kinds.KindDeadline:
		// UnmarshalJSON directly: json.Unmarshal would scan the whole
		// artifact twice before calling it, and the json.Unmarshal inside
		// it already rejects anything but one valid document.
		var pol core.DeadlinePolicy
		if err := pol.UnmarshalJSON(artifact); err != nil {
			return nil, fmt.Errorf("campaign: bad deadline artifact: %w", err)
		}
		n, intervals := pol.Problem.N, pol.Problem.Intervals
		if n <= 0 || intervals <= 0 || len(pol.Price) != intervals {
			return nil, fmt.Errorf("campaign: malformed deadline artifact (n=%d, %d/%d interval rows)",
				n, len(pol.Price), intervals)
		}
		q := newPriceTable([]int{n}, intervals, intervals)
		for t, row := range pol.Price {
			if len(row) != n+1 {
				return nil, fmt.Errorf("campaign: deadline artifact row %d has %d states, want %d", t, len(row), n+1)
			}
			// The n = 0 cell is core.DeadlinePolicy.PriceAt's idle price.
			row[0] = pol.Problem.MinPrice
			if err := q.put(t*(n+1), row); err != nil {
				return nil, err
			}
		}
		return q, nil
	case kinds.KindTradeoff:
		var sched kinds.TradeoffSchedule
		if err := json.Unmarshal(artifact, &sched); err != nil {
			return nil, fmt.Errorf("campaign: bad tradeoff artifact: %w", err)
		}
		if len(sched.Price) == 0 {
			return nil, fmt.Errorf("campaign: tradeoff artifact has an empty price table")
		}
		q := newPriceTable([]int{len(sched.Price) - 1}, 1, 0)
		if err := q.put(0, sched.Price); err != nil {
			return nil, err
		}
		return q, nil
	case kinds.KindMulti:
		var sched kinds.MultiSchedule
		if err := json.Unmarshal(artifact, &sched); err != nil {
			return nil, fmt.Errorf("campaign: bad multi artifact: %w", err)
		}
		k := len(sched.Counts)
		if k == 0 || sched.Intervals <= 0 || len(sched.Prices) != sched.Intervals {
			return nil, fmt.Errorf("campaign: malformed multi artifact (%d types, %d/%d interval rows)",
				k, len(sched.Prices), sched.Intervals)
		}
		q := newPriceTable(sched.Counts, sched.Intervals, sched.Intervals)
		for t, row := range sched.Prices {
			if len(row) != q.states {
				return nil, fmt.Errorf("campaign: multi artifact row %d has %d states, want %d", t, len(row), q.states)
			}
			for idx, vec := range row {
				if len(vec) != k {
					return nil, fmt.Errorf("campaign: multi artifact state (%d,%d) has %d prices, want %d", t, idx, len(vec), k)
				}
				if err := q.put((t*q.states+idx)*k, vec); err != nil {
					return nil, err
				}
			}
		}
		return q, nil
	default:
		return nil, fmt.Errorf("%w: kind %q has no sequential price table", ErrUnsupportedKind, kind)
	}
}
