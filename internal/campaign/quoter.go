package campaign

import (
	"encoding/json"
	"fmt"
	"math"

	"crowdpricing/internal/core"
	"crowdpricing/internal/kinds"
)

// Quoter is the hot-path view of a solved policy: an O(1) table lookup from
// campaign state (remaining task counts, elapsed interval) to the price(s)
// the policy dictates right now. Quoters are immutable once built — the
// campaign hot path reads them without synchronization beyond the campaign's
// own mutex.
type Quoter interface {
	// Types is the number of task types the policy prices (1 for every kind
	// except multi).
	Types() int
	// Horizon is the number of DP intervals, or 0 for a stationary policy
	// with no finite horizon (tradeoff).
	Horizon() int
	// InitialCounts is the remaining-task vector a fresh campaign starts at.
	InitialCounts() []int
	// AppendQuote appends the policy's price vector (one price per type) for
	// the given remaining counts at interval t to dst and returns it.
	// Out-of-range states clamp, as in core's PriceAt accessors, so a
	// campaign past its horizon or below zero remaining still quotes
	// deterministically. Reusing dst across quotes keeps the warm path
	// allocation-free.
	AppendQuote(dst []int, remaining []int, t int) []int
}

// policyTable is a decoded, compact policy table: a Quoter that also knows
// its resident footprint, which the intern table sums into its
// resident-bytes gauge. A campaign's tables are all decoded before it goes
// live and stay resident while it lives, so a quote never waits on a
// solve.
type policyTable interface {
	Quoter
	residentBytes() int64
}

// SupportsKind reports whether kind has a campaign runtime — a sequential
// per-state price table to quote from. Budget strategies are static
// up-front allocations, so they (and unknown kinds) report false. The
// bench harness uses this to validate campaign-scenario mixes.
func SupportsKind(kind string) bool {
	switch kind {
	case kinds.KindDeadline, kinds.KindTradeoff, kinds.KindMulti:
		return true
	}
	return false
}

// decodeTable decodes the engine's solved artifact for kind into its
// compact policy table: one contiguous int32 price slice with precomputed
// strides, in place of the artifact's per-row boxed slices. Budget is
// rejected: a budget strategy is a static up-front allocation with no
// per-state price table, so "the current price" is undefined for it.
func decodeTable(kind string, artifact []byte) (policyTable, error) {
	switch kind {
	case kinds.KindDeadline:
		// UnmarshalJSON directly: json.Unmarshal would scan the whole
		// artifact twice before calling it, and the json.Unmarshal inside
		// it already rejects anything but one valid document.
		var pol core.DeadlinePolicy
		if err := pol.UnmarshalJSON(artifact); err != nil {
			return nil, fmt.Errorf("campaign: bad deadline artifact: %w", err)
		}
		return newDeadlineTable(&pol)
	case kinds.KindTradeoff:
		var sched kinds.TradeoffSchedule
		if err := json.Unmarshal(artifact, &sched); err != nil {
			return nil, fmt.Errorf("campaign: bad tradeoff artifact: %w", err)
		}
		return newTradeoffTable(&sched)
	case kinds.KindMulti:
		var sched kinds.MultiSchedule
		if err := json.Unmarshal(artifact, &sched); err != nil {
			return nil, fmt.Errorf("campaign: bad multi artifact: %w", err)
		}
		return newMultiTable(&sched)
	default:
		return nil, fmt.Errorf("campaign: %w: kind %q has no sequential price table", ErrUnsupportedKind, kind)
	}
}

// checkedPrice narrows a decoded price to the compact tables' int32 cells.
// Prices are integer cents bounded by the problem's price range, so the
// narrowing is a formality — but a corrupt artifact must fail at decode,
// not quote wrong prices.
func checkedPrice(p int) (int32, error) {
	if p < math.MinInt32 || p > math.MaxInt32 {
		return 0, fmt.Errorf("campaign: price %d overflows the compact table cell", p)
	}
	return int32(p), nil
}

// deadlineTable serves the Section 3 finite-horizon policy: prices[t*(n+1)+k]
// is the price for k remaining at interval t, matching
// core.DeadlinePolicy.PriceAt bit for bit (including its clamps and the
// n<=0 → MinPrice idle price).
type deadlineTable struct {
	n         int
	intervals int
	minPrice  int32
	prices    []int32
}

func newDeadlineTable(pol *core.DeadlinePolicy) (*deadlineTable, error) {
	n, intervals := pol.Problem.N, pol.Problem.Intervals
	if n <= 0 || intervals <= 0 || len(pol.Price) != intervals {
		return nil, fmt.Errorf("campaign: malformed deadline artifact (n=%d, %d/%d interval rows)",
			n, len(pol.Price), intervals)
	}
	minPrice, err := checkedPrice(pol.Problem.MinPrice)
	if err != nil {
		return nil, err
	}
	q := &deadlineTable{n: n, intervals: intervals, minPrice: minPrice,
		prices: make([]int32, intervals*(n+1))}
	for t, row := range pol.Price {
		if len(row) != n+1 {
			return nil, fmt.Errorf("campaign: deadline artifact row %d has %d states, want %d", t, len(row), n+1)
		}
		for k, p := range row {
			cell, err := checkedPrice(p)
			if err != nil {
				return nil, err
			}
			q.prices[t*(n+1)+k] = cell
		}
	}
	return q, nil
}

func (q *deadlineTable) Types() int           { return 1 }
func (q *deadlineTable) Horizon() int         { return q.intervals }
func (q *deadlineTable) InitialCounts() []int { return []int{q.n} }
func (q *deadlineTable) residentBytes() int64 { return int64(len(q.prices)) * 4 }
func (q *deadlineTable) AppendQuote(dst []int, remaining []int, t int) []int {
	n := remaining[0]
	if n <= 0 {
		return append(dst, int(q.minPrice))
	}
	if n > q.n {
		n = q.n
	}
	if t < 0 {
		t = 0
	}
	if t >= q.intervals {
		t = q.intervals - 1
	}
	return append(dst, int(q.prices[t*(q.n+1)+n]))
}

// tradeoffTable serves the Section 6 stationary policy: the price depends
// only on the remaining count, never on time.
type tradeoffTable struct {
	prices []int32
}

func newTradeoffTable(sched *kinds.TradeoffSchedule) (*tradeoffTable, error) {
	if len(sched.Price) == 0 {
		return nil, fmt.Errorf("campaign: tradeoff artifact has an empty price table")
	}
	q := &tradeoffTable{prices: make([]int32, len(sched.Price))}
	for n, p := range sched.Price {
		cell, err := checkedPrice(p)
		if err != nil {
			return nil, err
		}
		q.prices[n] = cell
	}
	return q, nil
}

func (q *tradeoffTable) Types() int           { return 1 }
func (q *tradeoffTable) Horizon() int         { return 0 }
func (q *tradeoffTable) InitialCounts() []int { return []int{len(q.prices) - 1} }
func (q *tradeoffTable) residentBytes() int64 { return int64(len(q.prices)) * 4 }
func (q *tradeoffTable) AppendQuote(dst []int, remaining []int, t int) []int {
	n := remaining[0]
	if n < 0 {
		n = 0
	}
	if n >= len(q.prices) {
		n = len(q.prices) - 1
	}
	return append(dst, int(q.prices[n]))
}

// multiTable serves the general-k joint policy: states are count vectors,
// flattened row-major with the last type's count varying fastest (the
// MultiSchedule wire layout), and each state's k per-type prices stored
// contiguously at prices[(t*states+idx)*k:].
type multiTable struct {
	counts    []int
	strides   []int
	intervals int
	states    int
	prices    []int32
}

func newMultiTable(sched *kinds.MultiSchedule) (*multiTable, error) {
	if len(sched.Counts) == 0 || sched.Intervals <= 0 || len(sched.Prices) != sched.Intervals {
		return nil, fmt.Errorf("campaign: malformed multi artifact (%d types, %d/%d interval rows)",
			len(sched.Counts), len(sched.Prices), sched.Intervals)
	}
	k := len(sched.Counts)
	states := 1
	strides := make([]int, k)
	for i := k - 1; i >= 0; i-- {
		strides[i] = states
		states *= sched.Counts[i] + 1
	}
	q := &multiTable{
		counts:    append([]int(nil), sched.Counts...),
		strides:   strides,
		intervals: sched.Intervals,
		states:    states,
		prices:    make([]int32, sched.Intervals*states*k),
	}
	for t, row := range sched.Prices {
		if len(row) != states {
			return nil, fmt.Errorf("campaign: multi artifact row %d has %d states, want %d", t, len(row), states)
		}
		for idx, vec := range row {
			if len(vec) != k {
				return nil, fmt.Errorf("campaign: multi artifact state (%d,%d) has %d prices, want %d", t, idx, len(vec), k)
			}
			base := (t*states + idx) * k
			for i, p := range vec {
				cell, err := checkedPrice(p)
				if err != nil {
					return nil, err
				}
				q.prices[base+i] = cell
			}
		}
	}
	return q, nil
}

func (q *multiTable) Types() int   { return len(q.counts) }
func (q *multiTable) Horizon() int { return q.intervals }
func (q *multiTable) InitialCounts() []int {
	return append([]int(nil), q.counts...)
}
func (q *multiTable) residentBytes() int64 {
	return int64(len(q.prices))*4 + int64(len(q.counts)+len(q.strides))*8
}
func (q *multiTable) AppendQuote(dst []int, remaining []int, t int) []int {
	if t < 0 {
		t = 0
	}
	if t >= q.intervals {
		t = q.intervals - 1
	}
	idx := 0
	for i, n := range remaining {
		if n < 0 {
			n = 0
		}
		if n > q.counts[i] {
			n = q.counts[i]
		}
		idx += n * q.strides[i]
	}
	k := len(q.counts)
	base := (t*q.states + idx) * k
	for i := 0; i < k; i++ {
		dst = append(dst, int(q.prices[base+i]))
	}
	return dst
}
