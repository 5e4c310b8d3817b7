package core

import (
	"math"
	"testing"

	"crowdpricing/internal/choice"
)

func testMultiK(counts []int, accepts []choice.AcceptanceFn) *MultiProblem {
	lambdas := make([]float64, 4)
	for i := range lambdas {
		lambdas[i] = 1733
	}
	return &MultiProblem{
		Counts: counts, Intervals: 4, Lambdas: lambdas, Accepts: accepts,
		MinPrice: 0, MaxPrice: 12, Penalty: 300, TruncEps: 1e-9,
	}
}

func TestMultiKValidate(t *testing.T) {
	ok := testMultiK([]int{3, 3}, []choice.AcceptanceFn{choice.Paper13, choice.Paper13})
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	// Budget products that wrap. A count of math.MaxInt with an even
	// number of prices took the state product and the work factor to 0,
	// and the division by it panicked. With a 32-bit int the work factor
	// of a request inside the service limits (9,799 states, 984 prices,
	// 102 intervals) wrapped, admitting 4.8e12 inner terms against the
	// 2.5e8 budget.
	maxCount := testMultiK([]int{1, math.MaxInt}, []choice.AcceptanceFn{choice.Paper13, choice.Paper13})
	maxCount.MinPrice = 1
	wraps32 := testMultiK([]int{9798}, []choice.AcceptanceFn{choice.Paper13})
	wraps32.Intervals, wraps32.Lambdas = 102, make([]float64, 102)
	wraps32.MinPrice, wraps32.MaxPrice = 1, 984
	bad := []*MultiProblem{
		{Counts: nil},
		{Counts: []int{3}, Accepts: nil},
		{Counts: []int{0}, Accepts: []choice.AcceptanceFn{choice.Paper13}},
		{Counts: []int{3}, Accepts: []choice.AcceptanceFn{nil}},
		maxCount,
		wraps32,
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	// Size budgets: huge joint spaces are refused, not attempted.
	huge := testMultiK([]int{400, 400, 400}, []choice.AcceptanceFn{choice.Paper13, choice.Paper13, choice.Paper13})
	if err := huge.Validate(); err == nil {
		t.Error("oversized state space accepted")
	}
	wide := testMultiK([]int{2, 2, 2}, []choice.AcceptanceFn{choice.Paper13, choice.Paper13, choice.Paper13})
	wide.MaxPrice = 200
	if err := wide.Validate(); err == nil {
		t.Error("oversized action space accepted")
	}
	// Inside both budgets (10,201 states, 19,881 price vectors), but the
	// DP would sum 5.3e11 terms, hours of one solver worker.
	slow := &MultiProblem{
		Counts: []int{100, 100}, Intervals: 1, Lambdas: []float64{1733},
		Accepts:  []choice.AcceptanceFn{choice.Paper13, choice.Paper13},
		MinPrice: 1, MaxPrice: 141, Penalty: 300,
	}
	if err := slow.Validate(); err == nil {
		t.Error("intractable joint DP accepted")
	}
}

// TestMultiKOneTypeMatchesDeadlineDP: with k = 1 the general DP must
// reproduce the single-type deadline DP exactly.
func TestMultiKOneTypeMatchesDeadlineDP(t *testing.T) {
	mp := testMultiK([]int{10}, []choice.AcceptanceFn{choice.Paper13})
	pol, err := mp.Solve()
	if err != nil {
		t.Fatal(err)
	}
	single := &DeadlineProblem{
		N: 10, Horizon: 4.0 / 3, Intervals: mp.Intervals, Lambdas: mp.Lambdas,
		Accept: choice.Paper13, MinPrice: mp.MinPrice, MaxPrice: mp.MaxPrice,
		Penalty: mp.Penalty, TruncEps: mp.TruncEps,
	}
	sp, err := single.SolveSimple()
	if err != nil {
		t.Fatal(err)
	}
	for tt := 0; tt <= mp.Intervals; tt++ {
		for n := 0; n <= 10; n++ {
			got := pol.Opt[tt][pol.index([]int{n})]
			want := sp.Opt[tt][n]
			if math.Abs(got-want) > 1e-9*(1+want) {
				t.Fatalf("Opt[t=%d][n=%d] = %v, single-type %v", tt, n, got, want)
			}
		}
	}
	for tt := 0; tt < mp.Intervals; tt++ {
		for n := 1; n <= 10; n++ {
			if got := pol.Prices[tt][pol.index([]int{n})][0]; got != sp.Price[tt][n] {
				t.Fatalf("Price[t=%d][n=%d] = %d, single-type %d", tt, n, got, sp.Price[tt][n])
			}
		}
	}
}

// TestMultiKTwoTypesMatchesSpecialized: the general DP agrees with the
// dedicated two-type implementation.
func TestMultiKTwoTypesMatchesSpecialized(t *testing.T) {
	accept2 := choice.Logistic{S: 15, B: 0.2, M: 2000}
	mp := testMultiK([]int{5, 4}, []choice.AcceptanceFn{choice.Paper13, accept2})
	general, err := mp.Solve()
	if err != nil {
		t.Fatal(err)
	}
	two := &MultiTypeProblem{
		N1: 5, N2: 4, Intervals: mp.Intervals, Lambdas: mp.Lambdas,
		Accept1: choice.Paper13, Accept2: accept2,
		MinPrice: mp.MinPrice, MaxPrice: mp.MaxPrice,
		Penalty: mp.Penalty, TruncEps: mp.TruncEps,
	}
	specialized, err := two.Solve()
	if err != nil {
		t.Fatal(err)
	}
	for tt := 0; tt <= mp.Intervals; tt++ {
		for n1 := 0; n1 <= 5; n1++ {
			for n2 := 0; n2 <= 4; n2++ {
				got := general.Opt[tt][general.index([]int{n1, n2})]
				want := specialized.Opt[tt][two.idx(n1, n2)]
				if math.Abs(got-want) > 1e-9*(1+want) {
					t.Fatalf("Opt[t=%d][%d,%d] = %v, specialized %v", tt, n1, n2, got, want)
				}
			}
		}
	}
}

// TestMultiKThreeTypesSmoke: three types solve within the budgets and the
// solution behaves (zero state costs nothing, more backlog costs more).
func TestMultiKThreeTypesSmoke(t *testing.T) {
	accepts := []choice.AcceptanceFn{
		choice.Paper13,
		choice.Logistic{S: 15, B: 0.1, M: 2000},
		choice.Logistic{S: 12, B: -0.2, M: 3000},
	}
	mp := testMultiK([]int{3, 3, 3}, accepts)
	mp.MaxPrice = 10
	pol, err := mp.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if got := pol.Opt[0][pol.index([]int{0, 0, 0})]; got != 0 {
		t.Errorf("empty state costs %v", got)
	}
	full := pol.Opt[0][pol.index([]int{3, 3, 3})]
	partial := pol.Opt[0][pol.index([]int{1, 1, 1})]
	if full <= partial {
		t.Errorf("full backlog (%v) not above partial (%v)", full, partial)
	}
	prices := pol.PricesAt([]int{3, 3, 3}, 0)
	if len(prices) != 3 {
		t.Fatalf("price vector %v", prices)
	}
	for i, c := range prices {
		if c < mp.MinPrice || c > mp.MaxPrice {
			t.Errorf("type %d price %d out of range", i, c)
		}
	}
	// Clamping.
	a := pol.PricesAt([]int{99, -1, 2}, -5)
	b := pol.PricesAt([]int{3, 0, 2}, 0)
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("clamping mismatch: %v vs %v", a, b)
			break
		}
	}
}
