package sim

import (
	"math"
	"testing"

	"crowdpricing/internal/choice"
	"crowdpricing/internal/core"
	"crowdpricing/internal/dist"
)

// TestSemiStaticTheorem5 validates Theorem 5 end to end: simulated worker
// arrivals match Σ 1/p(cᵢ), and permuting the price sequence leaves the
// mean unchanged (Theorem 4/5's order-invariance).
func TestSemiStaticTheorem5(t *testing.T) {
	prices := []int{8, 25, 14, 30, 8}
	want := core.SemiStaticExpectedArrivals(prices, choice.Paper13)
	r := dist.NewRNG(41)
	const trials = 4000
	base, err := SemiStaticArrivals(prices, choice.Paper13, trials, r)
	if err != nil {
		t.Fatal(err)
	}
	if got := meanInt(base); math.Abs(got-want) > 0.05*want {
		t.Errorf("E[W] ≈ %v, closed form %v", got, want)
	}
	perm := []int{30, 8, 8, 25, 14}
	permuted, err := SemiStaticArrivals(perm, choice.Paper13, trials, r)
	if err != nil {
		t.Fatal(err)
	}
	a, b := meanInt(base), meanInt(permuted)
	if math.Abs(a-b) > 0.05*want {
		t.Errorf("order changed E[W]: %v vs %v", a, b)
	}
}

// TestSemiStaticDescendingEqualsStatic: a static strategy drains highest
// price first, i.e. it is the descending semi-static sequence; its simulated
// E[W] equals the strategy's closed form.
func TestSemiStaticDescendingEqualsStatic(t *testing.T) {
	s := core.StaticStrategy{Counts: map[int]int{12: 3, 20: 2}}
	want := s.ExpectedWorkerArrivals(choice.Paper13)
	r := dist.NewRNG(42)
	sample, err := SemiStaticArrivals(s.Prices(), choice.Paper13, 4000, r)
	if err != nil {
		t.Fatal(err)
	}
	if got := meanInt(sample); math.Abs(got-want) > 0.05*want {
		t.Errorf("E[W] ≈ %v, want %v", got, want)
	}
}

func TestSemiStaticValidation(t *testing.T) {
	r := dist.NewRNG(1)
	if _, err := SemiStaticArrivals(nil, choice.Paper13, 10, r); err == nil {
		t.Error("want error for empty sequence")
	}
	if _, err := SemiStaticArrivals([]int{1}, nil, 10, r); err == nil {
		t.Error("want error for nil acceptance")
	}
	if _, err := SemiStaticArrivals([]int{1}, choice.Paper13, 0, r); err == nil {
		t.Error("want error for zero trials")
	}
	zero := choice.Logistic{S: 1, B: 1000, M: 1e300}
	if _, err := SemiStaticArrivals([]int{1}, zero, 10, r); err == nil {
		t.Error("want error for zero acceptance")
	}
	if meanInt(nil) != 0 {
		t.Error("meanInt(nil) != 0")
	}
}

// meanInt returns the mean of an integer sample, or 0 when empty.
func meanInt(xs []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0
	for _, x := range xs {
		sum += x
	}
	return float64(sum) / float64(len(xs))
}
