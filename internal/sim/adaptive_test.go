package sim

import (
	"math"
	"testing"

	"crowdpricing/internal/dist"
)

// TestDefaultFactorGrid pins the §5.2.5 grid bit for bit. An accumulated
// f += 0.1 loop yields 0.7999999999999999, 0.9999999999999999 and four
// more near misses, so the "unchanged rate" policy would be solved on a
// perturbed λ and the grid would differ from the campaign service's.
func TestDefaultFactorGrid(t *testing.T) {
	want := []float64{0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2, 1.3, 1.4, 1.5}
	got := DefaultAdaptiveConfig().Factors
	if len(got) != len(want) {
		t.Fatalf("grid has %d factors, want %d: %v", len(got), len(want), got)
	}
	ones := 0
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Errorf("factor %d = %v, want exactly %v", i, got[i], want[i])
		}
		if got[i] == 1 {
			ones++
		}
	}
	if ones != 1 {
		t.Errorf("grid holds 1.0 %d times, want exactly once: %v", ones, got)
	}
}

func TestAdaptiveBankValidation(t *testing.T) {
	p := deadlineProblem(20, 9)
	if _, err := NewAdaptivePolicyBank(p, AdaptiveConfig{}); err == nil {
		t.Error("want error for empty factors")
	}
	if _, err := NewAdaptivePolicyBank(p, AdaptiveConfig{Factors: []float64{1, 0.5}, WindowIntervals: 3}); err == nil {
		t.Error("want error for unsorted factors")
	}
	if _, err := NewAdaptivePolicyBank(p, AdaptiveConfig{Factors: []float64{1}, WindowIntervals: 0}); err == nil {
		t.Error("want error for zero window")
	}
}

// TestAdaptiveMatchesStaticWhenModelIsRight: with no rate deviation the
// adaptive controller behaves like the plain policy (factor ≈ 1 throughout).
func TestAdaptiveMatchesStaticWhenModelIsRight(t *testing.T) {
	p := deadlineProblem(40, 18)
	bank, err := NewAdaptivePolicyBank(p, DefaultAdaptiveConfig())
	if err != nil {
		t.Fatal(err)
	}
	pol, err := p.SolveEfficient()
	if err != nil {
		t.Fatal(err)
	}
	world := matchedWorld(p)
	r := dist.NewRNG(3)
	adaptive, err := RunAdaptiveDeadline(bank, world, 500, r)
	if err != nil {
		t.Fatal(err)
	}
	static, err := RunDeadlinePolicy(pol, world, 500, r)
	if err != nil {
		t.Fatal(err)
	}
	if adaptive.MeanCost > static.MeanCost*1.1+10 {
		t.Errorf("adaptive cost %v far above static %v on a matched world",
			adaptive.MeanCost, static.MeanCost)
	}
	if adaptive.MeanRemaining > static.MeanRemaining+0.5 {
		t.Errorf("adaptive remaining %v above static %v", adaptive.MeanRemaining, static.MeanRemaining)
	}
}

// TestAdaptiveHandlesConsistentDeviation is the Jan 1 scenario: the true
// arrival rate is 45% below the trained profile all day. The adaptive
// controller detects the deficit early and finishes more reliably (or more
// cheaply) than the frozen policy.
func TestAdaptiveHandlesConsistentDeviation(t *testing.T) {
	p := deadlineProblem(60, 36)
	p.Penalty = 2000 // plan for high confidence
	bank, err := NewAdaptivePolicyBank(p, DefaultAdaptiveConfig())
	if err != nil {
		t.Fatal(err)
	}
	pol, err := p.SolveEfficient()
	if err != nil {
		t.Fatal(err)
	}
	holiday := make([]float64, len(p.Lambdas))
	for i, l := range p.Lambdas {
		holiday[i] = 0.55 * l
	}
	world := World{Lambdas: holiday, Accept: p.Accept}
	r := dist.NewRNG(4)
	adaptive, err := RunAdaptiveDeadline(bank, world, 400, r)
	if err != nil {
		t.Fatal(err)
	}
	static, err := RunDeadlinePolicy(pol, world, 400, r)
	if err != nil {
		t.Fatal(err)
	}
	// The static policy reacts only through its backlog coordinate; the
	// adaptive one also rescales its rate belief, so it must do no worse on
	// completion and meaningfully better on at least one axis.
	if adaptive.MeanRemaining > static.MeanRemaining+0.2 {
		t.Errorf("adaptive remaining %v worse than static %v", adaptive.MeanRemaining, static.MeanRemaining)
	}
	improvedCompletion := adaptive.MeanRemaining < static.MeanRemaining-0.05
	improvedCost := adaptive.MeanCost < static.MeanCost*0.98
	if !improvedCompletion && !improvedCost {
		t.Errorf("no adaptive benefit: remaining %v vs %v, cost %v vs %v",
			adaptive.MeanRemaining, static.MeanRemaining, adaptive.MeanCost, static.MeanCost)
	}
}

// TestAdaptiveDetectsSurplus: when the market is hotter than planned, the
// adaptive controller saves money by dropping to a cheaper policy.
func TestAdaptiveDetectsSurplus(t *testing.T) {
	p := deadlineProblem(60, 36)
	p.Penalty = 2000
	bank, err := NewAdaptivePolicyBank(p, DefaultAdaptiveConfig())
	if err != nil {
		t.Fatal(err)
	}
	pol, err := p.SolveEfficient()
	if err != nil {
		t.Fatal(err)
	}
	hot := make([]float64, len(p.Lambdas))
	for i, l := range p.Lambdas {
		hot[i] = 1.4 * l
	}
	world := World{Lambdas: hot, Accept: p.Accept}
	r := dist.NewRNG(5)
	adaptive, err := RunAdaptiveDeadline(bank, world, 400, r)
	if err != nil {
		t.Fatal(err)
	}
	static, err := RunDeadlinePolicy(pol, world, 400, r)
	if err != nil {
		t.Fatal(err)
	}
	if adaptive.MeanRemaining > 0.5 {
		t.Errorf("adaptive left %v tasks in a hot market", adaptive.MeanRemaining)
	}
	if adaptive.MeanCost >= static.MeanCost {
		t.Errorf("adaptive cost %v not below static %v in a hot market",
			adaptive.MeanCost, static.MeanCost)
	}
}
