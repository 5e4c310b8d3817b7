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

// TestNearestFactor: an estimate past the grid's top edge follows the top
// factor, even where every |f − x| rounds to one float64 (1e20) or is +Inf;
// one below the grid follows the bottom factor; an exact midpoint goes to
// the lower factor.
func TestNearestFactor(t *testing.T) {
	grid := DefaultAdaptiveConfig().Factors
	for _, c := range []struct {
		factors []float64
		x       float64
		want    int
	}{
		{grid, 1e20, len(grid) - 1},
		{grid, math.Inf(1), len(grid) - 1},
		{grid, math.MaxFloat64, len(grid) - 1},
		{grid, 0.01, 0},
		{grid, 0, 0},
		{grid, 1, 5},
		{grid, 1.04, 5},
		{[]float64{1, 2}, 1.5, 0},
		{[]float64{0.5, 1.5}, 1, 0},
	} {
		if got := NearestFactor(c.factors, c.x); got != c.want {
			t.Errorf("NearestFactor(%v, %v) = %d, want %d", c.factors, c.x, got, c.want)
		}
	}
}

// TestEstimateScale: intervals past the trained profile count on neither
// side, a window that expects nothing gives no estimate, and a ratio past
// the float64 range reads math.MaxFloat64.
func TestEstimateScale(t *testing.T) {
	base := []float64{2, 4, 8}
	for _, c := range []struct {
		name   string
		window []float64
		base   []float64
		end    int
		want   float64
		ok     bool
	}{
		{"whole window", []float64{4, 8}, base, 2, 2, true},
		{"past the horizon", []float64{16, 1e6}, base, 4, 2, true},
		{"all past the horizon", []float64{1, 1}, base, 5, 0, false},
		{"empty window", nil, base, 0, 0, false},
		{"no expectation", []float64{3}, []float64{0}, 1, 0, false},
		{"overflow", []float64{1}, []float64{1e-310}, 1, math.MaxFloat64, true},
	} {
		got, ok := EstimateScale(c.window, c.base, c.end)
		if got != c.want || ok != c.ok {
			t.Errorf("%s: EstimateScale = (%v, %v), want (%v, %v)", c.name, got, ok, c.want, c.ok)
		}
	}
}

// TestAdaptiveConfigValidate: every rule refuses its own bad config, and
// the default config passes.
func TestAdaptiveConfigValidate(t *testing.T) {
	if err := DefaultAdaptiveConfig().Validate(); err != nil {
		t.Fatalf("default config: %v", err)
	}
	for _, cfg := range []AdaptiveConfig{
		{WindowIntervals: 3},
		{Factors: []float64{0, 1}, WindowIntervals: 3},
		{Factors: []float64{-1, 1}, WindowIntervals: 3},
		{Factors: []float64{1, math.NaN()}, WindowIntervals: 3},
		{Factors: []float64{1, math.Inf(1)}, WindowIntervals: 3},
		{Factors: []float64{1, 1}, WindowIntervals: 3},
		{Factors: []float64{1, 0.5}, WindowIntervals: 3},
		{Factors: []float64{1}, WindowIntervals: 0},
		{Factors: []float64{1}, WindowIntervals: -2},
	} {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %+v validated", cfg)
		}
	}
}
