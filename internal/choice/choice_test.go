package choice

import (
	"math"
	"testing"
	"testing/quick"

	"crowdpricing/internal/dist"
)

func TestPaper13KnownValues(t *testing.T) {
	// Equation 13: p(12) ≈ N / ∫λ ≈ the break-even point c0 ≈ 12 of
	// Section 5.2.1. Sanity-check the curve's raw values.
	p12 := Paper13.Accept(12)
	e := math.Exp(12.0/15 + 0.39)
	want := e / (e + 2000)
	if math.Abs(p12-want) > 1e-15 {
		t.Errorf("Accept(12) = %v, want %v", p12, want)
	}
	if p12 < 0.0015 || p12 > 0.0018 {
		t.Errorf("Accept(12) = %v, expected ≈0.00164", p12)
	}
}

func TestLogisticMonotone(t *testing.T) {
	f := func(sRaw, bRaw, mRaw float64, c int) bool {
		l := Logistic{
			S: 1 + math.Mod(math.Abs(sRaw), 50),
			B: math.Mod(bRaw, 5),
			M: 1 + math.Mod(math.Abs(mRaw), 1e5),
		}
		c = c % 200
		if c < 0 {
			c = -c
		}
		p1, p2 := l.Accept(c), l.Accept(c+1)
		return p2 >= p1 && p1 >= 0 && p2 <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestLogisticBounds(t *testing.T) {
	l := Paper13
	if p := l.Accept(0); p <= 0 || p >= 1 {
		t.Errorf("Accept(0) = %v outside (0,1)", p)
	}
	// Very high rewards saturate toward 1. The comparison is written so a
	// NaN fails it.
	if p := l.AcceptFloat(1e6); !(p >= 0.999 && p <= 1) {
		t.Errorf("AcceptFloat(1e6) = %v, want ≈1", p)
	}
}

// TestLogisticExtremeRewards evaluates the curve where exp(c/S − B)
// overflows (c/S − B > ~709.8) or underflows. The result must be a number
// in [0, 1] saturated at the right end, never NaN: a NaN acceptance turns
// into a NaN Poisson mean inside the deadline solver.
func TestLogisticExtremeRewards(t *testing.T) {
	for _, tc := range []struct {
		l    Logistic
		c    float64
		want float64
	}{
		{Logistic{S: 1, B: 0, M: 2000}, 800, 1},
		{Logistic{S: 1, B: 0, M: 2000}, 1e300, 1},
		{Logistic{S: 0.01, B: -5, M: 1e5}, 1e6, 1},
		{Logistic{S: 1, B: 800, M: 2000}, 0, 0},
		{Logistic{S: 1, B: 0, M: 2000}, -1e300, 0},
	} {
		p := tc.l.AcceptFloat(tc.c)
		if math.IsNaN(p) || math.Abs(p-tc.want) > 1e-12 {
			t.Errorf("%+v.AcceptFloat(%g) = %v, want %v", tc.l, tc.c, p, tc.want)
		}
		if c := int(tc.c); float64(c) == tc.c {
			if q := tc.l.Accept(c); q != p {
				t.Errorf("%+v.Accept(%d) = %v, AcceptFloat gives %v", tc.l, c, q, p)
			}
		}
	}
}

// TestLogisticMonotoneNearOne sweeps rewards across the saturated end of
// curves where the textbook e/(e+M) form rounds one ulp down as c grows.
func TestLogisticMonotoneNearOne(t *testing.T) {
	for _, l := range []Logistic{
		{S: 1, B: 0, M: 1},
		{S: 1.5, B: -2, M: 3.7},
		{S: 7, B: 4.2, M: 99991},
		{S: 49.3, B: -4.9, M: 1e5},
	} {
		prev := l.Accept(0)
		for c := 1; c <= 20000; c++ {
			p := l.Accept(c)
			if p < prev || p > 1 {
				t.Fatalf("%+v: Accept(%d) = %v after Accept(%d) = %v", l, c, p, c-1, prev)
			}
			prev = p
		}
	}
}

func TestInverseAccept(t *testing.T) {
	l := Paper13
	c, ok := l.InverseAccept(0.002, 100)
	if !ok {
		t.Fatal("no reward reached target")
	}
	if l.Accept(c) < 0.002 {
		t.Errorf("Accept(%d) = %v < target", c, l.Accept(c))
	}
	if c > 0 && l.Accept(c-1) >= 0.002 {
		t.Errorf("c = %d is not minimal", c)
	}
	if _, ok := l.InverseAccept(0.9999, 10); ok {
		t.Error("expected failure for unreachable target")
	}
}

func TestValidate(t *testing.T) {
	if err := Paper13.Validate(); err != nil {
		t.Errorf("Paper13 invalid: %v", err)
	}
	if err := (Logistic{S: 0, M: 1}).Validate(); err == nil {
		t.Error("S=0 should be invalid")
	}
	if err := (Logistic{S: 1, M: 0}).Validate(); err == nil {
		t.Error("M=0 should be invalid")
	}
}

func TestMarketChooseProb(t *testing.T) {
	m := NewMarket([]float64{0, 0, 0}) // three competitors at utility 0
	// A task at utility 0 among 3 equals competitors wins 1/4 of the time.
	if got := m.ChooseProb(0); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("ChooseProb(0) = %v, want 0.25", got)
	}
	if m.ExpSum() != 3 {
		t.Errorf("ExpSum = %v, want 3", m.ExpSum())
	}
	// Higher utility, higher probability.
	if m.ChooseProb(1) <= m.ChooseProb(0) {
		t.Error("ChooseProb not increasing in utility")
	}
}

// TestMarketMatchesGumbelSimulation cross-checks the closed-form logit
// probability against brute-force Gumbel utility maximization.
func TestMarketMatchesGumbelSimulation(t *testing.T) {
	utilities := []float64{0.5, -0.2, 1.0}
	m := NewMarket(utilities)
	ours := 0.8
	want := m.ChooseProb(ours)
	r := dist.NewRNG(9)
	const trials = 300_000
	wins := 0
	for i := 0; i < trials; i++ {
		u1 := ours + r.Gumbel()
		won := true
		for _, u := range utilities {
			if u+r.Gumbel() >= u1 {
				won = false
				break
			}
		}
		if won {
			wins++
		}
	}
	got := float64(wins) / trials
	if math.Abs(got-want) > 0.005 {
		t.Errorf("simulated %v, logit %v", got, want)
	}
}

// TestSimulateAcceptanceIsLogitShaped reproduces the qualitative Figure 5
// result: utility-maximization acceptance is increasing in reward and well
// fit by a logit curve.
func TestSimulateAcceptanceIsLogitShaped(t *testing.T) {
	cfg := DefaultUtilitySim()
	cfg.Trials = 20_000
	r := dist.NewRNG(10)
	var rewards []int
	for c := 0; c <= 100; c += 10 {
		rewards = append(rewards, c)
	}
	probs := SimulateAcceptance(cfg, rewards, r)
	// Winning against the max of 99 competing tasks is rare even at c=100
	// (μ1 = 1 vs a max of 99 standard-normal-mean utilities), so the check
	// is on the trend, not on absolute levels: the top of the curve must
	// clearly dominate the bottom.
	lowMean := (probs[0] + probs[1] + probs[2]) / 3
	highMean := (probs[len(probs)-1] + probs[len(probs)-2] + probs[len(probs)-3]) / 3
	if highMean <= 2*lowMean {
		t.Errorf("acceptance not clearly increasing: low %v high %v (%v)", lowMean, highMean, probs)
	}
}

func TestFitBetaRecoversScale(t *testing.T) {
	// Build exact logit data with known β, then recover it.
	beta := 2.6
	competitors := []float64{0.3, -0.5, 0.1, 0.8}
	rewardUtil := func(c int) float64 { return float64(c)/50 - 1 }
	var z float64
	for _, u := range competitors {
		z += math.Exp(beta * u)
	}
	var rewards []int
	var probs []float64
	for c := 0; c <= 100; c += 5 {
		e := math.Exp(beta * rewardUtil(c))
		rewards = append(rewards, c)
		probs = append(probs, e/(e+z))
	}
	got := FitBeta(rewardUtil, competitors, rewards, probs)
	if math.Abs(got-beta) > 0.05 {
		t.Errorf("FitBeta = %v, want %v", got, beta)
	}
}
