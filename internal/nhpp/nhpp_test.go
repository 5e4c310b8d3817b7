package nhpp

import (
	"math"
	"testing"

	"crowdpricing/internal/dist"
	"crowdpricing/internal/rate"
)

func TestCountMeanMatchesIntegral(t *testing.T) {
	p := New(rate.NewPiecewise(1, []float64{50, 150, 100}))
	r := dist.NewRNG(1)
	const trials = 20_000
	sum := 0.0
	for i := 0; i < trials; i++ {
		sum += float64(p.Count(r, 0, 3))
	}
	mean := sum / trials
	want := 300.0
	if math.Abs(mean-want) > 1 {
		t.Errorf("E[N[0,3]] ≈ %v, want %v", mean, want)
	}
}

func TestEventsMatchExpectedCount(t *testing.T) {
	// Sinusoid-ish piecewise-linear day profile.
	fn := rate.NewLinear([]float64{0, 6, 12, 18, 24}, []float64{20, 100, 180, 100, 20})
	p := New(fn)
	r := dist.NewRNG(2)
	const trials = 300
	total := 0
	for i := 0; i < trials; i++ {
		total += len(p.Events(r, 0, 24, 0))
	}
	mean := float64(total) / trials
	want := fn.Integral(0, 24)
	if math.Abs(mean-want) > 0.05*want {
		t.Errorf("mean event count %v, want %v", mean, want)
	}
}

func TestEventsRespectRateShape(t *testing.T) {
	// Rate 0 in the first half, high in the second: all events land late.
	fn := rate.NewPiecewise(1, []float64{0, 200})
	p := New(fn)
	r := dist.NewRNG(3)
	events := p.Events(r, 0, 2, 0)
	if len(events) == 0 {
		t.Fatal("no events sampled")
	}
	for _, e := range events {
		if e < 1 {
			t.Errorf("event at %v inside zero-rate region", e)
		}
	}
}

func TestEventsSorted(t *testing.T) {
	p := New(rate.Constant(100))
	r := dist.NewRNG(4)
	events := p.Events(r, 0, 5, 0)
	for i := 1; i < len(events); i++ {
		if events[i] < events[i-1] {
			t.Fatal("events not sorted")
		}
	}
}

func TestThinScalesRate(t *testing.T) {
	p := New(rate.Constant(1000))
	thin := p.Thin(0.25)
	if got := thin.ExpectedCount(0, 4); math.Abs(got-1000) > 1e-9 {
		t.Errorf("thinned expected count = %v, want 1000", got)
	}
	assertPanics(t, func() { p.Thin(-0.1) })
	assertPanics(t, func() { p.Thin(1.1) })
}

// TestThinningComposition checks the Thinned-NHPP claim of Section 2.1: the
// composition of an NHPP and a Bernoulli(p) filter has the same distribution
// as an NHPP with rate λ(t)p.
func TestThinningComposition(t *testing.T) {
	base := rate.NewPiecewise(1, []float64{400, 100})
	p := New(base)
	accept := 0.3
	r := dist.NewRNG(5)
	const trials = 4000
	sumFiltered, sumDirect := 0.0, 0.0
	for i := 0; i < trials; i++ {
		// Composition: sample arrivals, thin each independently.
		x := p.Count(r, 0, 2)
		sumFiltered += float64(dist.Binomial{N: x, P: accept}.Sample(r))
		// Direct thinned process.
		sumDirect += float64(p.Thin(accept).Count(r, 0, 2))
	}
	mf, md := sumFiltered/trials, sumDirect/trials
	want := 500 * accept
	if math.Abs(mf-want) > 0.05*want {
		t.Errorf("composed mean %v, want %v", mf, want)
	}
	if math.Abs(md-want) > 0.05*want {
		t.Errorf("direct mean %v, want %v", md, want)
	}
}

// TestFirstPassageLinearity validates the Section 4.2.2 approximation
// E[T|W] ≈ W/λ̄ for a stable periodic rate.
func TestFirstPassageLinearity(t *testing.T) {
	// A short period keeps W/λ̄ accurate even for small W; the paper's
	// justification assumes λ(t) is "relatively stable over a long period".
	fn := rate.NewPeriodic(rate.NewPiecewise(0.25, []float64{80, 120}), 0.5)
	p := New(fn)
	lambdaBar := AverageRate(fn, 0.5)
	r := dist.NewRNG(6)
	for _, w := range []int{50, 200, 800} {
		const trials = 60
		sum := 0.0
		for i := 0; i < trials; i++ {
			tt := p.FirstPassage(r, w, 1000)
			if math.IsInf(tt, 1) {
				t.Fatalf("first passage for w=%d never happened", w)
			}
			sum += tt
		}
		got := sum / trials
		want := float64(w) / lambdaBar
		if math.Abs(got-want) > 0.15*want+0.1 {
			t.Errorf("w=%d: E[T|W] ≈ %v, want ≈ %v", w, got, want)
		}
	}
}

func TestEstimatePiecewiseMLE(t *testing.T) {
	counts := []int{30, 60, 90}
	est := EstimatePiecewise(counts, 0.5)
	want := []float64{60, 120, 180}
	for i, w := range want {
		if got := est.Rates[i]; got != w {
			t.Errorf("rate[%d] = %v, want %v", i, got, w)
		}
	}
}

func TestEstimateRecoversRate(t *testing.T) {
	// Simulate from a known rate, re-estimate, compare integrals.
	truth := rate.NewPiecewise(1.0/3, repeat([]float64{300, 900, 600}, 24))
	p := New(truth)
	r := dist.NewRNG(7)
	nBuckets := len(truth.Rates)
	counts := make([]int, nBuckets)
	for rep := 0; rep < 50; rep++ {
		for i := range counts {
			s := float64(i) / 3
			counts[i] += p.Count(r, s, s+1.0/3)
		}
	}
	rates := make([]float64, nBuckets)
	for i, k := range counts {
		rates[i] = float64(k) / 50 / (1.0 / 3)
	}
	for i := range rates {
		if math.Abs(rates[i]-truth.Rates[i]) > 0.15*truth.Rates[i] {
			t.Errorf("bucket %d: estimated %v, truth %v", i, rates[i], truth.Rates[i])
		}
	}
}

func repeat(vals []float64, times int) []float64 {
	out := make([]float64, 0, len(vals)*times)
	for i := 0; i < times; i++ {
		out = append(out, vals...)
	}
	return out
}

func assertPanics(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}
