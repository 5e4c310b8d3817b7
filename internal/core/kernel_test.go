package core

import (
	"math"
	"testing"

	"crowdpricing/internal/choice"
	"crowdpricing/internal/dist"
)

// poissonTable and poissonTruncation are the two-call construction that
// poissonRow replaced, kept as its oracle: the truncation point from
// dist.Poisson's TruncationPoint, then the PMF and running CDF of
// Pois(mean) for counts 0..limit-1, computed multiplicatively from the
// mode (clamped to limit-1).
func poissonTable(mean float64, limit int) (pmf, cum []float64) {
	pmf = make([]float64, limit)
	cum = make([]float64, limit)
	if limit == 0 {
		return pmf, cum
	}
	mode := int(mean)
	if mode >= limit {
		mode = limit - 1
	}
	d := dist.Poisson{Lambda: mean}
	anchor := d.PMF(mode)
	pmf[mode] = anchor
	term := anchor
	for s := mode - 1; s >= 0; s-- {
		term *= float64(s+1) / mean
		pmf[s] = term
	}
	term = anchor
	for s := mode + 1; s < limit; s++ {
		term *= mean / float64(s)
		pmf[s] = term
	}
	run := 0.0
	for s := range pmf {
		run += pmf[s]
		cum[s] = run
	}
	return pmf, cum
}

func poissonTruncation(mean, eps float64) int {
	return dist.Poisson{Lambda: mean}.TruncationPoint(eps)
}

// oracleRow is one table row as the solvers built it before poissonRow:
// the untruncated limit, lowered to the truncation point when eps > 0.
func oracleRow(mean float64, limit int, eps float64) (pmf, cum []float64) {
	if eps > 0 {
		if s0 := poissonTruncation(mean, eps); s0 < limit {
			limit = s0
		}
	}
	return poissonTable(mean, limit)
}

// checkRow fails unless pmf and cum equal the oracle's row bit for bit.
func checkRow(t *testing.T, pmf, cum []float64, mean float64, limit int, eps float64) {
	t.Helper()
	wantPMF, wantCum := oracleRow(mean, limit, eps)
	sameRow(t, pmf, cum, wantPMF, wantCum, mean, limit, eps)
}

func sameRow(t *testing.T, pmf, cum, wantPMF, wantCum []float64, mean float64, limit int, eps float64) {
	t.Helper()
	if len(pmf) != len(wantPMF) || len(cum) != len(wantCum) {
		t.Fatalf("mean %v limit %d eps %v: row length %d/%d, oracle %d", mean, limit, eps, len(pmf), len(cum), len(wantPMF))
	}
	for s := range wantPMF {
		if math.Float64bits(pmf[s]) != math.Float64bits(wantPMF[s]) ||
			math.Float64bits(cum[s]) != math.Float64bits(wantCum[s]) {
			t.Fatalf("mean %v limit %d eps %v: cell %d is (%v, %v), oracle (%v, %v)",
				mean, limit, eps, s, pmf[s], cum[s], wantPMF[s], wantCum[s])
		}
	}
}

func builtRow(mean float64, limit int, eps float64) (pmf, cum []float64) {
	pmf, cum = make([]float64, limit), make([]float64, limit)
	n := poissonRow(pmf, cum, mean, eps)
	return pmf[:n], cum[:n]
}

// kernelMeans spans 0-1e6: every integer to 64 and its neighbouring
// doubles (int(mean) is the walk's anchor), a geometric sweep of
// non-integer means, and integers around the tested limits.
func kernelMeans() []float64 {
	var means []float64
	for k := 0.0; k <= 64; k++ {
		means = append(means, k, math.Nextafter(k, math.Inf(1)))
		if k > 0 {
			means = append(means, math.Nextafter(k, 0))
		}
	}
	for m := 1e-3; m < 1e6; m *= 1.7 {
		means = append(means, m)
	}
	for _, k := range []float64{199, 200, 201, 202, 999, 1000, 1001, 1002, 1733, 1e4, 1e5, 1e6} {
		means = append(means, k, k+0.5)
	}
	return means
}

// TestPoissonRowMatchesTwoCall requires the one-pass builder to equal the
// two-call construction bit for bit, lengths included, over means 0-1e6,
// limits 1-1001 (so the mode falls below, at and past the limit) and the
// truncation thresholds the solvers see.
//
// The oracle's truncation point does not depend on the limit, so it is
// found once per (mean, eps): at λ=1e6, ε=1e-12 TruncationPoint's walk
// takes ~70 ms.
func TestPoissonRowMatchesTwoCall(t *testing.T) {
	for _, mean := range kernelMeans() {
		for _, eps := range []float64{0, 1e-12, 1e-9, 1e-6, 1e-3} {
			s0 := math.MaxInt
			if eps > 0 {
				s0 = poissonTruncation(mean, eps)
			}
			for _, limit := range []int{1, 2, 3, 7, 17, 51, 201, 202, 500, 1001} {
				wantPMF, wantCum := poissonTable(mean, min(limit, s0))
				pmf, cum := builtRow(mean, limit, eps)
				sameRow(t, pmf, cum, wantPMF, wantCum, mean, limit, eps)
			}
		}
	}
}

// TestTypeTableRefillsMatchOracle fills one table for a run of intervals
// whose arrival means jump by orders of magnitude, so the backing arrays
// grow mid-interval and are then rewritten in place: every row of every
// interval must still equal the oracle's.
func TestTypeTableRefillsMatchOracle(t *testing.T) {
	const nMax = 200
	for _, eps := range []float64{0, 1e-9} {
		tab := newTypeTable(choice.Paper13, 0, 50, nMax, eps)
		for _, lambda := range []float64{1733, 0, 2e5, 1733, 12, 5e6, 1733} {
			tab.fill(lambda)
			for ci := range tab.pmf {
				mean := lambda * choice.Paper13.Accept(ci)
				checkRow(t, tab.pmf[ci], tab.cum[ci], mean, nMax+1, eps)
			}
		}
	}
}

// FuzzPoissonRow checks the builder against the two-call oracle on
// arbitrary means up to 1e6, limits 1-2001 and thresholds (zero, negative,
// NaN and infinite ones included: only eps > 0 truncates, in both).
func FuzzPoissonRow(f *testing.F) {
	f.Add(0.0, uint16(200), 1e-6)
	f.Add(1733*0.0015, uint16(200), 1e-9)
	f.Add(57.0, uint16(16), 1e-3)
	f.Add(1e6, uint16(1000), 0.0)
	f.Add(0.4, uint16(0), math.Inf(1))
	f.Fuzz(func(t *testing.T, mean float64, limit uint16, eps float64) {
		if math.IsNaN(mean) || math.IsInf(mean, 0) {
			return
		}
		mean = math.Mod(math.Abs(mean), 1e6)
		n := 1 + int(limit)%2001
		pmf, cum := builtRow(mean, n, eps)
		checkRow(t, pmf, cum, mean, n, eps)
	})
}

// paperScaleDeadline is the paper's deadline instance: N=200, 72
// twenty-minute intervals, prices 0-50, ε=1e-6.
func paperScaleDeadline() *DeadlineProblem {
	p := benchDeadline(200, 72)
	p.MaxPrice = 50
	p.TruncEps = 1e-6
	return p
}

// TestSolveEfficientAllocations fences the solve's allocation count: the
// policy (two row arrays and their headers) and one table, whose backing
// arrays grow a few times at most, so the count does not grow with N or the
// number of intervals. Building a fresh PMF and CDF slice per (interval,
// price), with a row slice per interval, made 7,637 allocations here.
func TestSolveEfficientAllocations(t *testing.T) {
	const maxAllocs = 24
	p := paperScaleDeadline()
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := p.SolveEfficient(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("paper-scale SolveEfficient: %.0f allocations", allocs)
	if allocs > maxAllocs {
		t.Errorf("paper-scale SolveEfficient makes %.0f allocations, want at most %d", allocs, maxAllocs)
	}
}
