package core

import (
	"fmt"
	"maps"
	"math"
	"slices"
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

// TestPoissonRowHugeMeans: a finite mean at or past 2⁶³, which int(mean)
// cannot convert, anchors at the row's last cell like any mean past the
// limit, truncated or not, and the row is all zeros.
func TestPoissonRowHugeMeans(t *testing.T) {
	for _, mean := range []float64{0x1p63, 1e19, 1e300, math.MaxFloat64} {
		for _, eps := range []float64{0, 1e-6} {
			pmf, cum := builtRow(mean, 201, eps)
			if len(pmf) != 201 {
				t.Fatalf("mean %v eps %v: row of %d cells, want 201", mean, eps, len(pmf))
			}
			for s := range pmf {
				if pmf[s] != 0 || cum[s] != 0 {
					t.Fatalf("mean %v eps %v: cell %d is (%v, %v), want zeros", mean, eps, s, pmf[s], cum[s])
				}
			}
		}
	}
}

// TestPoissonRowAnchorIsPMF0: a row whose mean lies in (0, 1) is anchored
// at math.Exp(-mean), which must be dist.Poisson's PMF(0) bit for bit. The
// means are the smallest subnormal and normal doubles, the double below 1,
// powers of two and a seeded sweep of the interval down to 2⁻¹⁰⁰⁰.
func TestPoissonRowAnchorIsPMF0(t *testing.T) {
	means := []float64{math.SmallestNonzeroFloat64, 0x1p-1022, 1e-300, 1e-17, 0.5, math.Nextafter(1, 0)}
	for e := -1; e >= -60; e-- {
		means = append(means, math.Ldexp(1, e), math.Ldexp(1.5, e))
	}
	r := dist.NewRNG(1)
	for i := 0; i < 100_000; i++ {
		means = append(means, r.Float64(), math.Ldexp(r.Float64(), -r.Intn(1000)))
	}
	pmf, cum := make([]float64, 1), make([]float64, 1)
	for _, mean := range means {
		if !(mean > 0 && mean < 1) {
			continue
		}
		poissonRow(pmf, cum, mean, 0)
		if want := (dist.Poisson{Lambda: mean}).PMF(0); math.Float64bits(pmf[0]) != math.Float64bits(want) {
			t.Fatalf("mean %v: anchor %v, PMF(0) %v", mean, pmf[0], want)
		}
	}
}

// FuzzPoissonRow checks the builder against the two-call oracle on
// arbitrary means below 1e6, limits 1-2001 and thresholds (zero, negative,
// NaN and infinite ones included: only eps > 0 truncates, in both). A
// negative mean is folded into (−1, 0), the negative means whose mode,
// int(mean), is a cell of the row; zero and those means anchor at PMF(0),
// as the means in (0, 1) must.
func FuzzPoissonRow(f *testing.F) {
	f.Add(0.0, uint16(200), 1e-6)
	f.Add(1733*0.0015, uint16(200), 1e-9)
	f.Add(57.0, uint16(16), 1e-3)
	f.Add(1e6, uint16(1000), 0.0)
	f.Add(0.4, uint16(0), math.Inf(1))
	f.Add(-0.3, uint16(40), 1e-6)
	f.Add(5e-324, uint16(3), 0.5)
	f.Fuzz(func(t *testing.T, mean float64, limit uint16, eps float64) {
		if math.IsNaN(mean) || math.IsInf(mean, 0) {
			return
		}
		mean = math.Mod(mean, 1e6)
		if mean < 0 {
			mean = math.Mod(mean, 1)
		}
		n := 1 + int(limit)%2001
		pmf, cum := builtRow(mean, n, eps)
		checkRow(t, pmf, cum, mean, n, eps)
	})
}

// stateCost and oracleSolve are the deadline solvers' state evaluation as
// it was before the flat kernel in bestPrice, kept as its oracle: one call
// per (state, price), and Algorithm 2's halving as a recursive closure per
// interval. The kernel must equal them in every Opt bit and Price cell.

// stateCost evaluates the DP objective for state (n, t) at a price using
// that price's row of the interval's table:
//
//	Σ_{s<n} PMF(s)·(s·c + Opt[t+1][n−s]) + P(X ≥ n)·n·c + P(X ≥ n)·Opt[t+1][0]
//
// with Opt[t+1][0] = 0 by construction.
func stateCost(pmf, cum, next []float64, n, price int) float64 {
	m := n
	if m > len(pmf) {
		m = len(pmf)
	}
	cost := 0.0
	for s := 0; s < m; s++ {
		cost += pmf[s] * (float64(s*price) + next[n-s])
	}
	// Tail mass P(X >= m'): everything at or beyond n completes all n
	// tasks; truncated mass beyond the table is treated the same, which is
	// exactly the estimate Est_trunc of Theorem 1 when m == len(pmf) < n.
	var covered float64
	if m > 0 {
		covered = cum[m-1]
	}
	tail := 1 - covered
	if tail > 0 {
		cost += tail * float64(n*price)
	}
	return cost
}

func oracleBestPrice(p *DeadlineProblem, tab *typeTable, next []float64, n, priceLo, priceHi int) (float64, int) {
	bestCost := math.Inf(1)
	best := priceLo
	for c := priceLo; c <= priceHi; c++ {
		ci := c - p.MinPrice
		cost := stateCost(tab.pmf[ci], tab.cum[ci], next, n, c)
		if cost < bestCost {
			bestCost = cost
			best = c
		}
	}
	return bestCost, best
}

// oracleSolve solves p as SolveEfficient did (Algorithm 2) or, with
// efficient false, as SolveSimple did (Algorithm 1).
func oracleSolve(p *DeadlineProblem, efficient bool) (*DeadlinePolicy, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	pol := p.newPolicy()
	tab := p.newTable()
	for t := p.Intervals - 1; t >= 0; t-- {
		tab.fill(p.Lambdas[t])
		next := pol.Opt[t+1]
		if !efficient {
			for n := 1; n <= p.N; n++ {
				pol.Opt[t][n], pol.Price[t][n] = oracleBestPrice(p, tab, next, n, p.MinPrice, p.MaxPrice)
			}
			continue
		}
		var solveRange func(lo, hi, priceLo, priceHi int)
		solveRange = func(lo, hi, priceLo, priceHi int) {
			if lo > hi {
				return
			}
			mid := (lo + hi) / 2
			bestCost, bestPrice := oracleBestPrice(p, tab, next, mid, priceLo, priceHi)
			pol.Opt[t][mid] = bestCost
			pol.Price[t][mid] = bestPrice
			solveRange(lo, mid-1, priceLo, bestPrice)
			solveRange(mid+1, hi, bestPrice, priceHi)
		}
		solveRange(1, p.N, p.MinPrice, p.MaxPrice)
	}
	pol.Value = pol.Opt[0][p.N]
	return pol, nil
}

// matchOracle solves p with both solvers and requires each to equal its
// oracle in Value, every Opt bit and every Price cell.
func matchOracle(t testing.TB, label string, p *DeadlineProblem) {
	t.Helper()
	for _, solver := range []struct {
		name      string
		efficient bool
		solve     func() (*DeadlinePolicy, error)
	}{{"SolveEfficient", true, p.SolveEfficient}, {"SolveSimple", false, p.SolveSimple}} {
		got, err := solver.solve()
		if err != nil {
			t.Fatalf("%s %s: %v", label, solver.name, err)
		}
		want, err := oracleSolve(p, solver.efficient)
		if err != nil {
			t.Fatalf("%s %s oracle: %v", label, solver.name, err)
		}
		if math.Float64bits(got.Value) != math.Float64bits(want.Value) {
			t.Fatalf("%s %s: Value %v, oracle %v", label, solver.name, got.Value, want.Value)
		}
		for tt := range want.Opt {
			for n := range want.Opt[tt] {
				if math.Float64bits(got.Opt[tt][n]) != math.Float64bits(want.Opt[tt][n]) {
					t.Fatalf("%s %s: Opt[%d][%d] = %v, oracle %v", label, solver.name, tt, n, got.Opt[tt][n], want.Opt[tt][n])
				}
			}
		}
		for tt := range want.Price {
			for n := range want.Price[tt] {
				if got.Price[tt][n] != want.Price[tt][n] {
					t.Fatalf("%s %s: Price[%d][%d] = %d, oracle %d", label, solver.name, tt, n, got.Price[tt][n], want.Price[tt][n])
				}
			}
		}
	}
}

// TestKernelMatchesOracle holds both solvers to the oracle on the λ=1733
// problems of the package's tests and benchmarks, whose rows run to tens of
// cells, with and without the Alpha surcharge and truncation.
func TestKernelMatchesOracle(t *testing.T) {
	problems := map[string]*DeadlineProblem{
		"test 40x9":    testProblem(40, 9),
		"bench 50x18":  benchDeadline(50, 18),
		"bench 200x72": benchDeadline(200, 72),
		"paper scale":  paperScaleDeadline(),
	}
	for _, name := range slices.Sorted(maps.Keys(problems)) {
		for _, eps := range []float64{0, 1e-9, 1e-6} {
			for _, alpha := range []float64{0, 3} {
				p := *problems[name]
				p.TruncEps, p.Alpha = eps, alpha
				matchOracle(t, fmt.Sprintf("%s eps %v alpha %v", name, eps, alpha), &p)
			}
		}
	}
}

// FuzzSolveEfficient holds both solvers to the oracle on small arbitrary
// problems: N 1-60, 1-8 intervals, a price range of up to 31 prices from a
// minimum of 0-20, λ_t up to 1e4, ε of 0, 1e-9, 1e-6 or an arbitrary value,
// α 0-5, penalties up to 1e4 and a jittered logistic acceptance curve.
func FuzzSolveEfficient(f *testing.F) {
	f.Add(uint8(40), uint8(8), uint8(0), uint8(30), 1733.0, uint64(1), uint8(1), 0.0, 0.0, 200.0)
	f.Add(uint8(59), uint8(7), uint8(1), uint8(24), 6.0, uint64(2), uint8(2), 0.0, 3.0, 200.0)
	f.Add(uint8(5), uint8(0), uint8(20), uint8(0), 1e4, uint64(3), uint8(0), 0.0, 5.0, 1e4)
	f.Add(uint8(0), uint8(3), uint8(3), uint8(10), 0.0, uint64(4), uint8(3), 0.37, 0.5, 0.0)
	f.Fuzz(func(t *testing.T, n, intervals, minPrice, span uint8, lambda float64, seed uint64, epsMode uint8, eps, alpha, penalty float64) {
		if anyNaN(lambda, eps, alpha, penalty) || math.IsInf(lambda, 0) || math.IsInf(eps, 0) ||
			math.IsInf(alpha, 0) || math.IsInf(penalty, 0) {
			return
		}
		r := dist.NewRNG(int64(seed))
		p := &DeadlineProblem{
			N:         1 + int(n)%60,
			Horizon:   1,
			Intervals: 1 + int(intervals)%8,
			Accept:    choice.Logistic{S: r.Uniform(5, 25), B: -0.39, M: r.Uniform(500, 5000)},
			MinPrice:  int(minPrice) % 21,
			Penalty:   math.Mod(math.Abs(penalty), 1e4),
			Alpha:     math.Mod(math.Abs(alpha), 5),
			TruncEps:  [...]float64{0, 1e-9, 1e-6, math.Mod(math.Abs(eps), 1)}[epsMode%4],
		}
		p.MaxPrice = p.MinPrice + int(span)%31
		base := math.Mod(math.Abs(lambda), 1e4)
		p.Lambdas = make([]float64, p.Intervals)
		for i := range p.Lambdas {
			p.Lambdas[i] = base * r.Float64()
		}
		matchOracle(t, "fuzz", p)
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
