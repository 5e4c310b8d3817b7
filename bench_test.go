package crowdpricing

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (one benchmark per artifact, named after it) plus the ablations
// called out in DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
//
// Timings are the point: each benchmark is the full computation behind its
// artifact, so the table doubles as the Figure 8(d)-style training-cost
// report.

import (
	"sync"
	"testing"

	"crowdpricing/internal/choice"
	"crowdpricing/internal/core"
	"crowdpricing/internal/dist"
	"crowdpricing/internal/exp"
	"crowdpricing/internal/market"
)

var (
	benchWorkloadOnce sync.Once
	benchWorkload     *exp.Workload
)

func workload() *exp.Workload {
	benchWorkloadOnce.Do(func() { benchWorkload = exp.DefaultWorkload() })
	return benchWorkload
}

func BenchmarkTable1Truncation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rows := exp.Table1(); len(rows) != 3 {
			b.Fatal("bad row count")
		}
	}
}

func BenchmarkTable2Regression(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rows := exp.Table2(int64(i)); len(rows) != 2 {
			b.Fatal("bad row count")
		}
	}
}

func BenchmarkFigure1Trace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if s := exp.Figure1(); len(s.Counts) == 0 {
			b.Fatal("empty series")
		}
	}
}

func BenchmarkFigure5UtilitySim(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if res := exp.Figure5(int64(i)); res.Beta <= 0 {
			b.Fatal("bad beta")
		}
	}
}

func BenchmarkFigure6Scatter(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if pts := exp.Figure6(int64(i)); len(pts) == 0 {
			b.Fatal("empty scatter")
		}
	}
}

func BenchmarkFigure7aDeadline(b *testing.B) {
	w := workload()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Figure7a(w); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure7bSweep(b *testing.B) {
	w := workload()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Figure7b(w); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure8Params(b *testing.B) {
	w := workload()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := exp.Figure8abc(w); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure8dGranularity(b *testing.B) {
	w := workload()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Figure8d(w); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure9Sensitivity(b *testing.B) {
	w := workload()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Figure9(w, 50, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure10ArrivalSensitivity(b *testing.B) {
	w := workload()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Figure10(w, 50, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtensionAdaptivePrediction times the Section 5.2.5 future-work
// extension: the per-factor policy bank plus the adaptive Monte Carlo.
func BenchmarkExtensionAdaptivePrediction(b *testing.B) {
	w := workload()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Figure10Adaptive(w, 50, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure11Budget(b *testing.B) {
	w := workload()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Figure11(w, 50, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLiveStudy runs the Section 5.4 study behind Figures 12-15 and
// Tables 3-4, which are projections of its one result.
func BenchmarkLiveStudy(b *testing.B) {
	cfg := market.PaperLiveConfig(market.PaperArrival())
	for i := 0; i < b.N; i++ {
		if _, err := market.RunStudy(cfg, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations -----------------------------------------------------------

func ablationProblem() *DeadlineProblem {
	return workload().DefaultDeadlineProblem()
}

// BenchmarkAblationSimpleVsImprovedDP compares Algorithm 1 against
// Algorithm 2 on the default instance — the speed-up Conjecture 1 buys.
func BenchmarkAblationSimpleVsImprovedDP(b *testing.B) {
	p := ablationProblem()
	b.Run("SimpleDP", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := p.SolveSimple(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ImprovedDP", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := p.SolveEfficient(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationTruncation sweeps the Poisson truncation threshold ε of
// Section 3.2, including ε = 0 (exact sums).
func BenchmarkAblationTruncation(b *testing.B) {
	for _, eps := range []struct {
		name string
		eps  float64
	}{{"exact", 0}, {"1e-6", 1e-6}, {"1e-9", 1e-9}, {"1e-12", 1e-12}} {
		b.Run(eps.name, func(b *testing.B) {
			p := ablationProblem()
			p.TruncEps = eps.eps
			for i := 0; i < b.N; i++ {
				if _, err := p.SolveEfficient(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationBudgetSolvers compares the three fixed-budget solvers:
// the convex hull construction (Algorithm 3), the exact pseudo-polynomial
// DP (Theorem 6), and the generic simplex LP.
func BenchmarkAblationBudgetSolvers(b *testing.B) {
	p := &BudgetProblem{
		N: 200, Budget: 2500, Accept: Paper13, MinPrice: 1, MaxPrice: exp.DefaultMaxPrice,
	}
	b.Run("Hull", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := p.SolveHull(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ExactDP", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := p.SolveExactDP(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("SimplexLP", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := p.SolveLP(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationSemiStatic measures the Theorem 5 identity evaluation
// against Monte Carlo estimation of the same quantity.
func BenchmarkAblationSemiStatic(b *testing.B) {
	prices := make([]int, 200)
	for i := range prices {
		prices[i] = 10 + i%10
	}
	b.Run("ClosedForm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if w := core.SemiStaticExpectedArrivals(prices, Paper13); w <= 0 {
				b.Fatal("bad E[W]")
			}
		}
	})
	b.Run("MonteCarlo", func(b *testing.B) {
		r := dist.NewRNG(1)
		for i := 0; i < b.N; i++ {
			total := 0
			for _, c := range prices {
				total += dist.Geometric{P: choice.Paper13.Accept(c)}.Sample(r) + 1
			}
			if total <= 0 {
				b.Fatal("bad sample")
			}
		}
	})
}
