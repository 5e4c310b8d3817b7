package core

import (
	"testing"

	"crowdpricing/internal/choice"
)

// benchDeadline builds an instance at the paper's 20-minute arrival rate.
func benchDeadline(n, intervals int) *DeadlineProblem {
	lambdas := make([]float64, intervals)
	for i := range lambdas {
		lambdas[i] = 1733
	}
	return &DeadlineProblem{
		N: n, Horizon: float64(intervals) / 3, Intervals: intervals,
		Lambdas: lambdas, Accept: choice.Paper13,
		MinPrice: 0, MaxPrice: 40, Penalty: 500, TruncEps: 1e-9,
	}
}

func BenchmarkSolveEfficientSmall(b *testing.B) {
	p := benchDeadline(50, 18)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.SolveEfficient(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveEfficientPaperScale(b *testing.B) {
	p := benchDeadline(200, 72)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.SolveEfficient(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveSimplePaperScale(b *testing.B) {
	p := benchDeadline(200, 72)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.SolveSimple(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveSimpleLarge is the large-batch regime: a thousand states
// per interval.
func BenchmarkSolveSimpleLarge(b *testing.B) {
	p := benchDeadline(1000, 24)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.SolveSimple(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvaluatePolicy(b *testing.B) {
	p := benchDeadline(200, 72)
	pol, err := p.SolveEfficient()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pol.Evaluate()
	}
}

func BenchmarkBudgetHull(b *testing.B) {
	p := &BudgetProblem{N: 200, Budget: 2500, Accept: choice.Paper13, MinPrice: 1, MaxPrice: 50}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.SolveHull(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMultiTypeSolve(b *testing.B) {
	mp := testMultiType()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := mp.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}
