package core_test

import (
	"bytes"
	"fmt"
	"testing"

	"crowdpricing/internal/choice"
	"crowdpricing/internal/core"
	"crowdpricing/internal/kinds"
)

// samplerProblem is the service's deadline sampler's problem for a seed
// and size, as the deadline kind solves it.
func samplerProblem(tb testing.TB, seed int64, size string) *core.DeadlineProblem {
	tb.Helper()
	def, ok := kinds.Default().Lookup(kinds.KindDeadline)
	if !ok {
		tb.Fatal("deadline kind not registered")
	}
	r := def.Sample(seed, size).(*kinds.DeadlineRequest)
	return &core.DeadlineProblem{
		N:         r.N,
		Horizon:   r.HorizonHours,
		Intervals: r.Intervals,
		Lambdas:   r.Lambdas,
		Accept:    choice.Logistic{S: r.Accept.S, B: r.Accept.B, M: r.Accept.M},
		MinPrice:  r.MinPrice,
		MaxPrice:  r.MaxPrice,
		Penalty:   r.Penalty,
		Alpha:     r.Alpha,
		TruncEps:  r.TruncEps,
	}
}

// TestMarshalJSONMatchesEncoderOnSamples solves the service's deadline
// sampler at every size and requires MarshalJSON to write exactly
// json.Marshal(policyJSON)'s bytes, in a slice with no spare capacity.
func TestMarshalJSONMatchesEncoderOnSamples(t *testing.T) {
	for _, size := range []string{"small", "medium", "paper"} {
		for seed := int64(1); seed <= 4; seed++ {
			pol, err := samplerProblem(t, seed, size).SolveEfficient()
			if err != nil {
				t.Fatal(err)
			}
			got, err := pol.MarshalJSON()
			if err != nil {
				t.Fatal(err)
			}
			want, err := core.EncodePolicyJSON(pol)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s seed %d: MarshalJSON differs from encoding/json:\n got %s\nwant %s", size, seed, got, want)
			}
			if cap(got) != len(got) {
				t.Errorf("%s seed %d: artifact of %d bytes has capacity %d", size, seed, len(got), cap(got))
			}
		}
	}
}

// TestKernelMatchesOracleOnSamples holds both solvers to the oracle
// (kernel_test.go) in every Opt bit and Price cell on the service's sampled
// problems at every size, with ε of 0, 1e-9 and 1e-6, α of 0 and 3, and the
// sampled arrivals as drawn (every mean below 1) and 400 times larger (modes
// past the paper size's rows).
func TestKernelMatchesOracleOnSamples(t *testing.T) {
	seeds := map[string]int64{"small": 4, "medium": 3, "paper": 2}
	for _, size := range []string{"small", "medium", "paper"} {
		for seed := int64(1); seed <= seeds[size]; seed++ {
			for _, eps := range []float64{0, 1e-9, 1e-6} {
				for _, alpha := range []float64{0, 3} {
					for _, scale := range []float64{1, 400} {
						p := samplerProblem(t, seed, size)
						p.TruncEps, p.Alpha = eps, alpha
						p.Lambdas = append([]float64(nil), p.Lambdas...)
						for i := range p.Lambdas {
							p.Lambdas[i] *= scale
						}
						core.MatchOracle(t, fmt.Sprintf("%s seed %d eps %v alpha %v lambda x%v", size, seed, eps, alpha, scale), p)
					}
				}
			}
		}
	}
}

// BenchmarkSolveEfficientSampler times SolveEfficient in the regime the
// service solves: the deadline sampler's paper-size problems (N=200, 72
// intervals, prices 1-50, ε=1e-6, a few arrivals per interval, so every
// Poisson row's mean is below 1 and a row is 3-8 cells), cycling through
// seeds 1-8. The Benchmark*PaperScale benchmarks solve λ=1733 instead,
// whose rows run to tens of cells.
func BenchmarkSolveEfficientSampler(b *testing.B) {
	var problems []*core.DeadlineProblem
	for seed := int64(1); seed <= 8; seed++ {
		problems = append(problems, samplerProblem(b, seed, "paper"))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := problems[i%len(problems)].SolveEfficient(); err != nil {
			b.Fatal(err)
		}
	}
}
