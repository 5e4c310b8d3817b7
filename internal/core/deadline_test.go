package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"crowdpricing/internal/choice"
)

// testProblem builds a moderate instance with the paper's acceptance curve.
func testProblem(n, intervals int) *DeadlineProblem {
	lambdas := make([]float64, intervals)
	for i := range lambdas {
		// Mild diurnal variation around 1733 arrivals per 20-minute slot.
		lambdas[i] = 1733 * (1 + 0.3*math.Sin(float64(i)/3))
	}
	return &DeadlineProblem{
		N:         n,
		Horizon:   float64(intervals) / 3,
		Intervals: intervals,
		Lambdas:   lambdas,
		Accept:    choice.Paper13,
		MinPrice:  0,
		MaxPrice:  30,
		Penalty:   200,
		TruncEps:  1e-9,
	}
}

func TestValidate(t *testing.T) {
	p := testProblem(10, 6)
	if err := p.Validate(); err != nil {
		t.Fatalf("valid problem rejected: %v", err)
	}
	bad := []func(*DeadlineProblem){
		func(p *DeadlineProblem) { p.N = 0 },
		func(p *DeadlineProblem) { p.Horizon = 0 },
		func(p *DeadlineProblem) { p.Intervals = 0 },
		func(p *DeadlineProblem) { p.Lambdas = p.Lambdas[:3] },
		func(p *DeadlineProblem) { p.Accept = nil },
		func(p *DeadlineProblem) { p.MaxPrice = -1 },
		func(p *DeadlineProblem) { p.MinPrice = -1 },
		func(p *DeadlineProblem) { p.Penalty = -1 },
		func(p *DeadlineProblem) { p.TruncEps = -1 },
		func(p *DeadlineProblem) { p.Lambdas[0] = -5 },
	}
	for i, mutate := range bad {
		q := *testProblem(10, 6)
		q.Lambdas = append([]float64(nil), q.Lambdas...)
		mutate(&q)
		if err := q.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

// TestValidateRejectsBadLambdas: the deadline, multi and two-type problems
// share one arrival check, so a negative, NaN or infinite λ_t is a Validate
// error (and so a Fingerprint error) for each of them. A negative λ used to
// reach the multi solve, which panicked on an index below its table or
// solved as if no worker arrived, and +Inf reached every solve.
func TestValidateRejectsBadLambdas(t *testing.T) {
	for _, l := range []float64{-3000, -30, -1e-300, math.NaN(), math.Inf(1), math.Inf(-1)} {
		d := testProblem(10, 6)
		d.Lambdas[2] = l
		k := testMultiK([]int{3, 3}, []choice.AcceptanceFn{choice.Paper13, choice.Paper13})
		k.Lambdas[0] = l
		two := testMultiType()
		two.Lambdas[5] = l
		for name, validate := range map[string]func() error{
			"deadline": d.Validate, "multi": k.Validate, "two-type": two.Validate,
		} {
			if err := validate(); err == nil || !strings.Contains(err.Error(), "invalid lambda") {
				t.Errorf("%s problem with lambda %v: Validate error %v, want invalid lambda", name, l, err)
			}
		}
		if _, err := d.Fingerprint(); err == nil {
			t.Errorf("deadline problem with lambda %v fingerprints", l)
		}
		if _, err := k.Fingerprint(); err == nil {
			t.Errorf("multi problem with lambda %v fingerprints", l)
		}
	}
}

// TestHugeFiniteLambdaSolves: a finite λ_t of any size solves. At 1e300
// every mean of the interval is far past N, so each row is anchored at its
// last cell and is all zeros, truncated or not: every state completes at
// once and the interval prices at MinPrice. int(mean) of such a mean is no
// count, and the solvers used to index a row with it.
func TestHugeFiniteLambdaSolves(t *testing.T) {
	for _, eps := range []float64{0, 1e-6} {
		p := testProblem(12, 4)
		p.MinPrice, p.TruncEps = 2, eps
		p.Lambdas[1] = 1e300
		for name, solve := range map[string]func() (*DeadlinePolicy, error){
			"SolveEfficient": p.SolveEfficient, "SolveSimple": p.SolveSimple,
		} {
			pol, err := solve()
			if err != nil {
				t.Fatalf("%s eps %v: %v", name, eps, err)
			}
			for n := 1; n <= p.N; n++ {
				if pol.Price[1][n] != p.MinPrice || pol.Opt[1][n] != float64(n*p.MinPrice) {
					t.Fatalf("%s eps %v: state (%d, 1) prices %d at cost %v, want %d at %d",
						name, eps, n, pol.Price[1][n], pol.Opt[1][n], p.MinPrice, n*p.MinPrice)
				}
			}
			if out := pol.Evaluate(); math.IsNaN(out.ExpectedCost) || math.Abs(out.CompletionProb-1) > 1e-12 {
				t.Errorf("%s eps %v: outcome %+v, want every task done", name, eps, out)
			}
		}
		k := testMultiK([]int{3, 2}, []choice.AcceptanceFn{choice.Paper13, choice.Paper13})
		k.TruncEps = eps
		k.Lambdas[1] = 1e300
		if _, err := k.Solve(); err != nil {
			t.Errorf("multi eps %v: %v", eps, err)
		}
		two := testMultiType()
		two.TruncEps = eps
		two.Lambdas[2] = 1e300
		if _, err := two.Solve(); err != nil {
			t.Errorf("two-type eps %v: %v", eps, err)
		}
	}
}

// TestSimpleMatchesEfficient is the correctness check for Algorithm 2: the
// monotone divide-and-conquer price search must reproduce Algorithm 1's
// value function (Conjecture 1 holding on this family of instances).
func TestSimpleMatchesEfficient(t *testing.T) {
	p := testProblem(40, 9)
	simple, err := p.SolveSimple()
	if err != nil {
		t.Fatal(err)
	}
	efficient, err := p.SolveEfficient()
	if err != nil {
		t.Fatal(err)
	}
	for tt := 0; tt <= p.Intervals; tt++ {
		for n := 0; n <= p.N; n++ {
			a, b := simple.Opt[tt][n], efficient.Opt[tt][n]
			if math.Abs(a-b) > 1e-9*(1+math.Abs(a)) {
				t.Fatalf("Opt[%d][%d]: simple %v, efficient %v", tt, n, a, b)
			}
		}
	}
	for tt := 0; tt < p.Intervals; tt++ {
		for n := 1; n <= p.N; n++ {
			if simple.Price[tt][n] != efficient.Price[tt][n] {
				t.Fatalf("Price[%d][%d]: simple %d, efficient %d",
					tt, n, simple.Price[tt][n], efficient.Price[tt][n])
			}
		}
	}
}

// TestMonotonicityConjecture verifies Conjecture 1 on the solved policy:
// Price(n, t) is non-decreasing in n for fixed t, and non-decreasing in t
// for fixed n (prices rise toward the deadline).
func TestMonotonicityConjecture(t *testing.T) {
	p := testProblem(60, 12)
	pol, err := p.SolveSimple()
	if err != nil {
		t.Fatal(err)
	}
	for tt := 0; tt < p.Intervals; tt++ {
		for n := 2; n <= p.N; n++ {
			if pol.Price[tt][n] < pol.Price[tt][n-1] {
				t.Errorf("Price(%d,%d)=%d < Price(%d,%d)=%d violates monotonicity in n",
					n, tt, pol.Price[tt][n], n-1, tt, pol.Price[tt][n-1])
			}
		}
	}
	for n := 1; n <= p.N; n += 7 {
		for tt := 1; tt < p.Intervals; tt++ {
			if pol.Price[tt][n] < pol.Price[tt-1][n] {
				t.Errorf("Price(%d,%d)=%d < Price(%d,%d)=%d violates monotonicity in t",
					n, tt, pol.Price[tt][n], n, tt-1, pol.Price[tt-1][n])
			}
		}
	}
}

// TestOptZeroTasksIsZero: with no tasks left there is nothing to pay.
func TestOptZeroTasksIsZero(t *testing.T) {
	p := testProblem(20, 6)
	pol, err := p.SolveEfficient()
	if err != nil {
		t.Fatal(err)
	}
	for tt := 0; tt <= p.Intervals; tt++ {
		if pol.Opt[tt][0] != 0 {
			t.Errorf("Opt[%d][0] = %v, want 0", tt, pol.Opt[tt][0])
		}
	}
}

// TestOptMonotoneInN: more remaining tasks can never cost less.
func TestOptMonotoneInN(t *testing.T) {
	p := testProblem(30, 8)
	pol, err := p.SolveEfficient()
	if err != nil {
		t.Fatal(err)
	}
	for tt := 0; tt <= p.Intervals; tt++ {
		for n := 1; n <= p.N; n++ {
			if pol.Opt[tt][n] < pol.Opt[tt][n-1]-1e-9 {
				t.Errorf("Opt[%d][%d]=%v < Opt[%d][%d]=%v", tt, n, pol.Opt[tt][n], tt, n-1, pol.Opt[tt][n-1])
			}
		}
	}
}

// TestBellmanConsistency re-derives Opt[t][n] from Opt[t+1] at the policy's
// chosen price, through the oracle's stateCost (kernel_test.go), and checks
// it matches — the DP respects its own recurrence.
func TestBellmanConsistency(t *testing.T) {
	p := testProblem(25, 6)
	pol, err := p.SolveSimple()
	if err != nil {
		t.Fatal(err)
	}
	tab := p.newTable()
	for tt := 0; tt < p.Intervals; tt++ {
		tab.fill(p.Lambdas[tt])
		for n := 1; n <= p.N; n++ {
			c := pol.Price[tt][n]
			got := stateCost(tab.pmf[c-p.MinPrice], tab.cum[c-p.MinPrice], pol.Opt[tt+1], n, c)
			if math.Abs(got-pol.Opt[tt][n]) > 1e-9*(1+got) {
				t.Fatalf("Bellman mismatch at (%d,%d): %v vs %v", n, tt, got, pol.Opt[tt][n])
			}
		}
	}
}

// TestEvaluateMatchesOpt is the strongest internal invariant: the exact
// forward evaluation's expected payment plus expected terminal penalty must
// equal the DP's Opt[0][N].
func TestEvaluateMatchesOpt(t *testing.T) {
	for _, alpha := range []float64{0, 3} {
		p := testProblem(40, 9)
		p.Alpha = alpha
		pol, err := p.SolveEfficient()
		if err != nil {
			t.Fatal(err)
		}
		out := pol.Evaluate()
		expPenalty := 0.0
		for n := 1; n <= p.N; n++ {
			expPenalty += (float64(n) + p.Alpha) * p.Penalty * out.Remaining[n]
		}
		total := out.ExpectedCost + expPenalty
		if math.Abs(total-pol.Opt[0][p.N]) > 1e-6*(1+total) {
			t.Errorf("alpha=%v: evaluate total %v, Opt %v", alpha, total, pol.Opt[0][p.N])
		}
	}
}

// TestTruncationBound exercises Theorem 1: solving with truncation changes
// the value function by far less than the theorem's n·(NT−t)·C·ε bound.
func TestTruncationBound(t *testing.T) {
	exact := testProblem(30, 6)
	exact.TruncEps = 0
	polExact, err := exact.SolveSimple()
	if err != nil {
		t.Fatal(err)
	}
	trunc := testProblem(30, 6)
	trunc.TruncEps = 1e-9
	polTrunc, err := trunc.SolveSimple()
	if err != nil {
		t.Fatal(err)
	}
	for tt := 0; tt <= exact.Intervals; tt++ {
		for n := 0; n <= exact.N; n++ {
			bound := float64(n) * float64(exact.Intervals-tt) * float64(exact.MaxPrice) * 1e-9
			// Allow generous slack: the theorem's bound plus FP noise.
			if d := math.Abs(polExact.Opt[tt][n] - polTrunc.Opt[tt][n]); d > bound+1e-6 {
				t.Errorf("truncation error %v at (%d,%d) exceeds bound %v", d, n, tt, bound)
			}
		}
	}
}

// TestHigherPenaltyFewerRemaining: the Penalty knob trades money for
// completion, monotonically.
func TestHigherPenaltyFewerRemaining(t *testing.T) {
	prevRemaining := math.Inf(1)
	prevCost := 0.0
	for _, penalty := range []float64{20, 100, 500, 2500} {
		p := testProblem(40, 9)
		p.Penalty = penalty
		pol, err := p.SolveEfficient()
		if err != nil {
			t.Fatal(err)
		}
		out := pol.Evaluate()
		if out.ExpectedRemaining > prevRemaining+1e-9 {
			t.Errorf("penalty %v: remaining %v rose above %v", penalty, out.ExpectedRemaining, prevRemaining)
		}
		if out.ExpectedCost < prevCost-1e-9 {
			t.Errorf("penalty %v: cost %v fell below %v", penalty, out.ExpectedCost, prevCost)
		}
		prevRemaining = out.ExpectedRemaining
		prevCost = out.ExpectedCost
	}
}

// TestDynamicBeatsFixed is the headline claim scaled down: at equal
// completion guarantees the dynamic policy spends less than the fixed-price
// baseline.
func TestDynamicBeatsFixed(t *testing.T) {
	p := testProblem(60, 18)
	fixed, err := p.FixedPriceForConfidence(0.999)
	if err != nil {
		t.Fatal(err)
	}
	cal, err := p.CalibratePenaltyForConfidence(0.999, 1e5, 25)
	if err != nil {
		t.Fatal(err)
	}
	if cal.Outcome.CompletionProb < 0.999 {
		t.Fatalf("calibration missed confidence: %v", cal.Outcome.CompletionProb)
	}
	if cal.Outcome.ExpectedCost >= fixed.ExpectedCost {
		t.Errorf("dynamic cost %v not below fixed cost %v (price %d)",
			cal.Outcome.ExpectedCost, fixed.ExpectedCost, fixed.Price)
	}
}

// TestCalibrateBound: the bound calibration meets its target.
func TestCalibrateBound(t *testing.T) {
	p := testProblem(40, 9)
	cal, err := p.CalibratePenaltyForBound(0.5, 5000, 25)
	if err != nil {
		t.Fatal(err)
	}
	if cal.Outcome.ExpectedRemaining > 0.5 {
		t.Errorf("remaining %v exceeds bound", cal.Outcome.ExpectedRemaining)
	}
}

// TestPriceAtClamping: out-of-range queries clamp instead of panicking.
func TestPriceAtClamping(t *testing.T) {
	p := testProblem(10, 4)
	pol, err := p.SolveEfficient()
	if err != nil {
		t.Fatal(err)
	}
	if got := pol.PriceAt(0, 2); got != p.MinPrice {
		t.Errorf("PriceAt(0,·) = %d, want MinPrice", got)
	}
	if got := pol.PriceAt(999, 2); got != pol.Price[2][10] {
		t.Errorf("PriceAt clamps n: got %d", got)
	}
	if got := pol.PriceAt(5, 999); got != pol.Price[3][5] {
		t.Errorf("PriceAt clamps t: got %d", got)
	}
	if got := pol.PriceAt(5, -1); got != pol.Price[0][5] {
		t.Errorf("PriceAt clamps negative t: got %d", got)
	}
}

// TestRemainingDistributionIsDistribution: forward evaluation produces a
// proper probability distribution.
func TestRemainingDistributionIsDistribution(t *testing.T) {
	p := testProblem(30, 9)
	pol, err := p.SolveEfficient()
	if err != nil {
		t.Fatal(err)
	}
	out := pol.Evaluate()
	sum := 0.0
	for _, q := range out.Remaining {
		if q < -1e-12 {
			t.Fatalf("negative probability %v", q)
		}
		sum += q
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("remaining distribution sums to %v", sum)
	}
}

func TestFixedPriceBinarySearchMinimal(t *testing.T) {
	p := testProblem(60, 18)
	out, err := p.FixedPriceForConfidence(0.999)
	if err != nil {
		t.Fatal(err)
	}
	if out.CompletionProb < 0.999 {
		t.Errorf("confidence %v below target", out.CompletionProb)
	}
	if out.Price > p.MinPrice {
		below := p.EvaluateFixed(out.Price - 1)
		if below.CompletionProb >= 0.999 {
			t.Errorf("price %d is not minimal", out.Price)
		}
	}
	// A batch far larger than the horizon can absorb is unreachable even at
	// MaxPrice.
	big := testProblem(6000, 18)
	if _, err := big.FixedPriceForConfidence(0.999); err == nil {
		t.Error("want error for unreachable batch size")
	}
}

func TestFixedPriceForBound(t *testing.T) {
	p := testProblem(60, 18)
	out, err := p.FixedPriceForBound(1.0)
	if err != nil {
		t.Fatal(err)
	}
	if out.ExpectedRemaining > 1.0 {
		t.Errorf("remaining %v exceeds bound", out.ExpectedRemaining)
	}
	if out.Price > p.MinPrice {
		below := p.EvaluateFixed(out.Price - 1)
		if below.ExpectedRemaining <= 1.0 {
			t.Errorf("price %d not minimal", out.Price)
		}
	}
}

// TestTheoreticalMinPricePaperValue: with the paper's default workload
// (N=200, 24h, λ̄ ≈ 5200/h) the bound c₀ is 12 cents (Section 5.2.1).
func TestTheoreticalMinPricePaperValue(t *testing.T) {
	lambdas := make([]float64, 72)
	for i := range lambdas {
		lambdas[i] = 5200.0 / 3
	}
	p := &DeadlineProblem{
		N: 200, Horizon: 24, Intervals: 72, Lambdas: lambdas,
		Accept: choice.Paper13, MinPrice: 0, MaxPrice: 40, Penalty: 100,
	}
	c0, err := p.TheoreticalMinPrice()
	if err != nil {
		t.Fatal(err)
	}
	if c0 != 12 {
		t.Errorf("c0 = %d, want 12", c0)
	}
}

// TestDynamicAdaptsPricesToProgress: with many tasks left late, the price
// exceeds the price with few tasks left late.
func TestDynamicAdaptsPricesToProgress(t *testing.T) {
	p := testProblem(60, 12)
	pol, err := p.SolveEfficient()
	if err != nil {
		t.Fatal(err)
	}
	lastT := p.Intervals - 1
	if pol.Price[lastT][p.N] <= pol.Price[lastT][1] {
		t.Errorf("late price with full backlog (%d) not above near-done price (%d)",
			pol.Price[lastT][p.N], pol.Price[lastT][1])
	}
}

// panicAccept is an acceptance curve that panics above a reward, standing
// in for any bug that panics inside a solve.
type panicAccept struct{ above int }

func (a panicAccept) Accept(cents int) float64 {
	if cents > a.above {
		panic(fmt.Sprintf("acceptance curve failed at %d cents", cents))
	}
	return choice.Paper13.Accept(cents)
}

// recovered runs fn and returns the value of the panic it raised, if any.
func recovered(fn func()) (r any) {
	defer func() { r = recover() }()
	fn()
	return nil
}

// TestParallelSolvePanicReachesCaller: an acceptance curve that panics
// inside the table build surfaces as a panic on the goroutine that called
// the solver, for both solvers, so a recover there (the solve engine's
// per-call containment) holds. A panic on a goroutine the solver started
// would kill the process instead, whatever its caller recovers.
func TestParallelSolvePanicReachesCaller(t *testing.T) {
	p := testProblem(40, 6)
	p.Accept = panicAccept{above: 20}
	for _, solver := range []struct {
		name  string
		solve func() (*DeadlinePolicy, error)
	}{{"SolveSimple", p.SolveSimple}, {"SolveEfficient", p.SolveEfficient}} {
		r := recovered(func() { _, _ = solver.solve() })
		if s, _ := r.(string); !strings.HasPrefix(s, "acceptance curve failed") {
			t.Errorf("%s: caller recovered %v, want the acceptance curve's panic", solver.name, r)
		}
	}
}
