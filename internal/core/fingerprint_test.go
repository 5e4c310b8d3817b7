package core

import (
	"testing"

	"crowdpricing/internal/choice"
)

func fpDeadlineProblem() *DeadlineProblem {
	return &DeadlineProblem{
		N:         20,
		Horizon:   4,
		Intervals: 4,
		Lambdas:   []float64{50, 60, 70, 80},
		Accept:    choice.Paper13,
		MinPrice:  1,
		MaxPrice:  30,
		Penalty:   300,
		Alpha:     0.5,
		TruncEps:  1e-9,
	}
}

func fpBudgetProblem() *BudgetProblem {
	return &BudgetProblem{N: 100, Budget: 2500, Accept: choice.Paper13, MinPrice: 1, MaxPrice: 50}
}

func fpTradeoffProblem() *TradeoffProblem {
	return &TradeoffProblem{N: 50, Alpha: 10, Lambda: 200, Accept: choice.Paper13, MinPrice: 1, MaxPrice: 50}
}

func fpMultiProblem() *MultiProblem {
	return &MultiProblem{
		Counts:    []int{3, 4},
		Intervals: 3,
		Lambdas:   []float64{40, 50, 60},
		Accepts:   []choice.AcceptanceFn{choice.Paper13, choice.Logistic{S: 12, B: -0.4, M: 1500}},
		MinPrice:  1,
		MaxPrice:  6,
		Penalty:   120,
		TruncEps:  1e-9,
	}
}

// TestFingerprintGolden pins the exact digests so any accidental change to
// the canonical encoding (which would silently invalidate every deployed
// cache) fails loudly. If the encoding is changed on purpose, bump the
// domain version tags and update these values.
func TestFingerprintGolden(t *testing.T) {
	cases := []struct {
		name string
		got  func() (string, error)
		want string
	}{
		{"deadline", fpDeadlineProblem().Fingerprint, "c76e7abbd9f102c22e5576d6f3fe5f0f45219c089ce3b49981d3af8ea4ec7d50"},
		{"budget", fpBudgetProblem().Fingerprint, "d38dfcb30ce2650749b7a62d140a0ff45600b51f1fa3facc6674232742a66bca"},
		{"tradeoff", fpTradeoffProblem().Fingerprint, "8bfe20f44544288c1ef3a5cd03fee297a25a13dae476d9a7134c4f1d8bcd7620"},
		{"multi", fpMultiProblem().Fingerprint, "5d42934a995333eca3b20f7e207022f6abd2a2384ba75525a2549bb261a8f622"},
	}
	for _, tc := range cases {
		got, err := tc.got()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got != tc.want {
			t.Errorf("%s fingerprint = %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestFingerprintAllocations fences a fingerprint's allocations at a small
// constant: the encoding starts in an array on the stack and is hashed
// once, so a problem whose encoding fits the array allocates only the
// digest's string, and a longer one also grows the encoding once or twice
// (one more under the race detector, whose instrumented build allocates
// the zeroed slice that slices.Grow appends). Writing each field through
// hash.Hash, which passed a fresh [8]byte through an interface per field,
// made 93 allocations on the paper-scale deadline problem.
func TestFingerprintAllocations(t *testing.T) {
	const maxAllocs = 4
	long := paperScaleDeadline()
	long.Intervals = 500
	long.Lambdas = make([]float64, long.Intervals)
	for i := range long.Lambdas {
		long.Lambdas[i] = 1733
	}
	cases := []struct {
		name string
		fp   func() (string, error)
	}{
		{"paper-scale deadline", paperScaleDeadline().Fingerprint},
		{"500-interval deadline", long.Fingerprint},
		{"budget", fpBudgetProblem().Fingerprint},
		{"tradeoff", fpTradeoffProblem().Fingerprint},
		{"multi", fpMultiProblem().Fingerprint},
	}
	for _, tc := range cases {
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := tc.fp(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s Fingerprint: %.0f allocations", tc.name, allocs)
		if allocs > maxAllocs {
			t.Errorf("%s Fingerprint makes %.0f allocations, want at most %d", tc.name, allocs, maxAllocs)
		}
	}
}

// TestFingerprintStableAcrossRuns re-hashes the same problem many times via
// fresh copies; any dependence on allocation addresses or iteration order
// would show up as a mismatch.
func TestFingerprintStableAcrossRuns(t *testing.T) {
	want, err := fpDeadlineProblem().Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		got, err := fpDeadlineProblem().Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("run %d: fingerprint %s != %s", i, got, want)
		}
	}
}

// TestFingerprintEqualProblems checks that structurally equal problems hash
// equal even when built independently.
func TestFingerprintEqualProblems(t *testing.T) {
	a, b := fpDeadlineProblem(), fpDeadlineProblem()
	fa, err := a.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	fb, err := b.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fa != fb {
		t.Errorf("equal problems hash differently: %s vs %s", fa, fb)
	}
}

// TestFingerprintPerturbations flips every policy-relevant field one at a
// time and checks each flip moves the hash.
func TestFingerprintPerturbations(t *testing.T) {
	base, err := fpDeadlineProblem().Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	perturbations := map[string]func(p *DeadlineProblem){
		"N":        func(p *DeadlineProblem) { p.N = 21 },
		"Horizon":  func(p *DeadlineProblem) { p.Horizon = 4.5 },
		"Lambdas":  func(p *DeadlineProblem) { p.Lambdas[2] = 71 },
		"Accept.S": func(p *DeadlineProblem) { p.Accept = choice.Logistic{S: 16, B: -0.39, M: 2000} },
		"Accept.B": func(p *DeadlineProblem) { p.Accept = choice.Logistic{S: 15, B: -0.40, M: 2000} },
		"Accept.M": func(p *DeadlineProblem) { p.Accept = choice.Logistic{S: 15, B: -0.39, M: 2001} },
		"MinPrice": func(p *DeadlineProblem) { p.MinPrice = 2 },
		"MaxPrice": func(p *DeadlineProblem) { p.MaxPrice = 31 },
		"Penalty":  func(p *DeadlineProblem) { p.Penalty = 301 },
		"Alpha":    func(p *DeadlineProblem) { p.Alpha = 0.6 },
		"TruncEps": func(p *DeadlineProblem) { p.TruncEps = 1e-8 },
	}
	seen := map[string]string{}
	for name, mutate := range perturbations {
		p := fpDeadlineProblem()
		mutate(p)
		got, err := p.Fingerprint()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got == base {
			t.Errorf("perturbing %s did not change the fingerprint", name)
		}
		if prev, dup := seen[got]; dup {
			t.Errorf("perturbations %s and %s collide", name, prev)
		}
		seen[got] = name
	}

	// Intervals cannot vary alone (Validate ties it to len(Lambdas)); check
	// the combined change moves the hash too, and differently from the
	// Lambdas-only perturbation.
	p := fpDeadlineProblem()
	p.Intervals = 5
	p.Lambdas = append(p.Lambdas, 90)
	got, err := p.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if got == base {
		t.Error("perturbing Intervals+Lambdas did not change the fingerprint")
	}
}

// TestFingerprintBudgetTradeoffPerturbations covers the other two kinds.
func TestFingerprintBudgetTradeoffPerturbations(t *testing.T) {
	bBase, err := fpBudgetProblem().Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(p *BudgetProblem){
		"N":        func(p *BudgetProblem) { p.N = 101 },
		"Budget":   func(p *BudgetProblem) { p.Budget = 2501 },
		"Accept":   func(p *BudgetProblem) { p.Accept = choice.Logistic{S: 14, B: -0.39, M: 2000} },
		"MinPrice": func(p *BudgetProblem) { p.MinPrice = 2 },
		"MaxPrice": func(p *BudgetProblem) { p.MaxPrice = 51 },
	} {
		p := fpBudgetProblem()
		mutate(p)
		got, err := p.Fingerprint()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got == bBase {
			t.Errorf("budget: perturbing %s did not change the fingerprint", name)
		}
	}

	tBase, err := fpTradeoffProblem().Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(p *TradeoffProblem){
		"N":        func(p *TradeoffProblem) { p.N = 51 },
		"Alpha":    func(p *TradeoffProblem) { p.Alpha = 11 },
		"Lambda":   func(p *TradeoffProblem) { p.Lambda = 201 },
		"Accept":   func(p *TradeoffProblem) { p.Accept = choice.Logistic{S: 15, B: -0.38, M: 2000} },
		"MinPrice": func(p *TradeoffProblem) { p.MinPrice = 2 },
		"MaxPrice": func(p *TradeoffProblem) { p.MaxPrice = 51 },
	} {
		p := fpTradeoffProblem()
		mutate(p)
		got, err := p.Fingerprint()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got == tBase {
			t.Errorf("tradeoff: perturbing %s did not change the fingerprint", name)
		}
	}
}

// TestFingerprintMultiPerturbations flips every policy-relevant field of
// the general-k problem one at a time and checks each flip moves the hash.
func TestFingerprintMultiPerturbations(t *testing.T) {
	base, err := fpMultiProblem().Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	perturbations := map[string]func(p *MultiProblem){
		"Counts":      func(p *MultiProblem) { p.Counts[1] = 5 },
		"CountsOrder": func(p *MultiProblem) { p.Counts = []int{4, 3} },
		"Lambdas":     func(p *MultiProblem) { p.Lambdas[0] = 41 },
		"Accepts": func(p *MultiProblem) {
			p.Accepts[1] = choice.Logistic{S: 13, B: -0.4, M: 1500}
		},
		"AcceptsOrder": func(p *MultiProblem) {
			p.Accepts[0], p.Accepts[1] = p.Accepts[1], p.Accepts[0]
		},
		"MinPrice": func(p *MultiProblem) { p.MinPrice = 2 },
		"MaxPrice": func(p *MultiProblem) { p.MaxPrice = 7 },
		"Penalty":  func(p *MultiProblem) { p.Penalty = 121 },
		"TruncEps": func(p *MultiProblem) { p.TruncEps = 1e-8 },
	}
	seen := map[string]string{}
	for name, mutate := range perturbations {
		p := fpMultiProblem()
		mutate(p)
		got, err := p.Fingerprint()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got == base {
			t.Errorf("perturbing %s did not change the fingerprint", name)
		}
		if prev, dup := seen[got]; dup {
			t.Errorf("perturbations %s and %s collide", name, prev)
		}
		seen[got] = name
	}

	// Intervals cannot vary alone (Validate ties it to len(Lambdas)).
	p := fpMultiProblem()
	p.Intervals = 4
	p.Lambdas = append(p.Lambdas, 70)
	got, err := p.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if got == base {
		t.Error("perturbing Intervals+Lambdas did not change the fingerprint")
	}

	// Invalid and non-parametric problems must not fingerprint.
	q := fpMultiProblem()
	q.Counts[0] = -1
	if _, err := q.Fingerprint(); err == nil {
		t.Error("expected error fingerprinting an invalid multi problem")
	}
	r := fpMultiProblem()
	r.Accepts[0] = customAccept{}
	if _, err := r.Fingerprint(); err == nil {
		t.Error("expected error fingerprinting a non-parametric acceptance curve")
	}
}

// TestFingerprintKindSeparation proves the domain tags keep problem kinds
// apart even when numeric fields coincide.
func TestFingerprintKindSeparation(t *testing.T) {
	b := &BudgetProblem{N: 10, Budget: 100, Accept: choice.Paper13, MinPrice: 1, MaxPrice: 50}
	tr := &TradeoffProblem{N: 10, Alpha: 100, Lambda: 1, Accept: choice.Paper13, MinPrice: 1, MaxPrice: 50}
	fb, err := b.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	ft, err := tr.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fb == ft {
		t.Errorf("budget and tradeoff problems collide: %s", fb)
	}
}

// TestFingerprintRejectsInvalid keeps malformed problems out of caches.
func TestFingerprintRejectsInvalid(t *testing.T) {
	p := fpDeadlineProblem()
	p.N = 0
	if _, err := p.Fingerprint(); err == nil {
		t.Error("expected error fingerprinting an invalid problem")
	}
	q := fpDeadlineProblem()
	q.Accept = customAccept{}
	if _, err := q.Fingerprint(); err == nil {
		t.Error("expected error fingerprinting a non-parametric acceptance curve")
	}
}

type customAccept struct{}

func (customAccept) Accept(int) float64 { return 0.5 }
