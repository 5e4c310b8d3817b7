package kinds

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"crowdpricing/internal/engine"
)

// TestDefaultRegistryOrder pins the canonical kind order every generic
// surface (routes, metrics, bench mixes) iterates in.
func TestDefaultRegistryOrder(t *testing.T) {
	want := []string{KindDeadline, KindBudget, KindTradeoff, KindMulti}
	if got := Default().Kinds(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Default().Kinds() = %v, want %v", got, want)
	}
	for _, kind := range want {
		def, ok := Default().Lookup(kind)
		if !ok {
			t.Fatalf("kind %q not registered", kind)
		}
		if def.New == nil || def.Sample == nil {
			t.Errorf("kind %q missing New or Sample", kind)
		}
		if spec := def.New(); spec.Kind() != kind {
			t.Errorf("New() for %q returns a spec of kind %q", kind, spec.Kind())
		}
	}
}

// TestSamplersDeterministicValidAndWireStable: every sampler is a pure
// function of (seed, size), produces a valid spec at every size, and the
// spec survives a JSON round trip through the registry's New constructor
// with its fingerprint intact — the property that makes bench-generated
// bodies hit the same server-side cache entries run after run.
func TestSamplersDeterministicValidAndWireStable(t *testing.T) {
	for _, kind := range Default().Kinds() {
		def, _ := Default().Lookup(kind)
		for _, size := range []string{"small", "medium", "paper", "bogus"} {
			a := def.Sample(42, size)
			b := def.Sample(42, size)
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s/%s: equal seeds produced different specs", kind, size)
			}
			if err := a.Validate(); err != nil {
				t.Errorf("%s/%s: sampled spec invalid: %v", kind, size, err)
				continue
			}
			fa, err := a.Fingerprint()
			if err != nil {
				t.Errorf("%s/%s: %v", kind, size, err)
				continue
			}
			fb, _ := b.Fingerprint()
			if fa != fb {
				t.Errorf("%s/%s: equal specs fingerprint differently", kind, size)
			}
			fc, err := def.Sample(43, size).Fingerprint()
			if err != nil {
				t.Errorf("%s/%s seed 43: %v", kind, size, err)
			} else if fc == fa {
				t.Errorf("%s/%s: different seeds collide on one fingerprint", kind, size)
			}

			wire, err := json.Marshal(a)
			if err != nil {
				t.Fatalf("%s/%s: marshal: %v", kind, size, err)
			}
			back := def.New()
			if err := json.Unmarshal(wire, back); err != nil {
				t.Fatalf("%s/%s: unmarshal: %v", kind, size, err)
			}
			fBack, err := back.Fingerprint()
			if err != nil {
				t.Fatalf("%s/%s: round-tripped spec: %v", kind, size, err)
			}
			if fBack != fa {
				t.Errorf("%s/%s: fingerprint changed across the wire: %s vs %s", kind, size, fBack, fa)
			}
		}
	}
}

// TestFingerprintVariantInKey: the solver variant prefixes the cache key,
// so hull and exact budget artifacts (which may legitimately differ) never
// share a cache slot, and unknown variants are validation errors.
func TestFingerprintVariantInKey(t *testing.T) {
	hull := sampleBudget(1, "small").(*BudgetRequest)
	exact := *hull
	exact.Method = BudgetMethodExact
	fh, err := hull.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	fe, err := exact.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(fh, "budget/hull:") || !strings.HasPrefix(fe, "budget/exact:") {
		t.Errorf("variant missing from keys %q / %q", fh, fe)
	}
	if strings.TrimPrefix(fh, "budget/hull:") != strings.TrimPrefix(fe, "budget/exact:") {
		t.Error("same problem should share its content hash across variants")
	}
	bad := *hull
	bad.Method = "magic"
	if err := bad.Validate(); err == nil {
		t.Error("unknown budget method validated")
	}
	if _, err := bad.Fingerprint(); err == nil {
		t.Error("unknown budget method fingerprinted")
	}

	badForm := sampleTradeoff(1, "small").(*TradeoffRequest)
	badForm.Formulation = "magic"
	if err := badForm.Validate(); err == nil {
		t.Error("unknown tradeoff formulation validated")
	}
}

// TestServiceLimits walks every checkLimits branch of the four kinds
// (the arrival limit has TestArrivalLimit): each oversized request fails
// Validate and Fingerprint with that branch's service-limit error, so no
// request reaches a solver or a cache key that would allocate past it.
func TestServiceLimits(t *testing.T) {
	deadline := func(edit func(*DeadlineRequest)) engine.Spec {
		r := sampleDeadline(1, "small").(*DeadlineRequest)
		edit(r)
		return r
	}
	budget := func(edit func(*BudgetRequest)) engine.Spec {
		r := sampleBudget(1, "small").(*BudgetRequest)
		edit(r)
		return r
	}
	tradeoff := func(edit func(*TradeoffRequest)) engine.Spec {
		r := sampleTradeoff(1, "small").(*TradeoffRequest)
		edit(r)
		return r
	}
	multi := func(edit func(*MultiRequest)) engine.Spec {
		r := sampleMulti(1, "small").(*MultiRequest)
		edit(r)
		return r
	}
	wide := func(lo, hi *int) { *hi = *lo + MaxPriceRange + 1 }
	for _, c := range []struct {
		name string
		spec engine.Spec
		want string // the branch's error text
	}{
		{"deadline n", deadline(func(r *DeadlineRequest) { r.N = MaxTasks + 1 }), "n 10001 exceeds"},
		{"deadline intervals", deadline(func(r *DeadlineRequest) { r.Intervals = MaxIntervals + 1 }), "intervals 10001 exceeds"},
		{"deadline n×intervals", deadline(func(r *DeadlineRequest) { r.N, r.Intervals = 1001, 1000 }), "n×intervals 1001000 exceeds"},
		{"deadline price range", deadline(func(r *DeadlineRequest) { wide(&r.MinPrice, &r.MaxPrice) }), "price range 1001 exceeds"},
		{"budget n", budget(func(r *BudgetRequest) { r.N = MaxTasks + 1 }), "n 10001 exceeds"},
		{"budget budget", budget(func(r *BudgetRequest) { r.Budget = MaxBudget + 1 }), "budget 1000001 exceeds"},
		{"budget price range", budget(func(r *BudgetRequest) { wide(&r.MinPrice, &r.MaxPrice) }), "price range 1001 exceeds"},
		{"budget exact n", budget(func(r *BudgetRequest) { r.Method, r.N = BudgetMethodExact, MaxExactTasks+1 }), `n 501 exceeds the service limit 500 for method "exact"`},
		{"budget exact budget", budget(func(r *BudgetRequest) { r.Method, r.Budget = BudgetMethodExact, MaxExactBudget+1 }), `budget 50001 exceeds the service limit 50000 for method "exact"`},
		{"tradeoff n", tradeoff(func(r *TradeoffRequest) { r.N = MaxTasks + 1 }), "n 10001 exceeds"},
		{"tradeoff price range", tradeoff(func(r *TradeoffRequest) { wide(&r.MinPrice, &r.MaxPrice) }), "price range 1001 exceeds"},
		{"multi types", multi(func(r *MultiRequest) { r.Counts = []int{1, 1, 1, 1, 1} }), "5 task types exceeds"},
		{"multi count", multi(func(r *MultiRequest) { r.Counts = []int{MaxTasks + 1} }), "count 10001 exceeds"},
		{"multi states", multi(func(r *MultiRequest) { r.Counts = []int{99, 99, 99} }), "joint state space exceeds"},
		{"multi intervals", multi(func(r *MultiRequest) { r.Intervals = MaxIntervals + 1 }), "intervals 10001 exceeds"},
		{"multi states×intervals", multi(func(r *MultiRequest) { r.Counts, r.Intervals = []int{99, 99}, 101 }), "states×intervals 1010000 exceeds"},
		{"multi price range", multi(func(r *MultiRequest) { wide(&r.MinPrice, &r.MaxPrice) }), "price range 1001 exceeds"},
	} {
		_, fpErr := c.spec.Fingerprint()
		for _, err := range []error{c.spec.Validate(), fpErr} {
			if err == nil || !strings.Contains(err.Error(), "service limit") || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s: error %v, want the service limit %q", c.name, err, c.want)
			}
		}
	}
}

// TestArrivalLimit: a λ_t of exactly MaxArrivals is served, and one above
// it, infinite or NaN fails Validate and Fingerprint for both kinds that
// take per-interval arrivals.
func TestArrivalLimit(t *testing.T) {
	for _, l := range []float64{MaxArrivals, math.Nextafter(MaxArrivals, math.Inf(1)), math.Inf(1), math.NaN()} {
		dl := sampleDeadline(1, "small").(*DeadlineRequest)
		mu := sampleMulti(1, "small").(*MultiRequest)
		dl.Lambdas[0], mu.Lambdas[0] = l, l
		for _, spec := range []engine.Spec{dl, mu} {
			_, fpErr := spec.Fingerprint()
			for _, err := range []error{spec.Validate(), fpErr} {
				if l == MaxArrivals && err != nil {
					t.Errorf("%T λ=%g: %v", spec, l, err)
				}
				if l != MaxArrivals && (err == nil || !strings.Contains(err.Error(), "service limit")) {
					t.Errorf("%T λ=%g: error %v, want the service limit", spec, l, err)
				}
			}
		}
	}
}

// TestTradeoffRejectsNonFinite: a NaN or infinite latency weight or
// arrival rate fails the core problem's Validate and the request's
// Validate and Fingerprint, instead of validating and failing in the
// solve.
func TestTradeoffRejectsNonFinite(t *testing.T) {
	for _, field := range []string{"alpha", "lambda"} {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			r := sampleTradeoff(1, "small").(*TradeoffRequest)
			if field == "alpha" {
				r.Alpha = v
			} else {
				r.Lambda = v
			}
			_, fpErr := r.Fingerprint()
			for name, err := range map[string]error{"core Validate": r.problem().Validate(), "Validate": r.Validate(), "Fingerprint": fpErr} {
				if err == nil {
					t.Errorf("%s %g: %s accepted it", field, v, name)
				}
			}
		}
	}
}

// TestSolveSmallAllKinds runs every kind's solver once at the small scale:
// each produces a non-empty JSON artifact, deterministically (the bytes are
// the cache contract).
func TestSolveSmallAllKinds(t *testing.T) {
	for _, kind := range Default().Kinds() {
		def, _ := Default().Lookup(kind)
		spec := def.Sample(11, "small")
		raw, err := spec.Solve(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if !json.Valid(raw) || len(raw) < 3 {
			t.Fatalf("%s: implausible artifact %.60q", kind, raw)
		}
		again, err := def.Sample(11, "small").Solve(context.Background())
		if err != nil {
			t.Fatalf("%s again: %v", kind, err)
		}
		if string(raw) != string(again) {
			t.Errorf("%s: repeated solve produced different bytes", kind)
		}
	}
}

// TestDeadlineArtifactIsMarshaledPolicy: the deadline artifact, which Solve
// takes from the policy's MarshalJSON directly, is byte-identical to
// json.Marshal of the same solved policy — the bytes the cache and every
// response carried when Solve went through json.Marshal.
func TestDeadlineArtifactIsMarshaledPolicy(t *testing.T) {
	for _, size := range []string{"small", "paper"} {
		req := sampleDeadline(42, size).(*DeadlineRequest)
		raw, err := req.Solve(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", size, err)
		}
		pol, err := req.problem().SolveEfficient()
		if err != nil {
			t.Fatalf("%s: %v", size, err)
		}
		want, err := json.Marshal(pol)
		if err != nil {
			t.Fatalf("%s: %v", size, err)
		}
		if !bytes.Equal(raw, want) {
			t.Errorf("%s: Solve returned %d bytes that differ from json.Marshal's %d", size, len(raw), len(want))
		}
	}
}

// TestMultiSolveDecodes runs the joint DP end to end at the small scale and
// checks the wire artifact's invariants.
func TestMultiSolveDecodes(t *testing.T) {
	spec := sampleMulti(7, "small").(*MultiRequest)
	raw, err := spec.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var sched MultiSchedule
	if err := json.Unmarshal(raw, &sched); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sched.Counts, spec.Counts) || sched.Intervals != spec.Intervals {
		t.Errorf("schedule shape %v/%d, want %v/%d", sched.Counts, sched.Intervals, spec.Counts, spec.Intervals)
	}
	if len(sched.Prices) != spec.Intervals {
		t.Fatalf("prices have %d interval rows, want %d", len(sched.Prices), spec.Intervals)
	}
	states := 1
	for _, n := range spec.Counts {
		states *= n + 1
	}
	for t0, row := range sched.Prices {
		if len(row) != states {
			t.Fatalf("interval %d has %d states, want %d", t0, len(row), states)
		}
		for s, vec := range row {
			if len(vec) != len(spec.Counts) {
				t.Fatalf("state %d price vector has %d entries, want %d", s, len(vec), len(spec.Counts))
			}
			for _, c := range vec {
				if c < spec.MinPrice || c > spec.MaxPrice {
					t.Fatalf("price %d outside [%d, %d]", c, spec.MinPrice, spec.MaxPrice)
				}
			}
		}
	}
	if sched.Value <= 0 {
		t.Errorf("expected objective %v not positive", sched.Value)
	}
	// Solving twice yields byte-identical artifacts (the cache contract).
	again, err := spec.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != string(again) {
		t.Error("repeated solve produced different bytes")
	}
}
