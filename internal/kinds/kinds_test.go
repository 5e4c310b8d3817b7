package kinds

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
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

// TestServiceLimits: oversized problems fail Validate and Fingerprint for
// every kind, so the engine rejects them before any solver work.
func TestServiceLimits(t *testing.T) {
	dl := sampleDeadline(1, "small").(*DeadlineRequest)
	dl.N = MaxTasks + 1
	if err := dl.Validate(); err == nil || !strings.Contains(err.Error(), "service limit") {
		t.Errorf("oversized deadline N validated: %v", err)
	}
	bu := sampleBudget(1, "small").(*BudgetRequest)
	bu.Budget = MaxBudget + 1
	if err := bu.Validate(); err == nil || !strings.Contains(err.Error(), "service limit") {
		t.Errorf("oversized budget validated: %v", err)
	}
	to := sampleTradeoff(1, "small").(*TradeoffRequest)
	to.MaxPrice = to.MinPrice + MaxPriceRange + 1
	if err := to.Validate(); err == nil || !strings.Contains(err.Error(), "service limit") {
		t.Errorf("oversized tradeoff price range validated: %v", err)
	}
	mu := sampleMulti(1, "small").(*MultiRequest)
	mu.Counts = []int{99, 99, 99}
	if err := mu.Validate(); err == nil || !strings.Contains(err.Error(), "service limit") {
		t.Errorf("oversized multi state space validated: %v", err)
	}
	mu2 := sampleMulti(1, "small").(*MultiRequest)
	mu2.Counts = []int{1, 1, 1, 1, 1}
	if err := mu2.Validate(); err == nil || !strings.Contains(err.Error(), "service limit") {
		t.Errorf("too many multi types validated: %v", err)
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
