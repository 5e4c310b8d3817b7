package core_test

import (
	"bytes"
	"testing"

	"crowdpricing/internal/choice"
	"crowdpricing/internal/core"
	"crowdpricing/internal/kinds"
)

// TestMarshalJSONMatchesEncoderOnSamples solves the service's deadline
// sampler at every size and requires MarshalJSON to write exactly
// json.Marshal(policyJSON)'s bytes, in a slice with no spare capacity.
func TestMarshalJSONMatchesEncoderOnSamples(t *testing.T) {
	def, ok := kinds.Default().Lookup(kinds.KindDeadline)
	if !ok {
		t.Fatal("deadline kind not registered")
	}
	for _, size := range []string{"small", "medium", "paper"} {
		for seed := int64(1); seed <= 4; seed++ {
			r := def.Sample(seed, size).(*kinds.DeadlineRequest)
			p := &core.DeadlineProblem{
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
			pol, err := p.SolveEfficient()
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
