package campaign

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"crowdpricing/internal/choice"
	"crowdpricing/internal/core"
	"crowdpricing/internal/kinds"
)

// solveArtifact solves one sampled problem of kind and returns the request
// and its artifact, the bytes the engine caches and serves.
func solveArtifact(t *testing.T, kind string, seed int64, size string) (json.RawMessage, []byte) {
	t.Helper()
	def, ok := kinds.Default().Lookup(kind)
	if !ok {
		t.Fatalf("kind %q not registered", kind)
	}
	spec := def.Sample(seed, size)
	req, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	artifact, err := spec.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return req, artifact
}

// truth is what core says a policy table must hold.
type truth struct {
	counts  []int // the initial (maximum) count vector
	rows    int   // interval rows; a stationary policy has one
	horizon int
	prices  func(counts []int, t int) []int
}

// TestPriceTableMatchesCore: the one table decoded from each kind's
// artifact quotes what core's accessors say on every state, one step past
// each edge included: t from −1 to the last row + 1 and each count from −1
// to its maximum + 1. The deadline table must match DeadlinePolicy.PriceAt
// (its idle price at n ≤ 0 included), the multi table MultiPolicy.PricesAt,
// and the tradeoff table the schedule's clamped Price[n] at any t. Horizon
// and the initial counts must match too.
func TestPriceTableMatchesCore(t *testing.T) {
	cases := []struct {
		name, kind string
		seed       int64
		size       string
		truth      func(t *testing.T, req json.RawMessage, artifact []byte) truth
	}{
		{"deadline small", kinds.KindDeadline, 7, "small", deadlineTruth},
		{"deadline paper", kinds.KindDeadline, 1, "paper", deadlineTruth},
		{"tradeoff", kinds.KindTradeoff, 3, "medium", func(t *testing.T, _ json.RawMessage, artifact []byte) truth {
			var sched kinds.TradeoffSchedule
			if err := json.Unmarshal(artifact, &sched); err != nil {
				t.Fatal(err)
			}
			last := len(sched.Price) - 1
			return truth{[]int{last}, 1, 0, func(counts []int, _ int) []int {
				return []int{sched.Price[min(max(counts[0], 0), last)]}
			}}
		}},
		{"multi medium", kinds.KindMulti, 5, "medium", func(t *testing.T, req json.RawMessage, _ []byte) truth {
			var wire kinds.MultiRequest
			if err := json.Unmarshal(req, &wire); err != nil {
				t.Fatal(err)
			}
			prob := core.MultiProblem{
				Counts:    wire.Counts,
				Intervals: wire.Intervals,
				Lambdas:   wire.Lambdas,
				MinPrice:  wire.MinPrice,
				MaxPrice:  wire.MaxPrice,
				Penalty:   wire.Penalty,
				TruncEps:  wire.TruncEps,
			}
			for _, a := range wire.Accepts {
				prob.Accepts = append(prob.Accepts, choice.Logistic{S: a.S, B: a.B, M: a.M})
			}
			pol, err := prob.Solve()
			if err != nil {
				t.Fatal(err)
			}
			return truth{wire.Counts, wire.Intervals, wire.Intervals, pol.PricesAt}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			req, artifact := solveArtifact(t, c.kind, c.seed, c.size)
			want := c.truth(t, req, artifact)
			tab, err := decodeTable(c.kind, artifact)
			if err != nil {
				t.Fatal(err)
			}
			if tab.horizon != want.horizon || !reflect.DeepEqual(tab.counts, want.counts) {
				t.Fatalf("table horizon %d, counts %v; want %d, %v", tab.horizon, tab.counts, want.horizon, want.counts)
			}
			states, buf := 0, []int(nil)
			counts := make([]int, len(want.counts))
			for tt := -1; tt <= want.rows; tt++ {
				// Odometer over every count vector in [−1, max+1]^k.
				for i := range counts {
					counts[i] = -1
				}
				for {
					buf = tab.appendQuote(buf[:0], counts, tt)
					if w := want.prices(counts, tt); !reflect.DeepEqual(buf, w) {
						t.Fatalf("t=%d counts %v: table quotes %v, core says %v", tt, counts, buf, w)
					}
					states++
					i := len(counts) - 1
					for ; i >= 0 && counts[i] == want.counts[i]+1; i-- {
						counts[i] = -1
					}
					if i < 0 {
						break
					}
					counts[i]++
				}
			}
			t.Logf("%d states checked", states)
		})
	}
}

// deadlineTruth reads the core deadline policy back from its artifact.
func deadlineTruth(t *testing.T, _ json.RawMessage, artifact []byte) truth {
	var pol core.DeadlinePolicy
	if err := json.Unmarshal(artifact, &pol); err != nil {
		t.Fatal(err)
	}
	p := pol.Problem
	return truth{[]int{p.N}, p.Intervals, p.Intervals, func(counts []int, tt int) []int {
		return []int{pol.PriceAt(counts[0], tt)}
	}}
}

// TestDeadlineTableIdlePrice: with nothing left the table quotes PriceAt's
// idle price, MinPrice, even from a policy whose stored n = 0 cells hold
// another price. The solver writes MinPrice there; a policy file loaded
// from elsewhere need not.
func TestDeadlineTableIdlePrice(t *testing.T) {
	_, artifact := solveArtifact(t, kinds.KindDeadline, 7, "small")
	var pol core.DeadlinePolicy
	if err := json.Unmarshal(artifact, &pol); err != nil {
		t.Fatal(err)
	}
	for _, row := range pol.Price {
		row[0] = pol.Problem.MaxPrice
	}
	edited, err := pol.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	tab, err := decodeTable(kinds.KindDeadline, edited)
	if err != nil {
		t.Fatal(err)
	}
	for tt := 0; tt < pol.Problem.Intervals; tt++ {
		for _, n := range []int{-1, 0} {
			if got := tab.appendQuote(nil, []int{n}, tt); got[0] != pol.PriceAt(n, tt) || got[0] != pol.Problem.MinPrice {
				t.Fatalf("t=%d n=%d: table quotes %d, PriceAt says %d", tt, n, got[0], pol.PriceAt(n, tt))
			}
		}
	}
}
