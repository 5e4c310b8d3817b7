package campaign

import (
	"context"
	"encoding/json"
	"testing"

	"crowdpricing/internal/dist"
	"crowdpricing/internal/kinds"
	"crowdpricing/internal/sim"
)

// TestCampaignFollowsSimulator drives adaptive campaigns through
// sim.RunAdaptiveDeadline's world with the simulator's own draws: per
// interval the Poisson arrivals, then, while tasks remain, the quote and a
// Binomial completion count, then the observe. Both sides seed one
// dist.RNG alike, so every quote the campaign serves must be the price the
// simulator's controller picks, or the draws part and the trial ends
// elsewhere. Every trial must end on the simulator's remaining count and
// cost. The world (1.9× hot for the first half, 0.55× after) must make the
// campaigns re-plan onto policies that quote other prices than the trained
// one, so the test cannot pass on static behaviour.
func TestCampaignFollowsSimulator(t *testing.T) {
	const (
		trials = 25
		window = 3
	)
	m := newTestManager(t, Options{})
	for _, seed := range []int64{3, 11, 29} {
		var wire kinds.DeadlineRequest
		if err := json.Unmarshal(sampleRequest(t, kinds.KindDeadline, seed, "small"), &wire); err != nil {
			t.Fatal(err)
		}
		// The sampled curves accept about 1% of workers, so every policy
		// of the bank quotes MaxPrice in every state and no re-plan could
		// move a price. A market 100× less crowded makes the prices depend
		// on the state and on the factor.
		wire.Accept.M /= 100
		req, err := json.Marshal(&wire)
		if err != nil {
			t.Fatal(err)
		}
		trained := solvePolicy(t, req)
		prob := trained.Problem
		bank, err := sim.NewAdaptivePolicyBank(prob, sim.AdaptiveConfig{Factors: defaultFactors(), WindowIntervals: window})
		if err != nil {
			t.Fatal(err)
		}
		world := sim.World{Lambdas: make([]float64, prob.Intervals), Accept: prob.Accept}
		for i, l := range prob.Lambdas {
			world.Lambdas[i] = 0.55 * l
			if i < prob.Intervals/2 {
				world.Lambdas[i] = 1.9 * l
			}
		}
		want, err := sim.RunAdaptiveDeadline(bank, world, trials, dist.NewRNG(seed))
		if err != nil {
			t.Fatal(err)
		}

		r := dist.NewRNG(seed)
		var replans, moved int64
		for trial := 0; trial < trials; trial++ {
			st, err := m.Create(context.Background(), kinds.KindDeadline, req, &AdaptiveOptions{WindowIntervals: window})
			if err != nil {
				t.Fatal(err)
			}
			n, cost := prob.N, 0.0
			for tt := 0; tt < prob.Intervals; tt++ {
				arrivals := dist.Poisson{Lambda: world.Lambdas[tt]}.Sample(r)
				done := 0
				if n > 0 {
					q, err := m.Quote(st.ID)
					if err != nil {
						t.Fatal(err)
					}
					if q.Price != trained.PriceAt(n, tt) {
						moved++
					}
					done = min(dist.Binomial{N: arrivals, P: world.Accept.Accept(q.Price)}.Sample(r), n)
					cost += float64(done * q.Price)
					n -= done
				}
				if _, err := m.Observe(st.ID, float64(arrivals), []int{done}); err != nil {
					t.Fatal(err)
				}
			}
			sum, err := m.Finish(st.ID)
			if err != nil {
				t.Fatal(err)
			}
			if sum.Remaining[0] != want.Remaining[trial] || cost != want.Costs[trial] {
				t.Fatalf("seed %d trial %d: campaign ended at %d remaining, cost %v; the simulator at %d, %v",
					seed, trial, sum.Remaining[0], cost, want.Remaining[trial], want.Costs[trial])
			}
			replans += sum.Replans
		}
		if replans == 0 || moved == 0 {
			t.Fatalf("seed %d: %d re-plans moved %d quotes off the trained policy; the test exercises only static behaviour",
				seed, replans, moved)
		}
		t.Logf("seed %d: %d trials, %d re-plans, %d quotes off the trained policy", seed, trials, replans, moved)
	}
}

// TestAdaptiveHugeEstimate: a scale estimate float64 cannot tell apart
// from any grid factor (1e20, every |f − x| the same float64) or cannot
// hold at all (+Inf) still follows the top factor, and the campaign's
// state and snapshot still encode. Both come from valid requests: λ_t =
// 1e-16 and 1e-310 per interval, then one observe. Before the shared
// rules clamped and capped, both campaigns followed factor 0.5, and the
// +Inf estimate made every state and snapshot fail to encode.
func TestAdaptiveHugeEstimate(t *testing.T) {
	for _, c := range []struct {
		lambda, arrivals float64
	}{
		{1e-16, 10_000},
		{1e-310, 1},
	} {
		m := newTestManager(t, Options{})
		var wire kinds.DeadlineRequest
		if err := json.Unmarshal(sampleRequest(t, kinds.KindDeadline, 5, "small"), &wire); err != nil {
			t.Fatal(err)
		}
		for i := range wire.Lambdas {
			wire.Lambdas[i] = c.lambda
		}
		req, err := json.Marshal(&wire)
		if err != nil {
			t.Fatal(err)
		}
		st, err := m.Create(context.Background(), kinds.KindDeadline, req, &AdaptiveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		after, err := m.Observe(st.ID, c.arrivals, nil)
		if err != nil {
			t.Fatal(err)
		}
		if top := defaultFactors()[len(defaultFactors())-1]; after.ActiveFactor != top {
			t.Errorf("λ_t %g, %g arrivals: estimate %g follows factor %v, want %v",
				c.lambda, c.arrivals, after.Factor, after.ActiveFactor, top)
		}
		if _, err := json.Marshal(after); err != nil {
			t.Errorf("λ_t %g: state does not encode: %v", c.lambda, err)
		}
		if _, err := m.snapshotPayload(); err != nil {
			t.Errorf("λ_t %g: snapshot does not encode: %v", c.lambda, err)
		}
	}
}
