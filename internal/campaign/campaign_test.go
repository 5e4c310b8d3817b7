package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"crowdpricing/internal/choice"
	"crowdpricing/internal/core"
	"crowdpricing/internal/engine"
	"crowdpricing/internal/kinds"
	"crowdpricing/internal/sim"
	"crowdpricing/internal/wal"
)

// newTestManager builds a Manager over a real engine.
func newTestManager(t testing.TB, opts Options) *Manager {
	t.Helper()
	eng := engine.New(engine.Options{Workers: 2})
	t.Cleanup(eng.Close)
	m := NewManager(eng, nil, opts)
	t.Cleanup(m.Close)
	return m
}

// sampleRequest draws the registry's deterministic workload sampler for
// kind and returns the spec's wire JSON — the same bodies the bench
// harness and the HTTP API use.
func sampleRequest(t testing.TB, kind string, seed int64, size string) json.RawMessage {
	t.Helper()
	def, ok := kinds.Default().Lookup(kind)
	if !ok {
		t.Fatalf("kind %q not registered", kind)
	}
	body, err := json.Marshal(def.Sample(seed, size))
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// solvePolicy solves the same request directly (no campaign machinery) and
// returns the deadline policy table — ground truth for quote assertions.
func solvePolicy(t testing.TB, request json.RawMessage) *core.DeadlinePolicy {
	t.Helper()
	var req kinds.DeadlineRequest
	if err := json.Unmarshal(request, &req); err != nil {
		t.Fatal(err)
	}
	artifact, err := req.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var pol core.DeadlinePolicy
	if err := json.Unmarshal(artifact, &pol); err != nil {
		t.Fatal(err)
	}
	return &pol
}

// TestDeadlineLifecycle walks a full campaign and checks every quote
// against the solved policy table exactly: the campaign must be a faithful
// online replay of the DP, never an approximation of it.
func TestDeadlineLifecycle(t *testing.T) {
	m := newTestManager(t, Options{})
	req := sampleRequest(t, kinds.KindDeadline, 7, "small")
	pol := solvePolicy(t, req)

	st, err := m.Create(context.Background(), kinds.KindDeadline, req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Remaining[0] != pol.Problem.N || st.Interval != 0 || st.Horizon != pol.Problem.Intervals {
		t.Fatalf("fresh state %+v does not match problem N=%d T=%d", st, pol.Problem.N, pol.Problem.Intervals)
	}
	if st.Done {
		t.Fatal("fresh campaign reports done")
	}

	n := pol.Problem.N
	for tt := 0; tt < pol.Problem.Intervals; tt++ {
		q, err := m.Quote(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if want := pol.PriceAt(n, tt); q.Price != want {
			t.Fatalf("interval %d, %d remaining: quoted %d, policy table says %d", tt, n, q.Price, want)
		}
		if q.Interval != tt || q.Remaining[0] != n {
			t.Fatalf("quote echoes state (%d, %v), campaign is at (%d, %d)", q.Interval, q.Remaining, tt, n)
		}
		// The world completes two tasks per interval until none remain.
		done := 2
		if done > n {
			done = n
		}
		if _, err := m.Observe(st.ID, 10, []int{done}); err != nil {
			t.Fatal(err)
		}
		n -= done
	}

	sum, err := m.Finish(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Intervals != pol.Problem.Intervals || sum.Quotes != int64(pol.Problem.Intervals) {
		t.Fatalf("summary %+v, want %d intervals and quotes", sum, pol.Problem.Intervals)
	}
	if _, err := m.Quote(st.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("quote after finish: err=%v, want ErrNotFound", err)
	}
}

// TestTradeoffCampaign checks the stationary kind: price depends on
// remaining count only, and the horizon reports 0.
func TestTradeoffCampaign(t *testing.T) {
	m := newTestManager(t, Options{})
	req := sampleRequest(t, kinds.KindTradeoff, 3, "small")
	var wire kinds.TradeoffRequest
	if err := json.Unmarshal(req, &wire); err != nil {
		t.Fatal(err)
	}
	artifact, err := wire.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var sched kinds.TradeoffSchedule
	if err := json.Unmarshal(artifact, &sched); err != nil {
		t.Fatal(err)
	}

	st, err := m.Create(context.Background(), kinds.KindTradeoff, req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Horizon != 0 {
		t.Fatalf("stationary policy reports horizon %d, want 0", st.Horizon)
	}
	n := st.Remaining[0]
	for step := 0; n > 0 && step < 100; step++ {
		q, err := m.Quote(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if want := sched.Price[n]; q.Price != want {
			t.Fatalf("%d remaining: quoted %d, schedule says %d", n, q.Price, want)
		}
		if _, err := m.Observe(st.ID, 5, []int{1}); err != nil {
			t.Fatal(err)
		}
		n--
	}
	if n != 0 {
		t.Fatalf("campaign never drained (n=%d)", n)
	}
}

// TestMultiCampaign checks the general-k kind against the core joint
// policy: vector states, vector quotes.
func TestMultiCampaign(t *testing.T) {
	m := newTestManager(t, Options{})
	req := sampleRequest(t, kinds.KindMulti, 5, "small")
	var wire kinds.MultiRequest
	if err := json.Unmarshal(req, &wire); err != nil {
		t.Fatal(err)
	}
	// Ground truth straight from the core joint DP.
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

	st, err := m.Create(context.Background(), kinds.KindMulti, req, nil)
	if err != nil {
		t.Fatal(err)
	}
	remaining := append([]int(nil), wire.Counts...)
	for tt := 0; tt < wire.Intervals; tt++ {
		q, err := m.Quote(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		want := pol.PricesAt(remaining, tt)
		if len(q.Prices) != len(want) {
			t.Fatalf("quote has %d prices, want %d", len(q.Prices), len(want))
		}
		for i := range want {
			if q.Prices[i] != want[i] {
				t.Fatalf("interval %d state %v: quoted %v, policy says %v", tt, remaining, q.Prices, want)
			}
		}
		completed := make([]int, len(remaining))
		if remaining[0] > 0 {
			completed[0] = 1
			remaining[0]--
		}
		if _, err := m.Observe(st.ID, 8, completed); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBudgetRejected: budget strategies are static allocations — no
// sequential table, no campaign.
func TestBudgetRejected(t *testing.T) {
	m := newTestManager(t, Options{})
	req := sampleRequest(t, kinds.KindBudget, 1, "small")
	if _, err := m.Create(context.Background(), kinds.KindBudget, req, nil); !errors.Is(err, ErrUnsupportedKind) {
		t.Fatalf("budget create: err=%v, want ErrUnsupportedKind", err)
	}
	if _, err := m.Create(context.Background(), "nope", req, nil); !errors.Is(err, ErrUnsupportedKind) {
		t.Fatalf("unknown kind create: err=%v, want ErrUnsupportedKind", err)
	}
}

// TestObserveValidation: malformed observations are the caller's fault and
// must not corrupt state.
func TestObserveValidation(t *testing.T) {
	m := newTestManager(t, Options{})
	st, err := m.Create(context.Background(), kinds.KindDeadline, sampleRequest(t, kinds.KindDeadline, 1, "small"), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []struct {
		arrivals  float64
		completed []int
	}{
		{-1, nil},
		{5, []int{-2}},
		{5, []int{1, 2}}, // wrong arity for a one-type campaign
	} {
		if _, err := m.Observe(st.ID, bad.arrivals, bad.completed); !errors.Is(err, ErrBadInput) {
			t.Fatalf("Observe(%v, %v): err=%v, want ErrBadInput", bad.arrivals, bad.completed, err)
		}
	}
	after, err := m.State(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if after.Interval != 0 || after.Remaining[0] != st.Remaining[0] {
		t.Fatalf("failed observes mutated state: %+v", after)
	}

	// A partially valid multi vector must be rejected atomically: the
	// valid leading entries may not be applied before the bad one is hit.
	multi, err := m.Create(context.Background(), kinds.KindMulti, sampleRequest(t, kinds.KindMulti, 2, "small"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Observe(multi.ID, 5, []int{1, -1}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("Observe([1,-1]): err=%v, want ErrBadInput", err)
	}
	got, err := m.State(multi.ID)
	if err != nil {
		t.Fatal(err)
	}
	for i := range multi.Remaining {
		if got.Remaining[i] != multi.Remaining[i] {
			t.Fatalf("rejected observe partially applied: remaining %v, want %v", got.Remaining, multi.Remaining)
		}
	}
	if got.Interval != 0 {
		t.Fatalf("rejected observe advanced the interval to %d", got.Interval)
	}
}

// thinMarketRequest is the sampled small deadline request for seed with
// the acceptance curve's market mass divided by 100. The sampled curves
// accept about 1% of workers, so the 0.5×, 1× and 1.5× policies quote
// MaxPrice wherever a task is left (seeds 3, 11, 23 and 29); in the
// thinner market the prices depend on the state and on the factor, so a
// test can tell the policies apart.
func thinMarketRequest(t testing.TB, seed int64) (json.RawMessage, kinds.DeadlineRequest) {
	t.Helper()
	var wire kinds.DeadlineRequest
	if err := json.Unmarshal(sampleRequest(t, kinds.KindDeadline, seed, "small"), &wire); err != nil {
		t.Fatal(err)
	}
	wire.Accept.M /= 100
	req, err := json.Marshal(&wire)
	if err != nil {
		t.Fatal(err)
	}
	return req, wire
}

// TestAdaptiveReplan drives an adaptive campaign with arrivals double the
// trained profile and checks it switches to a higher-factor policy whose
// prices differ from the static plan — the §5.2.5 behavior, online.
func TestAdaptiveReplan(t *testing.T) {
	m := newTestManager(t, Options{})
	req, wire := thinMarketRequest(t, 11)

	st, err := m.Create(context.Background(), kinds.KindDeadline, req, &AdaptiveOptions{WindowIntervals: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Adaptive || st.ActiveFactor != 1.0 {
		t.Fatalf("fresh adaptive campaign %+v, want active factor 1.0", st)
	}

	// Double the expected arrivals for three intervals: the trailing-window
	// estimate approaches 2, beyond the 1.5 grid edge. Four completions an
	// interval leave four tasks, a state where the factors' prices differ.
	var last *State
	for tt := 0; tt < 3; tt++ {
		last, err = m.Observe(st.ID, 2*wire.Lambdas[tt], []int{4})
		if err != nil {
			t.Fatal(err)
		}
	}
	if last.ActiveFactor != 1.5 {
		t.Fatalf("after 2× arrivals the campaign follows factor %v, want the 1.5 grid edge", last.ActiveFactor)
	}
	if last.Replans == 0 {
		t.Fatal("no replans counted despite a factor switch")
	}
	if last.Factor < 1.8 || last.Factor > 2.2 {
		t.Fatalf("scale estimate %v, want ≈2", last.Factor)
	}

	// The quoted price must match the *scaled* problem's policy, not the
	// base one: solve the 1.5× problem independently and compare.
	scaled := wire
	scaled.Lambdas = make([]float64, len(wire.Lambdas))
	for i, l := range wire.Lambdas {
		scaled.Lambdas[i] = 1.5 * l
	}
	scaledJSON, err := json.Marshal(&scaled)
	if err != nil {
		t.Fatal(err)
	}
	pol := solvePolicy(t, scaledJSON)
	q, err := m.Quote(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	want := pol.PriceAt(q.Remaining[0], q.Interval)
	if q.Price != want {
		t.Fatalf("adaptive quote %d, 1.5×-policy table says %d", q.Price, want)
	}
	if static := solvePolicy(t, req).PriceAt(q.Remaining[0], q.Interval); static == want {
		t.Fatalf("the 1.5× and 1.0× policies both quote %d at the quoted state; the check cannot tell them apart", want)
	}
	if q.ActiveFactor != 1.5 {
		t.Fatalf("quote reports factor %v, want 1.5", q.ActiveFactor)
	}
}

// TestAdaptivePastHorizon: intervals past the policy horizon have no
// trained expectation, so they must contribute to neither side of the
// scale estimate — huge arrivals observed after the deadline cannot
// inflate the factor — and once the whole window is past the horizon the
// estimate freezes. The observation window itself stays bounded.
func TestAdaptivePastHorizon(t *testing.T) {
	m := newTestManager(t, Options{})
	req := sampleRequest(t, kinds.KindDeadline, 13, "small")
	var wire kinds.DeadlineRequest
	if err := json.Unmarshal(req, &wire); err != nil {
		t.Fatal(err)
	}
	const window = 3
	st, err := m.Create(context.Background(), kinds.KindDeadline, req, &AdaptiveOptions{WindowIntervals: window})
	if err != nil {
		t.Fatal(err)
	}
	// Walk to the horizon reporting exactly the trained profile: the
	// estimate stays at factor 1.
	for tt := 0; tt < wire.Intervals; tt++ {
		if _, err := m.Observe(st.ID, wire.Lambdas[tt], nil); err != nil {
			t.Fatal(err)
		}
	}
	atHorizon, err := m.State(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if atHorizon.ActiveFactor != 1.0 {
		t.Fatalf("on-profile arrivals ended at factor %v, want 1.0", atHorizon.ActiveFactor)
	}
	// Ten more intervals of absurd arrivals past the horizon.
	for i := 0; i < 10; i++ {
		if _, err := m.Observe(st.ID, 1e6, nil); err != nil {
			t.Fatal(err)
		}
	}
	after, err := m.State(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if after.ActiveFactor != atHorizon.ActiveFactor || after.Replans != atHorizon.Replans {
		t.Fatalf("past-horizon arrivals moved the estimate: %+v vs %+v", after, atHorizon)
	}
	c, err := m.get(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	n := len(c.observed)
	c.mu.Unlock()
	if n > window {
		t.Fatalf("observation window holds %d entries, want ≤ %d", n, window)
	}
}

// TestAdaptiveRequiresDeadline: the controller re-scales per-interval
// arrival rates, which only the deadline MDP has.
func TestAdaptiveRequiresDeadline(t *testing.T) {
	m, eng := newInternManager(t, Options{})
	req := sampleRequest(t, kinds.KindTradeoff, 2, "small")
	if _, err := m.Create(context.Background(), kinds.KindTradeoff, req, &AdaptiveOptions{}); !errors.Is(err, ErrAdaptiveUnsupported) {
		t.Fatalf("adaptive tradeoff: err=%v, want ErrAdaptiveUnsupported", err)
	}
	if solves := eng.Metrics().Solves; solves != 0 {
		t.Errorf("rejected adaptive create ran %d solves, want 0", solves)
	}
}

// TestAdaptiveGridBounded: the zero options take the simulator's §5.2.5
// grid and window, and a factor grid over MaxAdaptiveFactors is invalid
// input, rejected before any solve or intern entry.
func TestAdaptiveGridBounded(t *testing.T) {
	norm, err := (&AdaptiveOptions{}).normalized()
	if def := sim.DefaultAdaptiveConfig(); err != nil || !reflect.DeepEqual(sim.AdaptiveConfig(norm), def) {
		t.Fatalf("zero adaptive options normalize to %+v (err %v), want sim's default %+v", norm, err, def)
	}

	m, eng := newInternManager(t, Options{})
	factors := make([]float64, MaxAdaptiveFactors+1)
	for i := range factors {
		factors[i] = float64(i+1) / 10
	}
	req := sampleRequest(t, kinds.KindDeadline, 2, "small")
	if _, err := m.Create(context.Background(), kinds.KindDeadline, req, &AdaptiveOptions{Factors: factors}); !engine.IsInvalidSpec(err) {
		t.Fatalf("%d-factor create: err=%v, want an invalid-spec error", len(factors), err)
	}
	if solves := eng.Metrics().Solves; solves != 0 {
		t.Errorf("rejected %d-factor create ran %d solves, want 0", len(factors), solves)
	}
	if is := m.intern.stats(); is.interned != 0 {
		t.Errorf("rejected %d-factor create interned %d tables, want 0", len(factors), is.interned)
	}
}

// TestAdaptiveDeterministicBySeed: two managers fed the identical seed and
// observation sequence quote identical prices and count identical replans,
// and the sequence moves the quoted price.
func TestAdaptiveDeterministicBySeed(t *testing.T) {
	req, _ := thinMarketRequest(t, 23)
	run := func() ([]int, int64) {
		m := newTestManager(t, Options{})
		st, err := m.Create(context.Background(), kinds.KindDeadline, req, &AdaptiveOptions{WindowIntervals: 2})
		if err != nil {
			t.Fatal(err)
		}
		var prices []int
		arrivals := []float64{3, 50, 1, 80, 0, 40, 7, 7}
		for _, a := range arrivals {
			if _, err := m.Observe(st.ID, a, []int{2}); err != nil {
				t.Fatal(err)
			}
			q, err := m.Quote(st.ID)
			if err != nil {
				t.Fatal(err)
			}
			prices = append(prices, q.Price)
		}
		fin, err := m.Finish(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		return prices, fin.Replans
	}
	p1, r1 := run()
	p2, r2 := run()
	if len(p1) != len(p2) || r1 != r2 {
		t.Fatalf("runs diverged: %v/%d vs %v/%d", p1, r1, p2, r2)
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("price %d diverged: %d vs %d", i, p1[i], p2[i])
		}
	}
	if r1 == 0 {
		t.Fatal("observation sequence produced no replans; the test exercises nothing")
	}
	if slices.Min(p1) == slices.Max(p1) {
		t.Fatalf("every quote was %d; the price check cannot tell the policies apart", p1[0])
	}
}

// TestTTLExpiry drives the idle sweeper with a fake clock.
func TestTTLExpiry(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	var mu sync.Mutex
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	m := newTestManager(t, Options{TTL: time.Minute, now: clock})

	st, err := m.Create(context.Background(), kinds.KindDeadline, sampleRequest(t, kinds.KindDeadline, 3, "small"), nil)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := m.Create(context.Background(), kinds.KindDeadline, sampleRequest(t, kinds.KindDeadline, 4, "small"), nil)
	if err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	now = now.Add(45 * time.Second)
	mu.Unlock()
	// Touching a campaign (here: quoting) refreshes its TTL.
	if _, err := m.Quote(st2.ID); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	now = now.Add(30 * time.Second)
	mu.Unlock()

	if n := m.ExpireIdle(); n != 1 {
		t.Fatalf("expired %d campaigns, want 1 (only the untouched one)", n)
	}
	if _, err := m.State(st.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("expired campaign still readable: %v", err)
	}
	if _, err := m.State(st2.ID); err != nil {
		t.Fatalf("touched campaign expired: %v", err)
	}
	if got := m.Metrics(); got.Expired != 1 || got.Active != 1 {
		t.Fatalf("metrics %+v, want Expired=1 Active=1", got)
	}
}

// TestNeverExpire: a negative TTL disables the sweeper.
func TestNeverExpire(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	m := newTestManager(t, Options{TTL: -1, now: func() time.Time { return now }})
	st, err := m.Create(context.Background(), kinds.KindDeadline, sampleRequest(t, kinds.KindDeadline, 3, "small"), nil)
	if err != nil {
		t.Fatal(err)
	}
	now = now.Add(1000 * time.Hour)
	if n := m.ExpireIdle(); n != 0 {
		t.Fatalf("ExpireIdle removed %d campaigns with TTL<0", n)
	}
	if _, err := m.State(st.ID); err != nil {
		t.Fatal(err)
	}
}

// TestTableFull: the campaign table sheds creates at capacity.
func TestTableFull(t *testing.T) {
	m := newTestManager(t, Options{maxCampaigns: 2})
	for seed := int64(0); seed < 2; seed++ {
		if _, err := m.Create(context.Background(), kinds.KindDeadline, sampleRequest(t, kinds.KindDeadline, seed, "small"), nil); err != nil {
			t.Fatal(err)
		}
	}
	_, err := m.Create(context.Background(), kinds.KindDeadline, sampleRequest(t, kinds.KindDeadline, 9, "small"), nil)
	if !errors.Is(err, ErrTableFull) {
		t.Fatalf("create over capacity: err=%v, want ErrTableFull", err)
	}
}

// TestSnapshotRestore is the restart story: run a live table on an event
// log that is compacted into a snapshot record mid-history, boot a
// brand-new manager over a brand-new (cold) engine on that log, and
// require bit-identical quotes — the determinism of the solvers is what
// makes logging requests instead of policies sound.
func TestSnapshotRestore(t *testing.T) {
	a := newTestManager(t, Options{})
	ctx := context.Background()
	mem := wal.NewMemFS()
	logA, err := a.OpenWAL("wal", wal.Options{FS: mem, SyncInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { logA.Close() })
	a.AttachWAL(logA)

	reqStatic := sampleRequest(t, kinds.KindDeadline, 31, "small")
	stStatic, err := a.Create(ctx, kinds.KindDeadline, reqStatic, nil)
	if err != nil {
		t.Fatal(err)
	}
	reqAdaptive := sampleRequest(t, kinds.KindDeadline, 32, "small")
	stAdaptive, err := a.Create(ctx, kinds.KindDeadline, reqAdaptive, &AdaptiveOptions{WindowIntervals: 2})
	if err != nil {
		t.Fatal(err)
	}
	reqMulti := sampleRequest(t, kinds.KindMulti, 33, "small")
	stMulti, err := a.Create(ctx, kinds.KindMulti, reqMulti, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Advance each campaign into a nontrivial state, compacting halfway so
	// the restart rebuilds from snapshot entries and replays the trailing
	// observes on top of them.
	for i := 0; i < 4; i++ {
		if i == 2 {
			if err := logA.Compact(); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := a.Observe(stStatic.ID, float64(3*i), []int{1}); err != nil {
			t.Fatal(err)
		}
		if _, err := a.Observe(stAdaptive.ID, float64(40*i), nil); err != nil {
			t.Fatal(err)
		}
		if _, err := a.Observe(stMulti.ID, 6, []int{1, 0}); err != nil {
			t.Fatal(err)
		}
	}

	// Boot b on a copy of the synced log — what a crash now would leave —
	// so a keeps serving on its own log for the comparisons below.
	if err := logA.Sync(); err != nil {
		t.Fatal(err)
	}
	b := newTestManager(t, Options{})
	logB, err := b.OpenWAL("wal", wal.Options{FS: mem.Clone(), SyncInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { logB.Close() })
	stats, err := b.ReplayWAL(ctx, logB)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Snapshots != 1 || stats.Campaigns != 3 {
		t.Fatalf("replay stats %+v, want 1 snapshot record and 3 campaigns", stats)
	}
	b.AttachWAL(logB)

	for _, id := range []string{stStatic.ID, stAdaptive.ID, stMulti.ID} {
		qa, err := a.Quote(id)
		if err != nil {
			t.Fatal(err)
		}
		qb, err := b.Quote(id)
		if err != nil {
			t.Fatalf("restored campaign %q: %v", id, err)
		}
		if len(qa.Prices) != len(qb.Prices) {
			t.Fatalf("%q: %v vs %v", id, qa.Prices, qb.Prices)
		}
		for i := range qa.Prices {
			if qa.Prices[i] != qb.Prices[i] {
				t.Fatalf("%q quotes diverged after restore: %v vs %v", id, qa.Prices, qb.Prices)
			}
		}
		sa, _ := a.State(id)
		sb, _ := b.State(id)
		if sa.Interval != sb.Interval || sa.Replans != sb.Replans || sa.ActiveFactor != sb.ActiveFactor {
			t.Fatalf("%q state diverged after restore: %+v vs %+v", id, sa, sb)
		}
	}

	// The restored table keeps working: observe + quote still agree across
	// managers when fed the same observation.
	if _, err := a.Observe(stAdaptive.ID, 70, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Observe(stAdaptive.ID, 70, nil); err != nil {
		t.Fatal(err)
	}
	qa, _ := a.Quote(stAdaptive.ID)
	qb, _ := b.Quote(stAdaptive.ID)
	if qa.Price != qb.Price {
		t.Fatalf("post-restore observe diverged: %d vs %d", qa.Price, qb.Price)
	}

	// New creates in the restored manager never collide with restored IDs.
	stNew, err := b.Create(ctx, kinds.KindDeadline, sampleRequest(t, kinds.KindDeadline, 99, "small"), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{stStatic.ID, stAdaptive.ID, stMulti.ID} {
		if stNew.ID == id {
			t.Fatalf("new campaign reused restored ID %q", id)
		}
	}
}

// TestRestoreRejectsBadSnapshots: a compaction record with a schema
// mismatch, broken JSON, a duplicated ID, or corrupted state aborts replay
// with nothing inserted — the log is input read from disk.
func TestRestoreRejectsBadSnapshots(t *testing.T) {
	m := newTestManager(t, Options{})
	ctx := context.Background()
	dupReq := `{"n": 4, "horizon_hours": 2, "intervals": 2, "lambdas": [5,5],
		"accept": {"s": 15, "b": -0.39, "m": 2000},
		"min_price": 1, "max_price": 10, "penalty": 40}`
	for name, snap := range map[string]string{
		"wrong schema": `{"schema_version": 99, "campaigns": []}`,
		"not json":     `{`,
		"duplicate id": `{"schema_version": 1, "next_seq": 2, "campaigns": [
			{"id": "c1", "kind": "deadline", "request": ` + dupReq + `,
			 "remaining": [4], "interval": 0, "observed": []},
			{"id": "c1", "kind": "deadline", "request": ` + dupReq + `,
			 "remaining": [4], "interval": 0, "observed": []}]}`,
		"bad state": `{"schema_version": 1, "next_seq": 1, "campaigns": [
			{"id": "c1", "kind": "deadline",
			 "request": {"n": 4, "horizon_hours": 2, "intervals": 2, "lambdas": [5,5],
			             "accept": {"s": 15, "b": -0.39, "m": 2000},
			             "min_price": 1, "max_price": 10, "penalty": 40},
			 "remaining": [99], "interval": 0, "observed": []}]}`,
	} {
		mem := wal.NewMemFS()
		l, err := wal.Open("wal", wal.Options{FS: mem, SyncInterval: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.Append(WALRecordSnapshot, []byte(snap)); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := m.ReplayWAL(ctx, wal.NewReader(mem, "wal")); err == nil {
			t.Errorf("%s: replay succeeded", name)
		}
	}
	if got := m.Metrics(); got.Active != 0 {
		t.Fatalf("failed replays left %d campaigns", got.Active)
	}
	if is := m.intern.stats(); is.interned != 0 || is.residentBytes != 0 {
		t.Fatalf("failed replays leaked %d interned tables, %d resident bytes", is.interned, is.residentBytes)
	}
}

// TestConcurrentObserveQuote is the -race test the tentpole calls for:
// hammer one campaign with concurrent observers and quoters and require a
// consistent final state — no lost updates, no torn reads.
func TestConcurrentObserveQuote(t *testing.T) {
	m := newTestManager(t, Options{})
	st, err := m.Create(context.Background(), kinds.KindDeadline,
		sampleRequest(t, kinds.KindDeadline, 42, "small"), &AdaptiveOptions{WindowIntervals: 3})
	if err != nil {
		t.Fatal(err)
	}

	const (
		observers = 8
		quoters   = 8
		perG      = 50
	)
	var wg sync.WaitGroup
	for g := 0; g < observers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if _, err := m.Observe(st.ID, float64(g+i), []int{0}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	for g := 0; g < quoters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				q, err := m.Quote(st.ID)
				if err != nil {
					t.Error(err)
					return
				}
				if len(q.Prices) != 1 || q.Prices[0] <= 0 {
					t.Errorf("torn quote %+v", q)
					return
				}
			}
		}()
	}
	wg.Wait()

	fin, err := m.Finish(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fin.Intervals != observers*perG {
		t.Fatalf("campaign saw %d intervals, want %d (lost observes)", fin.Intervals, observers*perG)
	}
	if fin.Quotes != quoters*perG {
		t.Fatalf("campaign counted %d quotes, want %d", fin.Quotes, quoters*perG)
	}
}
