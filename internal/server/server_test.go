package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"crowdpricing/internal/choice"
	"crowdpricing/internal/engine"
	"crowdpricing/internal/exp"
)

// testAccept is the Paper13 curve on the wire.
var testAccept = LogisticParams{S: choice.Paper13.S, B: choice.Paper13.B, M: choice.Paper13.M}

// testDeadlineRequest is sized so a cold solve takes long enough for real
// request overlap but keeps the suite fast.
func testDeadlineRequest() DeadlineRequest {
	lambdas := make([]float64, 24)
	for i := range lambdas {
		lambdas[i] = 80
	}
	return DeadlineRequest{
		N:            120,
		HorizonHours: 8,
		Intervals:    24,
		Lambdas:      lambdas,
		Accept:       testAccept,
		MinPrice:     1,
		MaxPrice:     40,
		Penalty:      300,
		TruncEps:     1e-9,
	}
}

func testBudgetRequest() BudgetRequest {
	return BudgetRequest{N: 100, Budget: 2500, Accept: testAccept, MinPrice: 1, MaxPrice: 50}
}

func testTradeoffRequest() TradeoffRequest {
	return TradeoffRequest{N: 50, Alpha: 10, Lambda: 200, Accept: testAccept, MinPrice: 1, MaxPrice: 50}
}

func testMultiRequest() MultiRequest {
	return MultiRequest{
		Counts:    []int{3, 2},
		Intervals: 4,
		Lambdas:   []float64{30, 30, 30, 30},
		Accepts:   []LogisticParams{testAccept, {S: 12, B: -0.4, M: 1500}},
		MinPrice:  1,
		MaxPrice:  6,
		Penalty:   100,
		TruncEps:  1e-9,
	}
}

func newTestServer(t testing.TB, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(s.Close)
	return s, ts
}

// TestSingleflightDedup is the service's core claim: 50 concurrent
// identical deadline requests perform exactly one solve, and every caller
// receives a byte-identical policy. Run under -race in CI.
func TestSingleflightDedup(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	client := NewClient(ts.URL)
	req := testDeadlineRequest()

	const callers = 50
	responses := make([]*SolveResponse, callers)
	errs := make([]error, callers)
	var start, wg sync.WaitGroup
	start.Add(1)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start.Wait()
			responses[i], errs[i] = client.Solve(context.Background(), KindDeadline, req)
		}(i)
	}
	start.Done()
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	m := s.Metrics()
	if m.Solves != 1 {
		t.Errorf("performed %d solves for %d identical requests, want exactly 1", m.Solves, callers)
	}
	// Whether a given caller hit the warm cache or joined the in-flight
	// solve depends on timing; together they must account for all but the
	// one request that ran the solver.
	if got := m.CacheHits + m.FlightShared; got != callers-1 {
		t.Errorf("cache hits (%d) + singleflight joins (%d) = %d, want %d",
			m.CacheHits, m.FlightShared, got, callers-1)
	}
	first := responses[0]
	for i, r := range responses {
		if !bytes.Equal(r.Result, first.Result) {
			t.Fatalf("caller %d received a different policy than caller 0", i)
		}
		if r.Fingerprint != first.Fingerprint {
			t.Errorf("caller %d fingerprint %q != %q", i, r.Fingerprint, first.Fingerprint)
		}
	}
	// The artifact must decode into a usable policy.
	pol, err := first.DecodePolicy()
	if err != nil {
		t.Fatal(err)
	}
	if pol.PriceAt(req.N, 0) < req.MinPrice || pol.PriceAt(req.N, 0) > req.MaxPrice {
		t.Errorf("decoded policy price %d outside [%d, %d]", pol.PriceAt(req.N, 0), req.MinPrice, req.MaxPrice)
	}
}

// TestWarmHitIsCached proves the second identical request is served from
// cache without touching the solver.
func TestWarmHitIsCached(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	client := NewClient(ts.URL)
	req := testDeadlineRequest()

	cold, err := client.Solve(context.Background(), KindDeadline, req)
	if err != nil {
		t.Fatal(err)
	}
	if cold.CacheHit {
		t.Error("first request reported a cache hit")
	}
	if cold.SolveMillis <= 0 {
		t.Error("cold solve reported zero solve time")
	}
	warm, err := client.Solve(context.Background(), KindDeadline, req)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.CacheHit {
		t.Error("second request missed the cache")
	}
	if warm.SolveMillis != 0 {
		t.Errorf("warm hit reported solve time %v ms", warm.SolveMillis)
	}
	if !bytes.Equal(cold.Result, warm.Result) {
		t.Error("warm policy differs from cold policy")
	}
	if m := s.Metrics(); m.Solves != 1 || m.CacheHits != 1 || m.CacheMisses != 1 {
		t.Errorf("metrics = %+v, want 1 solve, 1 hit, 1 miss", m)
	}
}

// TestDistinctProblemsSolveSeparately guards against over-deduplication:
// different problems must never share cache entries.
func TestDistinctProblemsSolveSeparately(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	client := NewClient(ts.URL)
	a := testDeadlineRequest()
	b := testDeadlineRequest()
	b.Penalty = 301 // any field flip is a different artifact

	ra, err := client.Solve(context.Background(), KindDeadline, a)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := client.Solve(context.Background(), KindDeadline, b)
	if err != nil {
		t.Fatal(err)
	}
	if ra.Fingerprint == rb.Fingerprint {
		t.Error("distinct problems share a fingerprint")
	}
	if m := s.Metrics(); m.Solves != 2 {
		t.Errorf("performed %d solves for 2 distinct problems, want 2", m.Solves)
	}
}

func TestBudgetEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	client := NewClient(ts.URL)

	hull, err := client.Solve(context.Background(), KindBudget, testBudgetRequest())
	if err != nil {
		t.Fatal(err)
	}
	strat, err := hull.DecodeBudget()
	if err != nil {
		t.Fatal(err)
	}
	total, tasks := 0, 0
	for price, count := range strat.Counts {
		total += price * count
		tasks += count
	}
	if tasks != 100 {
		t.Errorf("allocation covers %d tasks, want 100", tasks)
	}
	if total > 2500 {
		t.Errorf("allocation spends %dc, budget is 2500c", total)
	}
	if total != strat.TotalCost {
		t.Errorf("TotalCost %d != recomputed %d", strat.TotalCost, total)
	}
	if len(strat.Counts) > 2 {
		t.Errorf("hull strategy uses %d prices, Theorem 7 says at most 2", len(strat.Counts))
	}

	// The exact DP is a distinct artifact with its own cache key, and can
	// only match or beat the hull's E[W].
	exactReq := testBudgetRequest()
	exactReq.Method = BudgetMethodExact
	exact, err := client.Solve(context.Background(), KindBudget, exactReq)
	if err != nil {
		t.Fatal(err)
	}
	if exact.Fingerprint == hull.Fingerprint {
		t.Error("hull and exact share a cache key")
	}
	exactStrat, err := exact.DecodeBudget()
	if err != nil {
		t.Fatal(err)
	}
	if exactStrat.ExpectedWorkerArrivals > strat.ExpectedWorkerArrivals+1e-9 {
		t.Errorf("exact E[W] %.3f worse than hull %.3f",
			exactStrat.ExpectedWorkerArrivals, strat.ExpectedWorkerArrivals)
	}
}

func TestTradeoffEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	client := NewClient(ts.URL)
	resp, err := client.Solve(context.Background(), KindTradeoff, testTradeoffRequest())
	if err != nil {
		t.Fatal(err)
	}
	sched, err := resp.DecodeTradeoff()
	if err != nil {
		t.Fatal(err)
	}
	if len(sched.Price) != 51 || len(sched.Value) != 51 {
		t.Fatalf("schedule has %d/%d rows, want 51/51", len(sched.Price), len(sched.Value))
	}
	for n := 1; n <= 50; n++ {
		if sched.Value[n] <= sched.Value[n-1] {
			t.Fatalf("value not increasing at n=%d", n)
		}
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	post := func(path, body string) *http.Response {
		res, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { res.Body.Close() })
		return res
	}
	cases := []struct {
		name, path, body string
		want             int
	}{
		{"malformed json", "/v1/solve/deadline", "{", http.StatusBadRequest},
		{"unknown field", "/v1/solve/deadline", `{"bogus": 1}`, http.StatusBadRequest},
		{"invalid problem", "/v1/solve/deadline", `{"n": 0, "horizon_hours": 1, "intervals": 1, "lambdas": [1], "accept": {"s": 15, "b": 0, "m": 2000}, "min_price": 1, "max_price": 5}`, http.StatusBadRequest},
		{"bad budget method", "/v1/solve/budget", `{"n": 10, "budget": 100, "accept": {"s": 15, "b": 0, "m": 2000}, "min_price": 1, "max_price": 5, "method": "magic"}`, http.StatusBadRequest},
		{"bad tradeoff formulation", "/v1/solve/tradeoff", `{"n": 10, "alpha": 1, "lambda": 10, "accept": {"s": 15, "b": 0, "m": 2000}, "min_price": 1, "max_price": 5, "formulation": "magic"}`, http.StatusBadRequest},
		// Solving is one request per problem: "batch" names no route of its
		// own and no registered kind, so even a list of valid problems is
		// not served.
		{"batch is not a kind", "/v1/solve/" + "batch", `{"items": [{"kind": "budget", "request": {"n": 10, "budget": 100, "accept": {"s": 15, "b": -0.39, "m": 2000}, "min_price": 1, "max_price": 20}}]}`, http.StatusNotFound},
	}
	for _, tc := range cases {
		if res := post(tc.path, tc.body); res.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, res.StatusCode, tc.want)
		}
	}
	// Wrong method.
	res, err := http.Get(ts.URL + "/v1/solve/deadline")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET on solve endpoint: status %d, want 405", res.StatusCode)
	}
}

// TestServiceLimits: oversized problems are rejected up front with 400
// instead of being allowed to allocate solver state.
func TestServiceLimits(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	client := NewClient(ts.URL)
	ctx := context.Background()

	huge := testDeadlineRequest()
	huge.N = MaxTasks + 1
	if _, err := client.Solve(ctx, KindDeadline, huge); err == nil || !strings.Contains(err.Error(), "400") {
		t.Errorf("oversized N: err = %v, want 400", err)
	}
	cells := testDeadlineRequest()
	cells.N = 2000
	cells.Intervals = 1000
	cells.Lambdas = make([]float64, 1000)
	for i := range cells.Lambdas {
		cells.Lambdas[i] = 1
	}
	if _, err := client.Solve(ctx, KindDeadline, cells); err == nil || !strings.Contains(err.Error(), "400") {
		t.Errorf("oversized N×intervals: err = %v, want 400", err)
	}
	exact := testBudgetRequest()
	exact.Method = BudgetMethodExact
	exact.Budget = MaxExactBudget + 1
	if _, err := client.Solve(ctx, KindBudget, exact); err == nil || !strings.Contains(err.Error(), "400") {
		t.Errorf("oversized exact budget: err = %v, want 400", err)
	}
	wide := testTradeoffRequest()
	wide.MaxPrice = wide.MinPrice + MaxPriceRange + 1
	if _, err := client.Solve(ctx, KindTradeoff, wide); err == nil || !strings.Contains(err.Error(), "400") {
		t.Errorf("oversized price range: err = %v, want 400", err)
	}
	// No limit rejection ran a solver or occupied a cache slot.
	if m := s.Metrics(); m.Solves != 0 || m.CacheEntries != 0 {
		t.Errorf("metrics after rejections = %+v, want 0 solves and 0 cache entries", m)
	}
}

// stubSpec is a controllable problem kind for exercising the server's
// engine integration (panics, blocking solves) over real HTTP.
type stubSpec struct {
	ID    string `json:"id"`
	Panic bool   `json:"panic,omitempty"`
	Block bool   `json:"block,omitempty"`
	// Raw makes Solve return bytes that are not a JSON document.
	Raw bool `json:"raw,omitempty"`

	gate chan struct{}
}

func (s *stubSpec) Kind() string { return "stub" }
func (s *stubSpec) Validate() error {
	if s.ID == "" {
		return fmt.Errorf("stub: empty id")
	}
	return nil
}
func (s *stubSpec) Fingerprint() (string, error) {
	if err := s.Validate(); err != nil {
		return "", err
	}
	return "stub/test:" + s.ID, nil
}
func (s *stubSpec) Solve(ctx context.Context) ([]byte, error) {
	if s.Block && s.gate != nil {
		<-s.gate
	}
	if s.Panic {
		panic("boom")
	}
	if s.Raw {
		return []byte(`ok:` + s.ID), nil
	}
	return []byte(`{"ok":"` + s.ID + `"}`), nil
}

// stubRegistry serves only the stub kind; gate is shared by every decoded
// spec so tests can wedge the engine deterministically.
func stubRegistry(gate chan struct{}) *engine.Registry {
	reg := engine.NewRegistry()
	reg.Register(engine.KindDef{
		Kind: "stub",
		New:  func() engine.Spec { return &stubSpec{gate: gate} },
	})
	return reg
}

// TestSolverPanicIsContained: a request that panics the solver layer must
// answer 500, not kill the daemon, and must release the singleflight entry
// so the key stays usable.
func TestSolverPanicIsContained(t *testing.T) {
	_, ts := newTestServer(t, Options{Registry: stubRegistry(nil)})
	res, err := http.Post(ts.URL+"/v1/solve/stub", "application/json",
		strings.NewReader(`{"id":"x","panic":true}`))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking solve: status %d, want 500", res.StatusCode)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(res.Body).Decode(&e); err != nil || !strings.Contains(e.Error, "solver panic") {
		t.Errorf("error body %q does not mention the panic (%v)", e.Error, err)
	}
	// The key must be usable again.
	res2, err := http.Post(ts.URL+"/v1/solve/stub", "application/json",
		strings.NewReader(`{"id":"x"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer res2.Body.Close()
	if res2.StatusCode != http.StatusOK {
		t.Fatalf("key unusable after panic: status %d", res2.StatusCode)
	}
}

// TestQueueOverflowReturns429 wedges a 1-worker/1-slot engine and checks
// the admission controller sheds the third distinct solve with HTTP 429
// (and a Retry-After hint) instead of queueing unbounded work, that the
// rejection is counted per kind, and that warm cache hits still serve while
// the queue is full.
func TestQueueOverflowReturns429(t *testing.T) {
	gate := make(chan struct{})
	s, ts := newTestServer(t, Options{Registry: stubRegistry(gate), Workers: 1, QueueDepth: 1})
	client := NewClient(ts.URL)
	ctx := context.Background()

	// Prime a warm artifact before wedging the engine.
	if _, err := client.Solve(ctx, "stub", stubSpec{ID: "hot"}); err != nil {
		t.Fatal(err)
	}

	post := func(id string, errs chan error) {
		go func() {
			_, err := client.Solve(ctx, "stub", stubSpec{ID: id, Block: true})
			errs <- err
		}()
	}
	inflight := make(chan error, 2)
	post("wedge-worker", inflight)
	waitForMetric(t, s, func(m MetricsSnapshot) bool { return m.InFlight == 1 })
	post("fill-queue", inflight)
	waitForMetric(t, s, func(m MetricsSnapshot) bool { return m.QueueDepth == 1 })

	_, err := client.Solve(ctx, "stub", stubSpec{ID: "overflow", Block: true})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow solve err = %v, want HTTP 429", err)
	}
	if !apiErr.IsBackpressure() {
		t.Error("APIError.IsBackpressure() = false for a 429")
	}
	if apiErr.RetryAfter != time.Second {
		t.Errorf("APIError.RetryAfter = %v, want 1s from the daemon's Retry-After: 1", apiErr.RetryAfter)
	}
	if got := s.Metrics().RejectedByKind["stub"]; got != 1 {
		t.Errorf("rejections{kind=stub} = %d, want 1", got)
	}

	// Warm hits bypass the queue even at capacity.
	warm, err := client.Solve(ctx, "stub", stubSpec{ID: "hot"})
	if err != nil || !warm.CacheHit {
		t.Fatalf("warm hit under full queue: resp=%+v err=%v", warm, err)
	}

	close(gate)
	for i := 0; i < 2; i++ {
		if err := <-inflight; err != nil {
			t.Errorf("admitted solve failed: %v", err)
		}
	}
}

func waitForMetric(t *testing.T, s *Server, cond func(MetricsSnapshot) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond(s.Metrics()) {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("metric condition not reached within 5s")
}

func TestOversizedBodyRejected(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	body := strings.NewReader(`{"lambdas": [` + strings.Repeat("1,", maxBodyBytes/2) + `1]}`)
	res, err := http.Post(ts.URL+"/v1/solve/deadline", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized body: status %d, want 400", res.StatusCode)
	}
}

func TestTimeout(t *testing.T) {
	// A nanosecond budget is expired before the handler's select first
	// polls the context, so the timeout branch is taken deterministically
	// regardless of how fast the solver is.
	_, ts := newTestServer(t, Options{RequestTimeout: time.Nanosecond})
	client := NewClient(ts.URL)
	req := testDeadlineRequest()
	_, err := client.Solve(context.Background(), KindDeadline, req)
	if err == nil {
		t.Fatal("expected a timeout error")
	}
	if !strings.Contains(err.Error(), "504") {
		t.Errorf("error %q does not carry 504", err)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	client := NewClient(ts.URL)
	if _, err := client.Solve(context.Background(), KindBudget, testBudgetRequest()); err != nil {
		t.Fatal(err)
	}

	h, err := client.Healthz(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Errorf("health status %q, want ok", h.Status)
	}
	if h.CacheEntries != 1 {
		t.Errorf("health reports %d cache entries, want 1", h.CacheEntries)
	}

	res, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(res.Body); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	for _, want := range []string{
		"crowdpricing_requests_total",
		"crowdpricing_cache_hits_total 0",
		"crowdpricing_cache_misses_total 1",
		`crowdpricing_solves_total{kind="budget"} 1`,
		`crowdpricing_solves_total{kind="deadline"} 0`,
		`crowdpricing_solves_total{kind="multi"} 0`,
		`crowdpricing_rejections_total{kind="budget"} 0`,
		"crowdpricing_singleflight_shared_total 0",
		"crowdpricing_errors_total 0",
		"crowdpricing_cache_entries 1",
		"crowdpricing_queue_depth 0",
		"crowdpricing_inflight_solves 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %q:\n%s", want, body)
		}
	}
}

// TestCacheEvictionEndToEnd: a cache of one entry alternating between two
// problems re-solves every time.
func TestCacheEvictionEndToEnd(t *testing.T) {
	s, ts := newTestServer(t, Options{CacheSize: 1})
	client := NewClient(ts.URL)
	a := testBudgetRequest()
	b := testBudgetRequest()
	b.Budget = 2600
	for i := 0; i < 2; i++ {
		if _, err := client.Solve(context.Background(), KindBudget, a); err != nil {
			t.Fatal(err)
		}
		if _, err := client.Solve(context.Background(), KindBudget, b); err != nil {
			t.Fatal(err)
		}
	}
	if m := s.Metrics(); m.Solves != 4 || m.CacheEntries != 1 {
		t.Errorf("metrics = %+v, want 4 solves and 1 cached entry", m)
	}
}

// TestMultiKindGeneric is the registry's payoff test: the fourth kind
// ("multi", the paper's general-k extension) is served over HTTP and
// through the generic client path, with zero per-kind code in the server
// or client.
func TestMultiKindGeneric(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	client := NewClient(ts.URL)
	ctx := context.Background()
	req := testMultiRequest()

	cold, err := client.Solve(ctx, KindMulti, req)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Kind != KindMulti || cold.CacheHit {
		t.Errorf("cold response kind=%q hit=%v, want multi/false", cold.Kind, cold.CacheHit)
	}
	if !strings.HasPrefix(cold.Fingerprint, "multi/joint:") {
		t.Errorf("fingerprint %q missing the multi variant prefix", cold.Fingerprint)
	}
	var sched MultiSchedule
	if err := cold.Decode(&sched); err != nil {
		t.Fatal(err)
	}
	if len(sched.Prices) != req.Intervals || sched.Value <= 0 {
		t.Errorf("implausible schedule: %d interval rows, value %v", len(sched.Prices), sched.Value)
	}

	warm, err := client.Solve(ctx, KindMulti, req)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.CacheHit || !bytes.Equal(warm.Result, cold.Result) {
		t.Error("repeated multi request missed the cache or returned different bytes")
	}

	if m := s.Metrics(); m.SolvesByKind[KindMulti] != 1 {
		t.Errorf("solves{kind=multi} = %d, want 1", m.SolvesByKind[KindMulti])
	}

	// An invalid multi problem is the client's fault.
	bad := testMultiRequest()
	bad.Counts = []int{0, 2}
	if _, err := client.Solve(ctx, KindMulti, bad); err == nil || !strings.Contains(err.Error(), "400") {
		t.Errorf("invalid multi: err = %v, want 400", err)
	}
}

// TestUnknownKindRoute: /v1/solve/{kind} only exists for registered kinds.
func TestUnknownKindRoute(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	res, err := http.Post(ts.URL+"/v1/solve/astrology", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusNotFound {
		t.Errorf("unknown kind: status %d, want 404", res.StatusCode)
	}
}

// paperScaleRequest is the Section 5.2 default instance (N=200, 24h horizon,
// 72 intervals of 20 minutes, C=50) on the wire — the benchmark's cold
// solve is the full paper-scale backward induction.
func paperScaleRequest() DeadlineRequest {
	p := exp.DefaultWorkload().DefaultDeadlineProblem()
	l := p.Accept.(choice.Logistic)
	return DeadlineRequest{
		N:            p.N,
		HorizonHours: p.Horizon,
		Intervals:    p.Intervals,
		Lambdas:      p.Lambdas,
		Accept:       LogisticParams{S: l.S, B: l.B, M: l.M},
		MinPrice:     p.MinPrice,
		MaxPrice:     p.MaxPrice,
		Penalty:      p.Penalty,
		TruncEps:     p.TruncEps,
	}
}

func solveOnce(b *testing.B, s *Server, req DeadlineRequest) *SolveResponse {
	b.Helper()
	resp, err := s.solveSpec(context.Background(), &req)
	if err != nil {
		b.Fatal(err)
	}
	return resp
}

// BenchmarkDeadlineColdSolve measures the full cache-miss path at paper
// scale: fingerprint, backward induction, serialization, cache fill.
func BenchmarkDeadlineColdSolve(b *testing.B) {
	req := paperScaleRequest()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := New(Options{}) // empty cache every iteration
		b.StartTimer()
		solveOnce(b, s, req)
		b.StopTimer()
		s.Close()
		b.StartTimer()
	}
}

// BenchmarkDeadlineWarmHit measures the same request against a warm cache.
// Compare with BenchmarkDeadlineColdSolve: the acceptance target for the
// daemon is warm ≥ 100× faster than cold, and in practice the gap is
// several orders of magnitude.
func BenchmarkDeadlineWarmHit(b *testing.B) {
	req := paperScaleRequest()
	s := New(Options{})
	resp := solveOnce(b, s, req) // prime
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		warm := solveOnce(b, s, req)
		if !warm.CacheHit {
			b.Fatal("cache went cold")
		}
		if len(warm.Result) != len(resp.Result) {
			b.Fatal("warm result differs")
		}
	}
}

// BenchmarkDeadlineWarmHitHTTP is the warm path through the full HTTP
// stack — JSON decode, cache lookup, JSON encode over a real socket —
// i.e. the latency a network client observes on a hot policy.
func BenchmarkDeadlineWarmHitHTTP(b *testing.B) {
	req := paperScaleRequest()
	s := New(Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := NewClient(ts.URL)
	if _, err := client.Solve(context.Background(), KindDeadline, req); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Solve(context.Background(), KindDeadline, req)
		if err != nil {
			b.Fatal(err)
		}
		if !resp.CacheHit {
			b.Fatal("cache went cold")
		}
	}
}

func ExampleServer() {
	s := New(Options{CacheSize: 64})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := json.Marshal(BudgetRequest{
		N: 100, Budget: 2500,
		Accept:   LogisticParams{S: 15, B: -0.39, M: 2000},
		MinPrice: 1, MaxPrice: 50,
	})
	res, err := http.Post(ts.URL+"/v1/solve/budget", "application/json", bytes.NewReader(body))
	if err != nil {
		fmt.Println(err)
		return
	}
	defer res.Body.Close()
	var out SolveResponse
	_ = json.NewDecoder(res.Body).Decode(&out)
	strat, _ := out.DecodeBudget()
	fmt.Printf("kind=%s cache_hit=%v spend=%dc\n", out.Kind, out.CacheHit, strat.TotalCost)
	// Output: kind=budget cache_hit=false spend=2500c
}
