package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"sort"
	"strings"
	"testing"

	"crowdpricing/internal/engine"
	"crowdpricing/internal/kinds"
	"crowdpricing/internal/telemetry"
)

// requestCount scrapes /metrics and returns
// crowdpricing_request_duration_seconds_count for endpoint.
func requestCount(t *testing.T, baseURL, endpoint string) int {
	t.Helper()
	res, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	re := regexp.MustCompile(`crowdpricing_request_duration_seconds_count\{endpoint="` +
		regexp.QuoteMeta(endpoint) + `"\} (\d+)`)
	m := re.FindStringSubmatch(string(body))
	if m == nil {
		t.Fatalf("no duration count for endpoint %q in /metrics", endpoint)
	}
	var n int
	fmt.Sscanf(m[1], "%d", &n)
	return n
}

// TestPanickedRequestLandsInHistogram is the happy-path-only-recording
// regression test: a handler that panics must still land in the request
// duration histogram, answer 500, count as an error, and leave the daemon
// serving.
func TestPanickedRequestLandsInHistogram(t *testing.T) {
	reg := engine.NewRegistry()
	reg.Register(engine.KindDef{
		Kind: "kaboom",
		New:  func() engine.Spec { panic("constructor exploded") },
	})
	s, ts := newTestServer(t, Options{Registry: reg})

	res, err := http.Post(ts.URL+"/v1/solve/kaboom", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking handler: status %d, want 500", res.StatusCode)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(res.Body).Decode(&e); err != nil || e.Error == "" {
		t.Errorf("panicking handler returned no JSON error body (%v)", err)
	}
	if got := requestCount(t, ts.URL, "/v1/solve/kaboom"); got != 1 {
		t.Errorf("duration histogram count = %d after a panicked request, want 1", got)
	}
	if s.Metrics().Errors == 0 {
		t.Error("error counter not incremented by a panicked request")
	}
	// The daemon must still serve.
	res2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	res2.Body.Close()
	if res2.StatusCode != http.StatusOK {
		t.Fatalf("healthz after panic: status %d", res2.StatusCode)
	}
}

// TestShedRequestLandsInHistogram wedges a 1-worker/1-slot engine and
// checks the 429-shed request is recorded in the duration histogram like
// any other response.
func TestShedRequestLandsInHistogram(t *testing.T) {
	gate := make(chan struct{})
	s, ts := newTestServer(t, Options{Registry: stubRegistry(gate), Workers: 1, QueueDepth: 1})
	client := NewClient(ts.URL)
	ctx := context.Background()

	if _, err := client.Solve(ctx, "stub", stubSpec{ID: "prime"}); err != nil {
		t.Fatal(err)
	}
	if got := requestCount(t, ts.URL, "/v1/solve/stub"); got != 1 {
		t.Fatalf("baseline duration count = %d, want 1", got)
	}

	inflight := make(chan error, 2)
	for _, id := range []string{"wedge-worker", "fill-queue"} {
		go func() {
			_, err := client.Solve(ctx, "stub", stubSpec{ID: id, Block: true})
			inflight <- err
		}()
		switch id {
		case "wedge-worker":
			waitForMetric(t, s, func(m MetricsSnapshot) bool { return m.InFlight == 1 })
		case "fill-queue":
			waitForMetric(t, s, func(m MetricsSnapshot) bool { return m.QueueDepth == 1 })
		}
	}
	_, err := client.Solve(ctx, "stub", stubSpec{ID: "overflow", Block: true})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow solve err = %v, want HTTP 429", err)
	}
	// The two admitted solves are still blocked in their handlers; the only
	// finished requests are the prime and the shed one — so the shed
	// request is what moved the count.
	if got := requestCount(t, ts.URL, "/v1/solve/stub"); got != 2 {
		t.Errorf("duration count = %d after 429 shed, want 2 (prime + shed)", got)
	}
	close(gate)
	for i := 0; i < 2; i++ {
		if err := <-inflight; err != nil {
			t.Errorf("admitted solve failed: %v", err)
		}
	}
}

// TestTraceAndAnalyticsEndpoints drives one campaign lifecycle and checks
// the full observability read side: /debug/requests carries stage-settled
// traces, /v1/analytics carries the λ̂ fold and stage summaries, and
// /metrics grows the stage and cohort families.
func TestTraceAndAnalyticsEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Options{TraceSeed: 42})
	client := NewClient(ts.URL)
	ctx := context.Background()

	st, err := client.CreateCampaign(ctx, kinds.KindDeadline, campaignDeadlineRequest(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.ObserveCampaign(ctx, st.ID, 5, []int{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.CampaignPrice(ctx, st.ID); err != nil {
		t.Fatal(err)
	}

	traces, err := client.DebugRequests(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) == 0 {
		t.Fatal("/debug/requests returned no traces")
	}
	stages := map[string]bool{}
	routes := map[string]bool{}
	for _, tr := range traces {
		if tr.ID == "" || tr.TotalMS < 0 {
			t.Errorf("malformed trace summary %+v", tr)
		}
		routes[tr.Route] = true
		for stage := range tr.StagesMS {
			stages[stage] = true
		}
	}
	// The create solved through the engine; the observe appended nothing
	// (no WAL) but decoded a body; the quote crossed the campaign lock.
	for _, want := range []string{"server_decode", "engine_queue_wait", "engine_solve", "campaign_lock"} {
		if !stages[want] {
			t.Errorf("no trace recorded stage %q; saw %v", want, stages)
		}
	}
	if !routes["POST /v1/campaigns"] {
		t.Errorf("create route missing from traces; saw %v", routes)
	}

	an, err := client.Analytics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if an.Analytics == nil || an.Analytics.Observes != 1 || an.Analytics.LambdaHat != 5 {
		t.Fatalf("analytics fold = %+v, want 1 observe at λ̂ 5", an.Analytics)
	}
	cs, ok := an.Analytics.Cohorts[kinds.KindDeadline]
	if !ok || cs.Campaigns != 1 || cs.Quotes != 1 || cs.Completions != 1 {
		t.Fatalf("deadline cohort = %+v (present %v)", cs, ok)
	}
	if sum, ok := an.Stages["engine_solve"]; !ok || sum.Count == 0 {
		t.Fatalf("stage summaries missing engine_solve: %+v", an.Stages)
	}

	// Human rendering.
	res, err := http.Get(ts.URL + "/debug/requests?format=text")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	text, _ := io.ReadAll(res.Body)
	if !strings.Contains(string(text), "engine_solve") {
		t.Errorf("text rendering mentions no stages:\n%s", text)
	}

	// Metrics families.
	res2, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer res2.Body.Close()
	raw, _ := io.ReadAll(res2.Body)
	body := string(raw)
	validateMetricsConventions(t, body)
	for _, want := range []string{
		`crowdpricing_stage_duration_seconds_count{stage="engine_solve"}`,
		`crowdpricing_lambda_hat 5`,
		`crowdpricing_cohort_quotes_total{cohort="deadline"} 1`,
		`crowdpricing_cohort_arrivals_total{cohort="deadline"} 5`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestTraceIDsDeterministicAcrossServers: two servers with the same
// TraceSeed mint identical trace-ID sequences — the determinism contract
// crowdlint enforces on the rest of the codebase, carried into tracing.
func TestTraceIDsDeterministicAcrossServers(t *testing.T) {
	ids := func() []string {
		_, ts := newTestServer(t, Options{TraceSeed: 7, TraceBuffer: 8})
		client := NewClient(ts.URL)
		for i := 0; i < 3; i++ {
			if _, err := client.Healthz(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		traces, err := client.DebugRequests(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		out := make([]string, 0, len(traces))
		for _, tr := range traces {
			out = append(out, tr.ID)
		}
		// The ring orders by measured duration, which is wall clock; the
		// determinism claim is about the minted IDs, so compare as a set.
		sort.Strings(out)
		return out
	}
	a, b := ids(), ids()
	if len(a) == 0 {
		t.Fatal("no traces retained")
	}
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("trace IDs differ across same-seed servers:\n%v\n%v", a, b)
	}
}

// TestTracingDisabled: a negative TraceBuffer turns the tracing plane
// off — /debug/requests answers 404, /metrics renders no stage family —
// while the analytics fold keeps working.
func TestTracingDisabled(t *testing.T) {
	_, ts := newTestServer(t, Options{TraceBuffer: -1})
	client := NewClient(ts.URL)
	ctx := context.Background()

	if _, err := client.DebugRequests(ctx); err == nil {
		t.Fatal("DebugRequests succeeded with tracing disabled, want 404")
	} else {
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound {
			t.Fatalf("DebugRequests err = %v, want HTTP 404", err)
		}
	}

	st, err := client.CreateCampaign(ctx, kinds.KindDeadline, campaignDeadlineRequest(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.ObserveCampaign(ctx, st.ID, 3, nil); err != nil {
		t.Fatal(err)
	}
	an, err := client.Analytics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if an.Analytics.Observes != 1 || an.Analytics.LambdaHat != 3 {
		t.Fatalf("analytics with tracing off = %+v", an.Analytics)
	}
	if len(an.Stages) != 0 {
		t.Fatalf("stage summaries rendered with tracing off: %+v", an.Stages)
	}

	res, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	raw, _ := io.ReadAll(res.Body)
	if strings.Contains(string(raw), "crowdpricing_stage_duration_seconds") {
		t.Error("stage histogram family rendered with tracing off")
	}
}

// TestStageNamesClosedSet pins the wire stage names: dashboards and the
// obs-smoke CI assertions key on them, so adding or renaming a stage must
// be a deliberate, reviewed change here too.
func TestStageNamesClosedSet(t *testing.T) {
	want := []string{
		"server_decode", "engine_queue_wait", "engine_solve",
		"quoter_decode", "campaign_lock", "wal_append",
	}
	got := telemetry.StageNames()
	if len(got) != len(want) {
		t.Fatalf("stage set = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("stage set = %v, want %v", got, want)
		}
	}
}
