package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"crowdpricing/internal/engine"
	"crowdpricing/internal/kinds"
	"crowdpricing/internal/wal"
)

// expositionShape reduces a /metrics body to its declarations and series
// identities: every # HELP and # TYPE line as is, and every sample line
// cut before its value (label values may hold spaces, the value never
// does).
func expositionShape(body string) []string {
	var out []string
	for _, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		if !strings.HasPrefix(line, "#") {
			if i := strings.LastIndexByte(line, ' '); i >= 0 {
				line = line[:i]
			}
		}
		out = append(out, line)
	}
	return out
}

// TestMetricsExpositionGolden pins every /metrics family — its order,
// HELP text, TYPE and label sets — against testdata/metrics_exposition.golden.
// The scripted run brings up every conditional family: the WAL is attached
// (on MemFS, with a fixed replay time) and tracing is on, solves hit and
// miss, two requests fail, a static campaign runs its whole lifecycle and
// an adaptive one is created and observed. Values are left out: only
// timing-dependent histogram readings could differ between runs.
func TestMetricsExpositionGolden(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	wlog, err := s.Campaigns().OpenWAL("wal", wal.Options{FS: wal.NewMemFS(), SyncInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { wlog.Close() })
	wlog.SetReplayDuration(125 * time.Millisecond)
	s.AttachWAL(wlog)

	client := NewClient(ts.URL)
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := client.Solve(ctx, kinds.KindBudget, testBudgetRequest()); err != nil {
			t.Fatal(err)
		}
	}
	if code := statusOf(t, http.MethodPost, ts.URL+"/v1/solve/budget", "{"); code != http.StatusBadRequest {
		t.Fatalf("malformed solve: status %d, want 400", code)
	}
	if code := statusOf(t, http.MethodGet, ts.URL+"/v1/solve/budget", ""); code != http.StatusMethodNotAllowed {
		t.Fatalf("GET on a solve route: status %d, want 405", code)
	}

	static, err := client.CreateCampaign(ctx, kinds.KindDeadline, campaignDeadlineRequest(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.ObserveCampaign(ctx, static.ID, 12, []int{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.CampaignPrice(ctx, static.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := client.FinishCampaign(ctx, static.ID); err != nil {
		t.Fatal(err)
	}
	adaptive, err := client.CreateCampaign(ctx, kinds.KindDeadline, campaignDeadlineRequest(), &CampaignAdaptiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.ObserveCampaign(ctx, adaptive.ID, 9, []int{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Healthz(ctx); err != nil {
		t.Fatal(err)
	}

	res, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile("testdata/metrics_exposition.golden")
	if err != nil {
		t.Fatal(err)
	}
	got := expositionShape(string(body))
	want := strings.Split(strings.TrimSuffix(string(golden), "\n"), "\n")
	for i := 0; i < len(got) || i < len(want); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Fatalf("/metrics line %d differs from the golden file:\n got: %q\nwant: %q", i+1, g, w)
		}
	}
}

// statusOf sends one request with an optional body and returns the
// response status, draining the body.
func statusOf(t *testing.T, method, url, body string) int {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if _, err := io.Copy(io.Discard, res.Body); err != nil {
		t.Fatal(err)
	}
	return res.StatusCode
}

// TestRequestAndErrorCountPerRoute drives every route once and checks the
// snapshot's counters: each request moves Requests by exactly one, and
// Errors by one exactly when the answer is not 2xx or the handler
// panicked.
func TestRequestAndErrorCountPerRoute(t *testing.T) {
	reg := engine.NewRegistry()
	for _, kind := range kinds.Default().Kinds() {
		def, _ := kinds.Default().Lookup(kind)
		reg.Register(def)
	}
	reg.Register(engine.KindDef{
		Kind: "kaboom",
		New:  func() engine.Spec { panic("constructor exploded") },
	})
	s, ts := newTestServer(t, Options{Registry: reg})

	jsonBody := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	create := jsonBody(CreateCampaignRequest{Kind: kinds.KindDeadline, Request: json.RawMessage(jsonBody(campaignDeadlineRequest()))})

	// The campaign routes need a live id: the create step records it.
	var id string
	step := func(name, method, path, body string, wantStatus int, wantError bool) {
		t.Helper()
		before := s.Metrics()
		req, err := http.NewRequest(method, ts.URL+strings.ReplaceAll(path, "{id}", id), strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		res, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		_, err = buf.ReadFrom(res.Body)
		res.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if res.StatusCode != wantStatus {
			t.Fatalf("%s: status %d, want %d (%s)", name, res.StatusCode, wantStatus, buf.String())
		}
		if name == "campaign create" {
			var st CampaignState
			if err := json.Unmarshal(buf.Bytes(), &st); err != nil {
				t.Fatal(err)
			}
			id = st.ID
		}
		after := s.Metrics()
		if d := after.Requests - before.Requests; d != 1 {
			t.Errorf("%s: Requests moved by %d, want 1", name, d)
		}
		wantErrors := int64(0)
		if wantError {
			wantErrors = 1
		}
		if d := after.Errors - before.Errors; d != wantErrors {
			t.Errorf("%s: Errors moved by %d, want %d", name, d, wantErrors)
		}
	}

	step("solve", http.MethodPost, "/v1/solve/budget", jsonBody(testBudgetRequest()), http.StatusOK, false)
	step("malformed solve", http.MethodPost, "/v1/solve/budget", "{", http.StatusBadRequest, true)
	step("GET on a solve route", http.MethodGet, "/v1/solve/budget", "", http.StatusMethodNotAllowed, true)
	step("campaign create", http.MethodPost, "/v1/campaigns", create, http.StatusOK, false)
	step("campaign observe", http.MethodPost, "/v1/campaigns/{id}/observe", `{"arrivals": 12, "completed": 1}`, http.StatusOK, false)
	step("campaign price", http.MethodGet, "/v1/campaigns/{id}/price", "", http.StatusOK, false)
	step("campaign state", http.MethodGet, "/v1/campaigns/{id}", "", http.StatusOK, false)
	step("campaign finish", http.MethodDelete, "/v1/campaigns/{id}", "", http.StatusOK, false)
	step("price on an unknown id", http.MethodGet, "/v1/campaigns/no-such-campaign/price", "", http.StatusNotFound, true)
	step("healthz", http.MethodGet, "/healthz", "", http.StatusOK, false)
	step("metrics", http.MethodGet, "/metrics", "", http.StatusOK, false)
	step("analytics", http.MethodGet, "/v1/analytics", "", http.StatusOK, false)
	step("debug requests", http.MethodGet, "/debug/requests", "", http.StatusOK, false)
	step("panicking kind", http.MethodPost, "/v1/solve/kaboom", "{}", http.StatusInternalServerError, true)
}
