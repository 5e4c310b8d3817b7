package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"crowdpricing/internal/engine"
	"crowdpricing/internal/kinds"
)

// markupSpec is a problem kind whose fingerprint and artifact carry the
// characters encoding/json escapes for HTML, to pin that the envelope's
// head fields are escaped exactly as json.Encoder escapes them.
type markupSpec struct {
	ID string `json:"id"`
}

func (s *markupSpec) Kind() string    { return "markup" }
func (s *markupSpec) Validate() error { return nil }
func (s *markupSpec) Fingerprint() (string, error) {
	return "markup/<&>:" + s.ID, nil
}
func (s *markupSpec) Solve(ctx context.Context) ([]byte, error) {
	return json.Marshal(map[string]string{"tag": "<b>" + s.ID + "</b> & co"})
}

// postRaw posts body to path and returns the status, the raw response
// bytes and the declared Content-Length.
func postRaw(t *testing.T, url, body string) (int, []byte, int64) {
	t.Helper()
	res, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	raw, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	return res.StatusCode, raw, res.ContentLength
}

// TestSolveEnvelopeBytes pins the single-solve body the server writes with
// the cached artifact spliced in verbatim: for every built-in kind at the
// small and paper sizes, on the miss and on the hit, and for a kind whose
// fingerprint and artifact hold HTML-escaped characters, the body equals
// json.NewEncoder(&buf).Encode of the same SolveResponse, and the
// Content-Length header declares its exact length. The deadline artifact
// equals json.Marshal of the policy it decodes to. Every body also takes
// the client's one-scan branch (splitSolve) to the envelope json.Unmarshal
// gives, so a change that moves result off the envelope's end fails here
// instead of silently costing Client.Solve a second scan of the artifact.
func TestSolveEnvelopeBytes(t *testing.T) {
	reg := engine.NewRegistry()
	for _, kind := range kinds.Default().Kinds() {
		def, _ := kinds.Default().Lookup(kind)
		reg.Register(def)
	}
	reg.Register(engine.KindDef{Kind: "markup", New: func() engine.Spec { return new(markupSpec) }})
	_, ts := newTestServer(t, Options{Registry: reg})

	type problem struct {
		name, kind string
		body       []byte
	}
	var problems []problem
	for _, kind := range kinds.Default().Kinds() {
		def, _ := kinds.Default().Lookup(kind)
		for _, size := range []string{"small", "paper"} {
			body, err := json.Marshal(def.Sample(42, size))
			if err != nil {
				t.Fatal(err)
			}
			problems = append(problems, problem{kind + "/" + size, kind, body})
		}
	}
	problems = append(problems, problem{"markup", "markup", []byte(`{"id":"<i>"}`)})

	for _, p := range problems {
		for _, wantHit := range []bool{false, true} {
			status, raw, length := postRaw(t, ts.URL+"/v1/solve/"+p.kind, string(p.body))
			if status != http.StatusOK {
				t.Fatalf("%s: status %d: %s", p.name, status, raw)
			}
			if length != int64(len(raw)) {
				t.Errorf("%s: Content-Length %d, body has %d bytes", p.name, length, len(raw))
			}
			var resp SolveResponse
			if err := json.Unmarshal(raw, &resp); err != nil {
				t.Fatalf("%s: %v", p.name, err)
			}
			if split, ok := splitSolve(raw); !ok || !reflect.DeepEqual(split, resp) {
				t.Errorf("%s (hit=%v): one-scan decode applied %v, differs from json.Unmarshal", p.name, wantHit, ok)
			}
			if resp.CacheHit != wantHit || resp.Kind != p.kind {
				t.Fatalf("%s: kind %q cache_hit %v, want %q and %v", p.name, resp.Kind, resp.CacheHit, p.kind, wantHit)
			}
			var want bytes.Buffer
			if err := json.NewEncoder(&want).Encode(&resp); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(raw, want.Bytes()) {
				t.Errorf("%s (hit=%v): body differs from json.Encoder's\n got: %.200s\nwant: %.200s", p.name, wantHit, raw, want.Bytes())
			}
			if p.kind == kinds.KindDeadline {
				pol, err := resp.DecodePolicy()
				if err != nil {
					t.Fatal(err)
				}
				marshaled, err := json.Marshal(pol)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(resp.Result, marshaled) {
					t.Errorf("%s: artifact differs from json.Marshal of its policy", p.name)
				}
			}
		}
	}

	// The head fields on their own: escaped kind and fingerprint, and
	// solve_ms values whose text form encoding/json chooses (exponent or
	// not). The artifact is escaped as encoding/json escapes it.
	s := New(Options{})
	defer s.Close()
	for _, ms := range []float64{0, 1.25, 1e-7, 123456789.125, 3e21} {
		resp := &SolveResponse{
			Kind:        "a<&>b",
			Fingerprint: "fp/<&>\u2028\"q\"",
			CacheHit:    ms == 0,
			SolveMillis: ms,
			Result:      json.RawMessage(`{"x":"\u003c"}`),
		}
		rec := httptest.NewRecorder()
		s.writeSolve(rec, resp)
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(resp); err != nil {
			t.Fatal(err)
		}
		if got := rec.Body.Bytes(); !bytes.Equal(got, want.Bytes()) {
			t.Errorf("solve_ms %g: body %s, json.Encoder writes %s", ms, got, want.Bytes())
		}
		if split, ok := splitSolve(rec.Body.Bytes()); !ok || !reflect.DeepEqual(&split, resp) {
			t.Errorf("solve_ms %g: one-scan decode applied %v, gave %+v", ms, ok, split)
		}
		if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(want.Len()) {
			t.Errorf("solve_ms %g: Content-Length %s, want %d", ms, got, want.Len())
		}
	}
}

// TestNonJSONArtifactIs500: a solver that returns bytes that are not a
// JSON document gets a 500 naming its kind, on every request, because the
// engine's check runs before the cache and nothing was cached.
func TestNonJSONArtifactIs500(t *testing.T) {
	s, ts := newTestServer(t, Options{Registry: stubRegistry(nil)})
	for i := 0; i < 2; i++ {
		status, raw, _ := postRaw(t, ts.URL+"/v1/solve/stub", `{"id":"x","raw":true}`)
		var e errorResponse
		if err := json.Unmarshal(raw, &e); err != nil {
			t.Fatalf("request %d: status %d, body %q is not an error response: %v", i, status, raw, err)
		}
		if status != http.StatusInternalServerError || !strings.Contains(e.Error, "stub") {
			t.Fatalf("request %d: status %d, error %q; want 500 naming the kind", i, status, e.Error)
		}
	}
	if m := s.Metrics(); m.Solves != 2 || m.CacheEntries != 0 {
		t.Errorf("solves = %d, cache entries = %d; want 2 and 0", m.Solves, m.CacheEntries)
	}
}

// TestUnencodableReplyIs500: ok encodes before it writes, so a reply value
// that cannot be encoded is answered 500 with the encoder's error, not 200
// with an empty body.
func TestUnencodableReplyIs500(t *testing.T) {
	s := New(Options{})
	t.Cleanup(s.Close)
	rec := httptest.NewRecorder()
	s.ok(rec, map[string]float64{"observed_arrivals": math.Inf(1)})
	var e errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatalf("status %d, body %q is not an error response: %v", rec.Code, rec.Body, err)
	}
	if rec.Code != http.StatusInternalServerError || !strings.Contains(e.Error, "unsupported value") {
		t.Fatalf("status %d, error %q; want 500 naming the unsupported value", rec.Code, e.Error)
	}
}

// TestSaturatedCurveRequestSolves is a deadline request within every
// service limit whose acceptance curve saturates inside the price range
// (c/S − B passes 709.8 below max_price). It used to crash the daemon: the
// curve evaluated to NaN, and the NaN Poisson mean indexed a table at
// int(NaN) on a solver worker goroutine, out of reach of the engine's
// recover.
func TestSaturatedCurveRequestSolves(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	const body = `{"n":16,"horizon_hours":4,"intervals":8,"lambdas":[4,4,4,4,4,4,4,4],` +
		`"accept":{"s":1,"b":0,"m":2000},"min_price":1,"max_price":800,"penalty":1000}`
	status, raw, _ := postRaw(t, ts.URL+"/v1/solve/deadline", body)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	var resp SolveResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	pol, err := resp.DecodePolicy()
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(pol.Value) || math.IsInf(pol.Value, 0) {
		t.Fatalf("served Value = %v", pol.Value)
	}
	// The artifact carries no cost-to-go table, so check the whole table
	// on the same problem solved in-process, and the served value against
	// it.
	local, err := pol.Problem.SolveEfficient()
	if err != nil {
		t.Fatal(err)
	}
	for tt, row := range local.Opt {
		for n, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("Opt[%d][%d] = %v", tt, n, v)
			}
		}
	}
	if pol.Value != local.Value {
		t.Errorf("served Value = %v, in-process solve gives %v", pol.Value, local.Value)
	}
	for tt, row := range pol.Price {
		for n, c := range row {
			if c < 1 || c > 800 {
				t.Fatalf("Price[%d][%d] = %d outside [1, 800]", tt, n, c)
			}
		}
	}
}

// TestHugeArrivalRateRejected: a λ_t past kinds.MaxArrivals gets a 400
// naming the limit before any solve. Without the limit, λ·p(c) ≥ 2⁶³ made
// int(mean) wrap to math.MinInt64: the exact solve panicked indexing a
// Poisson table (a 500), the truncated one spun forever in the truncation
// walk and held a solver worker (a 504 at the request timeout). The multi
// kind shares those helpers, and an adaptive factor can scale a sane λ_t
// past the limit. The short RequestTimeout makes a missing check fail fast
// instead of hanging the test.
func TestHugeArrivalRateRejected(t *testing.T) {
	_, ts := newTestServer(t, Options{RequestTimeout: 2 * time.Second})
	const accept = `{"s":15,"b":0.4,"m":20}`
	for _, c := range []struct{ name, path, body string }{
		{"deadline exact", "/v1/solve/deadline",
			`{"n":10,"horizon_hours":1,"intervals":1,"lambdas":[1e300],"accept":` + accept +
				`,"min_price":1,"max_price":2,"penalty":10}`},
		{"deadline truncated", "/v1/solve/deadline",
			`{"n":10,"horizon_hours":1,"intervals":1,"lambdas":[1e300],"accept":` + accept +
				`,"min_price":1,"max_price":2,"penalty":10,"trunc_eps":1e-9}`},
		{"multi", "/v1/solve/multi",
			`{"counts":[2,2],"intervals":2,"lambdas":[4,1e300],"accepts":[` + accept + `,` + accept +
				`],"min_price":1,"max_price":2,"penalty":10,"trunc_eps":1e-9}`},
		{"adaptive factor", "/v1/campaigns",
			`{"kind":"deadline","request":{"n":10,"horizon_hours":1,"intervals":2,"lambdas":[4,4],"accept":` + accept +
				`,"min_price":1,"max_price":2,"penalty":10,"trunc_eps":1e-9},"adaptive":{"factors":[1,1e300]}}`},
	} {
		status, raw, _ := postRaw(t, ts.URL+c.path, c.body)
		if status != http.StatusBadRequest || !strings.Contains(string(raw), "service limit") {
			t.Errorf("%s: status %d, body %s; want 400 naming the service limit", c.name, status, raw)
		}
	}
}

// TestIntractableMultiRejected: a multi request inside every service limit
// and inside core's state and price-vector budgets, whose joint DP would
// sum 5.3e11 terms (hours on one solver worker), gets a 400 before any
// solve. A solve outlives its request's timeout, so without the work
// budget the short RequestTimeout answers 504 and leaves the worker busy.
func TestIntractableMultiRejected(t *testing.T) {
	s, ts := newTestServer(t, Options{RequestTimeout: 2 * time.Second})
	const accept = `{"s":15,"b":-0.39,"m":2000}`
	body := `{"counts":[100,100],"intervals":1,"lambdas":[1733],"accepts":[` + accept + `,` + accept +
		`],"min_price":1,"max_price":141,"penalty":300}`
	status, raw, _ := postRaw(t, ts.URL+"/v1/solve/multi", body)
	if status != http.StatusBadRequest || !strings.Contains(string(raw), "inner terms") {
		t.Errorf("status %d, body %s; want 400 naming the work budget", status, raw)
	}
	if m := s.Metrics(); m.Solves != 0 {
		t.Errorf("%d solves started, want 0", m.Solves)
	}
}

// TestWarmSolveAllocationFence bounds the bytes one warm paper-scale
// Client.Solve allocates, client and server together, at 3× the artifact.
// The artifact is written to the socket as cached and read into one
// buffer sized from Content-Length; re-encoding it per response and
// decoding it through a json.Decoder's doubling buffer cost ~4.8×.
func TestWarmSolveAllocationFence(t *testing.T) {
	def, _ := kinds.Default().Lookup(kinds.KindDeadline)
	req := def.Sample(42, "paper")
	_, ts := newTestServer(t, Options{})
	c := NewClient(ts.URL)
	ctx := context.Background()
	cold, err := c.Solve(ctx, kinds.KindDeadline, req)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ { // warm the connection and the pools
		if _, err := c.Solve(ctx, kinds.KindDeadline, req); err != nil {
			t.Fatal(err)
		}
	}
	// The process-wide byte counter also sees goroutines other tests left
	// behind, which can only add to it, so the smallest of a few batches is
	// the measurement.
	const batches, rounds = 3, 10
	perOp := math.Inf(1)
	for b := 0; b < batches; b++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < rounds; i++ {
			resp, err := c.Solve(ctx, kinds.KindDeadline, req)
			if err != nil {
				t.Fatal(err)
			}
			if !resp.CacheHit || len(resp.Result) != len(cold.Result) {
				t.Fatalf("cache_hit %v, %d-byte artifact; want a hit on the %d-byte one",
					resp.CacheHit, len(resp.Result), len(cold.Result))
			}
		}
		runtime.ReadMemStats(&after)
		perOp = min(perOp, float64(after.TotalAlloc-before.TotalAlloc)/rounds)
	}
	ratio := perOp / float64(len(cold.Result))
	t.Logf("warm solve allocates %.0f KiB for a %.0f KiB artifact (%.2fx)",
		perOp/1024, float64(len(cold.Result))/1024, ratio)
	if ratio > 3 {
		t.Errorf("warm solve allocates %.2fx the artifact; the fence is 3x", ratio)
	}
}
