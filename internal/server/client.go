package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"crowdpricing/internal/engine"
	"crowdpricing/internal/telemetry"
)

// Client is a typed HTTP client for the pricing service. The zero value is
// not usable; create one with NewClient. Safe for concurrent use.
type Client struct {
	// BaseURL is the daemon's root, e.g. "http://localhost:8080".
	BaseURL string
	// HTTP is the underlying client; nil means http.DefaultClient. Set a
	// Timeout here to bound the whole round trip client-side (the daemon
	// separately bounds solve time with its -timeout flag).
	HTTP *http.Client
}

// NewClient returns a Client for the daemon at baseURL.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: baseURL}
}

// APIError is a non-2xx reply from the daemon, carrying the HTTP status and
// the server's structured error message when one was sent. Inspect
// StatusCode to distinguish client faults (400), backpressure (429, the
// admission queue was full — retry later), and timeouts (504).
type APIError struct {
	// StatusCode is the numeric HTTP status, e.g. 429.
	StatusCode int
	// Status is the full status line, e.g. "429 Too Many Requests".
	Status string
	// Message is the daemon's error body, when it sent one.
	Message string
	// RetryAfter is the daemon's Retry-After hint (zero when the header was
	// absent or unparseable). On backpressure replies it is how long the
	// daemon suggests waiting before retrying.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	if e.Message != "" {
		return fmt.Sprintf("server: %s: %s", e.Status, e.Message)
	}
	return fmt.Sprintf("server: %s", e.Status)
}

// IsBackpressure reports whether the daemon shed this request because its
// solve queue was full (HTTP 429); the request did no solver work and can
// be retried after a backoff.
func (e *APIError) IsBackpressure() bool { return e.StatusCode == http.StatusTooManyRequests }

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// do executes one JSON round trip: method on path with in as the body (nil
// sends no body) and the 200 response decoded into out.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	res, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		apiErr := &APIError{StatusCode: res.StatusCode, Status: res.Status}
		if secs, err := strconv.Atoi(res.Header.Get("Retry-After")); err == nil && secs >= 0 {
			apiErr.RetryAfter = time.Duration(secs) * time.Second
		}
		var e errorResponse
		if json.NewDecoder(io.LimitReader(res.Body, 1<<16)).Decode(&e) == nil && e.Error != "" {
			apiErr.Message = e.Error
		}
		return apiErr
	}
	buf := bodyBuffers.Get().(*[]byte)
	defer bodyBuffers.Put(buf)
	data, err := readAll(res.Body, res.ContentLength, maxBodyBytes, (*buf)[:0])
	if err != nil {
		return err
	}
	*buf = data[:0]
	if resp, ok := out.(*SolveResponse); ok {
		return decodeSolve(data, resp)
	}
	return json.Unmarshal(data, out)
}

// decodeSolve decodes a solve response body into out. A body that
// splitSolve can split decodes with one scan of its artifact; every other
// body goes through json.Unmarshal, so the outcome is json.Unmarshal's
// either way, error for error.
func decodeSolve(data []byte, out *SolveResponse) error {
	if resp, ok := splitSolve(data); ok {
		*out = resp
		return nil
	}
	return json.Unmarshal(data, out)
}

// resultKey is the envelope member writeSolve writes last, just ahead of
// the artifact.
var resultKey = []byte(`"result":`)

// jsonSpace is JSON's insignificant whitespace. bytes.TrimSpace would also
// strip Unicode spaces, which json.Unmarshal rejects.
const jsonSpace = " \t\r\n"

// splitSolve decodes body in one scan of its artifact when body has the
// layout writeSolve produces: the head fields, then "result":, then the
// artifact, then }. json.Unmarshal validates the whole body and then scans
// the artifact again to find its end; here the artifact is validated once
// and copied. It reports false for every body it cannot show decodes as
// json.Unmarshal would decode it. At the first "result": in body,
//   - the byte before it is { or ,, which rules out a match inside an
//     escaped key such as "x\"result";
//   - the body up to the artifact, with null} appended, decodes into a
//     SolveResponse, so the match is a member of the top-level object: a
//     match inside a nested value leaves that head unbalanced, and one at
//     a string's closing quote leaves a bare word in it;
//   - after the artifact come only whitespace and one }, and
//     engine.ValidJSON, which accepts exactly what json.Valid accepts,
//     accepts the artifact, so "result" is that object's last member.
//
// Result is then a copy of the artifact without its surrounding whitespace,
// as json.Unmarshal would leave it.
func splitSolve(body []byte) (SolveResponse, bool) {
	var resp SolveResponse
	i := bytes.Index(body, resultKey)
	if i < 1 || (body[i-1] != '{' && body[i-1] != ',') {
		return resp, false
	}
	end := i + len(resultKey)
	tail := bytes.TrimRight(body[end:], jsonSpace)
	if len(tail) == 0 || tail[len(tail)-1] != '}' {
		return resp, false
	}
	artifact := bytes.Trim(tail[:len(tail)-1], jsonSpace)
	// The full slice expression makes append copy the head instead of
	// writing "null}" over the artifact.
	head := append(body[:end:end], "null}"...)
	if json.Unmarshal(head, &resp) != nil || !engine.ValidJSON(artifact) {
		return resp, false
	}
	resp.Result = append(json.RawMessage(nil), artifact...)
	return resp, true
}

// bodyBuffers recycles the buffers do reads responses into. json.Unmarshal
// and splitSolve copy every byte they keep, so a buffer is free again once
// its body is decoded, and back-to-back solves of one size read into the
// same memory.
var bodyBuffers = sync.Pool{New: func() any { return new([]byte) }}

// readAll reads src to its end into b's backing array, or into one new
// buffer when that is too small, and returns what it read, up to the
// error when a read fails. A size hint between 0 and limit sizes the
// buffer up front, so a body of the declared length costs at most one
// allocation instead of the doubling garbage a json.Decoder leaves
// behind. The hint is only that: past limit, or when absent (-1), the
// buffer grows as bytes arrive, so a body that declares a huge length and
// sends little costs what it sent.
func readAll(src io.Reader, size, limit int64, b []byte) ([]byte, error) {
	if size < 0 || size > limit {
		size = 512
	}
	// io.ReadAll's loop, starting from the hinted size instead of 512
	// bytes. The spare byte lets the read that reports EOF land without a
	// grow, so a correct hint costs at most one allocation.
	if int64(cap(b)) < size+1 {
		b = make([]byte, 0, size+1)
	}
	for {
		n, err := src.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}

// Solve is the one request path for every problem kind: POST req to
// /v1/solve/{kind} and return the envelope. kind is any name the daemon's
// registry serves ("deadline", "budget", "tradeoff", "multi", …) and req
// its wire body — typically one of the request structs, but any
// JSON-marshalable value with the right shape works. Decode the result
// with SolveResponse.Decode, or DecodePolicy / DecodeBudget /
// DecodeTradeoff for the classic kinds.
//
// The envelope is decoded with one scan of the artifact (engine.ValidJSON),
// relying on result being its last field as the daemon writes it. The
// client checks that the body is one JSON object whose head fields decode
// into a SolveResponse and whose last member is a valid result; any other
// body is decoded by json.Unmarshal, so the returned envelope and error are
// the same as json.Unmarshal's on every body.
func (c *Client) Solve(ctx context.Context, kind string, req any) (*SolveResponse, error) {
	var out SolveResponse
	if err := c.do(ctx, http.MethodPost, "/v1/solve/"+kind, req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// CreateCampaign registers a stateful campaign: spec is the kind's solve
// request (a kinds.DeadlineRequest value, or any JSON-marshalable body of
// the right shape), adaptive optionally enables §5.2.5 re-planning
// (deadline only). The returned state carries the campaign ID the other
// campaign calls take.
func (c *Client) CreateCampaign(ctx context.Context, kind string, spec any, adaptive *CampaignAdaptiveOptions) (*CampaignState, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	var out CampaignState
	if err := c.do(ctx, http.MethodPost, "/v1/campaigns", CreateCampaignRequest{
		Kind:     kind,
		Request:  body,
		Adaptive: adaptive,
	}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// ObserveCampaign records one elapsed interval: observed worker arrivals
// and tasks completed (one entry per task type; nil means none).
func (c *Client) ObserveCampaign(ctx context.Context, id string, arrivals float64, completed []int) (*CampaignState, error) {
	var out CampaignState
	req := CampaignObserveRequest{Arrivals: arrivals, Completed: completed}
	if err := c.do(ctx, http.MethodPost, "/v1/campaigns/"+url.PathEscape(id)+"/observe", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// CampaignPrice quotes the price the campaign's policy dictates for its
// current state — the O(1) hot path.
func (c *Client) CampaignPrice(ctx context.Context, id string) (*CampaignQuote, error) {
	var out CampaignQuote
	if err := c.do(ctx, http.MethodGet, "/v1/campaigns/"+url.PathEscape(id)+"/price", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// CampaignState reads a campaign's current state.
func (c *Client) CampaignState(ctx context.Context, id string) (*CampaignState, error) {
	var out CampaignState
	if err := c.do(ctx, http.MethodGet, "/v1/campaigns/"+url.PathEscape(id), nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// FinishCampaign removes the campaign and returns its terminal accounting.
func (c *Client) FinishCampaign(ctx context.Context, id string) (*CampaignSummary, error) {
	var out CampaignSummary
	if err := c.do(ctx, http.MethodDelete, "/v1/campaigns/"+url.PathEscape(id), nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Analytics reads the daemon's live analytics plane: the fleet λ̂ and
// cohort fold plus, when tracing is on, per-stage latency summaries.
func (c *Client) Analytics(ctx context.Context) (*AnalyticsResponse, error) {
	var out AnalyticsResponse
	if err := c.do(ctx, http.MethodGet, "/v1/analytics", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// DebugRequests reads the daemon's slowest recent request traces.
func (c *Client) DebugRequests(ctx context.Context) ([]telemetry.TraceSummary, error) {
	var out []telemetry.TraceSummary
	if err := c.do(ctx, http.MethodGet, "/debug/requests", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Healthz reads the daemon's liveness status.
func (c *Client) Healthz(ctx context.Context) (*HealthStatus, error) {
	var out HealthStatus
	if err := c.do(ctx, http.MethodGet, "/healthz", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}
