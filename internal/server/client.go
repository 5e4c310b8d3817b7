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
	"time"

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
	data, err := readBody(res)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, out)
}

// readBody reads a response body into one buffer. A Content-Length up to
// maxBodyBytes sizes the buffer up front, so a paper-scale solve response
// (~305 KB) costs one allocation instead of the doubling garbage a
// json.Decoder leaves behind. The header is only a hint: past the cap, or
// when absent, the buffer grows as bytes arrive, so a response that
// declares a huge length and sends little costs what it sent.
func readBody(res *http.Response) ([]byte, error) {
	size := res.ContentLength
	if size < 0 || size > maxBodyBytes {
		size = 512
	}
	// io.ReadAll's loop, starting from the hinted size instead of 512
	// bytes. The spare byte lets the read that reports EOF land without a
	// grow, so a correct hint costs exactly one allocation.
	b := make([]byte, 0, size+1)
	for {
		n, err := res.Body.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return nil, err
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
func (c *Client) Solve(ctx context.Context, kind string, req any) (*SolveResponse, error) {
	var out SolveResponse
	if err := c.do(ctx, http.MethodPost, "/v1/solve/"+kind, req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// CreateCampaign registers a stateful campaign: spec is the kind's solve
// request (a DeadlineRequest value, or any JSON-marshalable body of the
// right shape), adaptive optionally enables §5.2.5 re-planning (deadline
// only). The returned state carries the campaign ID the other campaign
// calls take.
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
