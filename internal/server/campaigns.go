package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"crowdpricing/internal/campaign"
	"crowdpricing/internal/engine"
	"crowdpricing/internal/telemetry"
)

// The campaign API is the service's stateful surface: where /v1/solve/*
// returns a whole policy for the caller to execute, a campaign keeps the
// policy and the execution state server-side and answers "what should I pay
// right now" in O(1). Lifecycle:
//
//	POST   /v1/campaigns               create (solves, or reuses, the policy)
//	POST   /v1/campaigns/{id}/observe  record one interval's arrivals/completions
//	GET    /v1/campaigns/{id}/price    quote the current price  (the hot path)
//	GET    /v1/campaigns/{id}          read state without touching it
//	DELETE /v1/campaigns/{id}          finish, returning the summary
//
// The implementation lives in internal/campaign; this file is the wire
// layer: request/response envelopes, routes, and the error → status map.

// CampaignAdaptiveOptions enables §5.2.5 adaptive re-planning on a deadline
// campaign; zero fields pick the defaults (factors 0.5…1.5, window 9).
type CampaignAdaptiveOptions = campaign.AdaptiveOptions

// CampaignState is a campaign's current view, returned by create, observe,
// and state reads.
type CampaignState = campaign.State

// CampaignQuote is one priced lookup from a live campaign.
type CampaignQuote = campaign.Quote

// CampaignSummary is the terminal accounting returned by finish.
type CampaignSummary = campaign.Summary

// CreateCampaignRequest registers a new campaign: a problem kind with a
// sequential price table (deadline, tradeoff, or multi — budget strategies
// are static and have no notion of "the current price"), the kind's wire
// request verbatim, and optionally the adaptive controller.
type CreateCampaignRequest struct {
	// Kind is the registry kind name, e.g. "deadline".
	Kind string `json:"kind"`
	// Request is the kind's solve request body, exactly as /v1/solve/{kind}
	// would take it.
	Request json.RawMessage `json:"request"`
	// Adaptive enables adaptive re-planning (deadline campaigns only).
	Adaptive *CampaignAdaptiveOptions `json:"adaptive,omitempty"`
}

// FlexCounts is a per-type count vector that also accepts a bare integer on
// the wire — the common single-type case reads naturally as
// {"completed": 3} while multi campaigns send {"completed": [1, 2]}.
type FlexCounts []int

// UnmarshalJSON accepts an int, an array of ints, or null.
func (f *FlexCounts) UnmarshalJSON(data []byte) error {
	data = bytes.TrimSpace(data)
	if len(data) == 0 || string(data) == "null" {
		*f = nil
		return nil
	}
	if data[0] == '[' {
		return json.Unmarshal(data, (*[]int)(f))
	}
	var n int
	if err := json.Unmarshal(data, &n); err != nil {
		return fmt.Errorf("completed must be an integer or an array of integers: %w", err)
	}
	*f = FlexCounts{n}
	return nil
}

// CampaignObserveRequest records one elapsed interval.
type CampaignObserveRequest struct {
	// Arrivals is the number of marketplace worker arrivals observed in the
	// interval (observable on trackers like mturk-tracker, per §2.1).
	Arrivals float64 `json:"arrivals"`
	// Completed is how many tasks were completed this interval — a bare
	// integer for single-type campaigns, an array (one entry per type) for
	// multi. Omitted means none.
	Completed FlexCounts `json:"completed,omitempty"`
}

// Campaigns exposes the campaign manager for embedding applications (and
// cmd/priced's event-log boot: OpenWAL, ReplayWAL); HTTP callers use the
// /v1/campaigns API.
func (s *Server) Campaigns() *campaign.Manager { return s.campaigns }

// counted wraps a campaign handler with the request counter (the method
// check lives in the route pattern, unlike the legacy solve routes).
func (s *Server) counted(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		h(w, r)
	}
}

// respondCampaign maps a campaign outcome to HTTP: unknown IDs are 404,
// malformed requests and unsupported kinds 400, a full campaign table or
// solve queue 429 backpressure, timeouts 504.
func (s *Server) respondCampaign(w http.ResponseWriter, v any, err error) {
	switch {
	case err == nil:
		s.ok(w, v)
	case errors.Is(err, campaign.ErrNotFound):
		s.fail(w, http.StatusNotFound, err)
	case errors.Is(err, campaign.ErrUnsupportedKind),
		errors.Is(err, campaign.ErrAdaptiveUnsupported),
		errors.Is(err, campaign.ErrBadInput),
		engine.IsInvalidSpec(err):
		s.fail(w, http.StatusBadRequest, err)
	case errors.Is(err, campaign.ErrTableFull), errors.Is(err, engine.ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		s.fail(w, http.StatusTooManyRequests, err)
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		s.fail(w, http.StatusGatewayTimeout, errors.New("campaign solve timed out; the policy is still being computed, retry the create"))
	default:
		s.fail(w, http.StatusInternalServerError, err)
	}
}

func (s *Server) handleCampaignCreate(w http.ResponseWriter, r *http.Request) {
	var req CreateCampaignRequest
	if err := decodeInto(w, r, &req); err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	if req.Kind == "" || len(req.Request) == 0 {
		s.fail(w, http.StatusBadRequest, errors.New(`create needs "kind" and "request"`))
		return
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	st, err := s.campaigns.Create(ctx, req.Kind, req.Request, req.Adaptive)
	s.respondCampaign(w, st, err)
}

func (s *Server) handleCampaignObserve(w http.ResponseWriter, r *http.Request) {
	var req CampaignObserveRequest
	if err := decodeInto(w, r, &req); err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	st, err := s.campaigns.ObserveTraced(telemetry.FromContext(r.Context()),
		r.PathValue("id"), req.Arrivals, req.Completed)
	s.respondCampaign(w, st, err)
}

func (s *Server) handleCampaignPrice(w http.ResponseWriter, r *http.Request) {
	q, err := s.campaigns.QuoteTraced(telemetry.FromContext(r.Context()), r.PathValue("id"))
	s.respondCampaign(w, q, err)
}

func (s *Server) handleCampaignState(w http.ResponseWriter, r *http.Request) {
	st, err := s.campaigns.State(r.PathValue("id"))
	s.respondCampaign(w, st, err)
}

func (s *Server) handleCampaignFinish(w http.ResponseWriter, r *http.Request) {
	sum, err := s.campaigns.Finish(r.PathValue("id"))
	s.respondCampaign(w, sum, err)
}
