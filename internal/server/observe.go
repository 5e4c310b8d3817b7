package server

import (
	"errors"
	"net/http"

	"crowdpricing/internal/analytics"
	"crowdpricing/internal/hdr"
	"crowdpricing/internal/telemetry"
)

// This file is the read side of the observability plane: the
// /v1/analytics and /debug/requests endpoints (its /metrics families are
// rows of the table in metrics.go). The write side — trace spans and the
// campaign event sink — lives in route(), the handlers, and
// internal/campaign.

// StageSummary condenses one pipeline stage's duration histogram for
// /v1/analytics (milliseconds; the /metrics histogram keeps base
// seconds).
type StageSummary struct {
	Count  int64   `json:"count"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P99MS  float64 `json:"p99_ms"`
	MaxMS  float64 `json:"max_ms"`
}

func summarizeStage(h *hdr.Histogram) StageSummary {
	return StageSummary{
		Count:  h.Count(),
		MeanMS: h.Mean() / 1e6,
		P50MS:  float64(h.Quantile(0.50)) / 1e6,
		P99MS:  float64(h.Quantile(0.99)) / 1e6,
		MaxMS:  float64(h.Max()) / 1e6,
	}
}

// AnalyticsResponse is the GET /v1/analytics body: the live traffic fold
// and, when tracing is on, a per-stage latency summary keyed by stage
// name in pipeline order.
type AnalyticsResponse struct {
	Analytics *analytics.Snapshot     `json:"analytics"`
	Stages    map[string]StageSummary `json:"stages,omitempty"`
}

func (s *Server) handleAnalytics(w http.ResponseWriter, r *http.Request) {
	resp := AnalyticsResponse{Analytics: s.analytics.Snapshot()}
	if s.tracer != nil {
		resp.Stages = make(map[string]StageSummary, telemetry.NumStages)
		for st := telemetry.Stage(0); st < telemetry.NumStages; st++ {
			if h := s.tracer.StageHistogram(st); h.Count() > 0 {
				resp.Stages[st.String()] = summarizeStage(h)
			}
		}
	}
	s.ok(w, resp)
}

// handleDebugRequests serves the slowest recent traces of each route:
// JSON by default, a human-readable table with ?format=text. 404 when
// tracing is disabled — like the WAL families, a daemon without the
// subsystem exposes no empty surface for it.
func (s *Server) handleDebugRequests(w http.ResponseWriter, r *http.Request) {
	if s.tracer == nil {
		s.fail(w, http.StatusNotFound, errors.New("request tracing is disabled"))
		return
	}
	summaries := s.tracer.Snapshot()
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		telemetry.WriteText(w, summaries)
		return
	}
	s.ok(w, summaries)
}
