package server

import (
	"encoding/json"
	"fmt"

	"crowdpricing/internal/core"
	"crowdpricing/internal/kinds"
)

// The wire-level problem specifications live in internal/kinds (one Spec
// implementation per problem kind, registered with the engine's registry);
// this file re-exports them under their historical server names so existing
// callers keep compiling, and defines the server-owned SolveResponse
// envelope that wraps any kind generically.

// LogisticParams is the wire form of the Equation-3 acceptance curve.
type LogisticParams = kinds.LogisticParams

// DeadlineRequest asks for a fixed-deadline dynamic pricing policy
// (Section 3).
type DeadlineRequest = kinds.DeadlineRequest

// BudgetRequest asks for a fixed-budget static allocation (Section 4).
type BudgetRequest = kinds.BudgetRequest

// TradeoffRequest asks for a cost/latency trade-off policy (Section 6).
type TradeoffRequest = kinds.TradeoffRequest

// MultiRequest asks for the general-k multi-type joint pricing policy
// (Section 6 extension).
type MultiRequest = kinds.MultiRequest

// BudgetStrategy is the solved budget allocation on the wire.
type BudgetStrategy = kinds.BudgetStrategy

// TradeoffSchedule is the solved trade-off policy on the wire.
type TradeoffSchedule = kinds.TradeoffSchedule

// MultiSchedule is the solved general-k multi-type policy on the wire.
type MultiSchedule = kinds.MultiSchedule

// Problem kinds, as they appear in /v1/solve/{kind} routes and responses.
const (
	KindDeadline = kinds.KindDeadline
	KindBudget   = kinds.KindBudget
	KindTradeoff = kinds.KindTradeoff
	KindMulti    = kinds.KindMulti
)

// Budget solve methods.
const (
	BudgetMethodHull  = kinds.BudgetMethodHull
	BudgetMethodExact = kinds.BudgetMethodExact
)

// Trade-off formulations.
const (
	TradeoffWorkerArrival = kinds.TradeoffWorkerArrival
	TradeoffFixedRate     = kinds.TradeoffFixedRate
)

// Service-level size limits (see internal/kinds for the rationale).
const (
	MaxTasks       = kinds.MaxTasks
	MaxIntervals   = kinds.MaxIntervals
	MaxStateCells  = kinds.MaxStateCells
	MaxPriceRange  = kinds.MaxPriceRange
	MaxBudget      = kinds.MaxBudget
	MaxExactTasks  = kinds.MaxExactTasks
	MaxExactBudget = kinds.MaxExactBudget
)

// SolveResponse is the envelope every solve endpoint returns. Result holds
// the solved artifact exactly as cached — a core.DeadlinePolicy JSON
// document for deadline requests, a BudgetStrategy for budget requests, and
// so on — so concurrent and repeated requests for the same problem receive
// byte-identical artifacts.
type SolveResponse struct {
	// Kind is the problem kind that produced Result ("deadline", "budget",
	// "tradeoff", "multi", …).
	Kind string `json:"kind"`
	// Fingerprint identifies the solved artifact: the solver variant plus
	// the canonical content hash of the problem (core.*.Fingerprint). Equal
	// problems always map to equal fingerprints, across processes and runs.
	Fingerprint string `json:"fingerprint"`
	// CacheHit reports whether the artifact was served from the warm cache
	// without waiting on any solver.
	CacheHit bool `json:"cache_hit"`
	// SolveMillis is the time this request spent waiting for the solver
	// (the full solve for the caller that ran it, the residual wait for
	// callers deduplicated onto it). Zero on a warm cache hit.
	SolveMillis float64 `json:"solve_ms"`
	// Result is the solved artifact; decode it with Decode (any kind) or
	// the typed DecodePolicy / DecodeBudget / DecodeTradeoff helpers.
	Result json.RawMessage `json:"result"`
}

// Decode unmarshals the solved artifact into v — the kind-generic path
// (e.g. a *MultiSchedule for "multi" responses).
func (r *SolveResponse) Decode(v any) error {
	return json.Unmarshal(r.Result, v)
}

// DecodePolicy decodes a deadline Result into a solved policy ready for
// PriceAt / Evaluate.
func (r *SolveResponse) DecodePolicy() (*core.DeadlinePolicy, error) {
	if r.Kind != KindDeadline {
		return nil, fmt.Errorf("server: DecodePolicy on %q response", r.Kind)
	}
	// UnmarshalJSON directly, which validates the whole input itself;
	// json.Unmarshal would scan the artifact twice more before calling it.
	var pol core.DeadlinePolicy
	if err := pol.UnmarshalJSON(r.Result); err != nil {
		return nil, err
	}
	return &pol, nil
}

// DecodeBudget decodes a budget Result.
func (r *SolveResponse) DecodeBudget() (*BudgetStrategy, error) {
	if r.Kind != KindBudget {
		return nil, fmt.Errorf("server: DecodeBudget on %q response", r.Kind)
	}
	var s BudgetStrategy
	if err := json.Unmarshal(r.Result, &s); err != nil {
		return nil, err
	}
	return &s, nil
}

// DecodeTradeoff decodes a trade-off Result.
func (r *SolveResponse) DecodeTradeoff() (*TradeoffSchedule, error) {
	if r.Kind != KindTradeoff {
		return nil, fmt.Errorf("server: DecodeTradeoff on %q response", r.Kind)
	}
	var s TradeoffSchedule
	if err := json.Unmarshal(r.Result, &s); err != nil {
		return nil, err
	}
	return &s, nil
}

// errorResponse is the JSON body of every non-2xx reply.
type errorResponse struct {
	Error string `json:"error"`
}
