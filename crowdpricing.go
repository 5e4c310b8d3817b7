// Package crowdpricing prices batches of human computation tasks on a
// crowdsourcing marketplace, reproducing "Finish Them!: Pricing Algorithms
// for Human Computation" (Gao & Parameswaran, VLDB 2014).
//
// Two optimization problems are solved:
//
//   - Fixed deadline (Section 3 of the paper): given N tasks and a deadline,
//     dynamically vary the per-task reward over discretized time intervals to
//     minimize the expected total payment while finishing on time — a
//     finite-horizon Markov Decision Process solved by backward induction
//     with Poisson truncation and monotone price search.
//   - Fixed budget (Section 4): given N tasks and a budget, choose the
//     up-front static prices minimizing the expected completion time — at
//     most two prices, found on the lower convex hull of (c, 1/p(c)).
//
// This root package re-exports the library's primary types so applications
// outside the repository see one import path; the implementation lives in
// the internal packages (core, choice, rate, nhpp, market, …), and the
// examples/ directory shows complete workflows.
//
// # Pricing as a service
//
// The solvers also run as a long-lived daemon (cmd/priced) exposing an
// HTTP/JSON API: every problem kind in the engine registry (deadline,
// budget, tradeoff, and the general-k multi-type extension) is served from
// one generic POST /v1/solve/{kind} handler behind an LRU cache of solved
// policies keyed by a canonical content hash of the problem. Cold solves
// run on an admission-controlled worker pool (bounded queue, HTTP 429
// shedding under overload), warm solves return in microseconds, and
// concurrent identical requests are deduplicated onto a single solve.
// NewPricingServer embeds the service in another process; NewPricingClient
// talks to a running daemon — its one Solve(ctx, kind, req) covers any
// registered kind, and SolveResponse.DecodePolicy, DecodeBudget and
// DecodeTradeoff turn a reply's artifact into the typed solution; the
// request and response types (DeadlineRequest, BudgetRequest,
// TradeoffRequest, MultiRequest, SolveResponse, …) are re-exported here.
//
// # Online campaigns
//
// Beyond one-shot solves, the daemon runs stateful campaigns — the paper's
// intended online loop. POST /v1/campaigns registers a batch under a solved
// policy (deadline, tradeoff, or multi), the server tracks the remaining
// tasks and elapsed intervals as the requester reports observations, and
// GET /v1/campaigns/{id}/price answers "what should I pay right now" in
// O(1) from the policy table. Deadline campaigns optionally re-plan
// adaptively (§5.2.5): a bank of policies pre-solved over a grid of
// arrival-rate scale factors, switched by a trailing-window rate estimate
// on every observation. Idle campaigns expire on a TTL, and with an event
// log attached (priced -wal-dir) every mutation is logged and replayed at
// boot, so restarts and crashes resume quoting identical prices.
// See PricingClient.CreateCampaign / ObserveCampaign / CampaignPrice /
// FinishCampaign.
//
// # Building and testing
//
// The module is plain Go with no dependencies outside the standard library:
//
//	go build ./...   # compile every package, command, and example
//	go test ./...    # unit, property, and statistical tests
//	go vet ./...     # static checks (also run by CI)
//
// The deadline solvers are benchmarked in internal/core:
//
//	go test ./internal/core/ -run XXX -bench 'PaperScale|Large'
//
// All simulation randomness flows through internal/dist's seeded generator,
// so every test and figure is reproducible run-to-run. The MDP solvers are
// exact and serial, so equal problems give bit-identical policies; the
// pricing service runs many solves side by side instead of splitting one.
package crowdpricing

import (
	"crowdpricing/internal/choice"
	"crowdpricing/internal/core"
	"crowdpricing/internal/kinds"
	"crowdpricing/internal/rate"
	"crowdpricing/internal/server"
)

// DeadlineProblem is a fixed-deadline pricing instance (Section 3).
type DeadlineProblem = core.DeadlineProblem

// DeadlinePolicy is a solved dynamic price schedule.
type DeadlinePolicy = core.DeadlinePolicy

// BudgetProblem is a fixed-budget pricing instance (Section 4).
type BudgetProblem = core.BudgetProblem

// StaticStrategy is an up-front price allocation (at most two prices).
type StaticStrategy = core.StaticStrategy

// TradeoffProblem optimizes a weighted cost/latency objective (Section 6).
type TradeoffProblem = core.TradeoffProblem

// MultiProblem is the general-k multiple-task-type extension (Section 6):
// k types share one worker stream, each with its own acceptance curve and
// price, solved jointly over the product state space.
type MultiProblem = core.MultiProblem

// MultiPolicy is a solved general-k joint pricing policy.
type MultiPolicy = core.MultiPolicy

// AcceptanceFn maps a reward in cents to a task acceptance probability.
type AcceptanceFn = choice.AcceptanceFn

// Logistic is the parametric acceptance curve of Equation (3).
type Logistic = choice.Logistic

// RateFn is a worker arrival-rate function λ(t) with exact integration.
type RateFn = rate.Fn

// Paper13 is the acceptance curve calibrated in Section 5.1.2 of the paper
// (Equation 13): a Data Collection task with a 2-minute completion time.
var Paper13 = choice.Paper13

// ConstantRate returns the homogeneous arrival rate λ(t) = perHour.
func ConstantRate(perHour float64) RateFn { return rate.Constant(perHour) }

// IntervalMeans splits [0, horizon] hours into n intervals and returns the
// expected worker arrivals per interval, the λ_t inputs of DeadlineProblem.
func IntervalMeans(fn RateFn, horizon float64, n int) []float64 {
	return rate.IntervalMeans(fn, horizon, n)
}

// PricingServer is the embeddable pricing service behind cmd/priced: an
// HTTP/JSON solver frontend with a fingerprint-keyed LRU policy cache and
// singleflight deduplication of concurrent identical requests.
type PricingServer = server.Server

// PricingServerOptions configures a PricingServer; the zero value is
// production-ready.
type PricingServerOptions = server.Options

// PricingClient is a typed HTTP client for a running pricing daemon.
type PricingClient = server.Client

// DeadlineRequest asks the service for a fixed-deadline dynamic pricing
// policy (Section 3).
type DeadlineRequest = kinds.DeadlineRequest

// BudgetRequest asks the service for a fixed-budget static allocation
// (Section 4).
type BudgetRequest = kinds.BudgetRequest

// TradeoffRequest asks the service for a cost/latency trade-off policy
// (Section 6).
type TradeoffRequest = kinds.TradeoffRequest

// MultiRequest asks the service for a general-k multi-type joint pricing
// policy; solve it through PricingClient.Solve(ctx, "multi", req) and
// decode the result with SolveResponse.Decode into a MultiSchedule.
type MultiRequest = kinds.MultiRequest

// MultiSchedule is the solved general-k policy on the wire.
type MultiSchedule = kinds.MultiSchedule

// SolveResponse is the envelope every solve endpoint returns; decode the
// artifact with DecodePolicy, DecodeBudget, or DecodeTradeoff.
type SolveResponse = server.SolveResponse

// BudgetStrategyResult is the solved budget allocation on the wire.
type BudgetStrategyResult = kinds.BudgetStrategy

// TradeoffSchedule is the solved trade-off policy on the wire.
type TradeoffSchedule = kinds.TradeoffSchedule

// LogisticParams is the wire form of the Equation-3 acceptance curve.
type LogisticParams = kinds.LogisticParams

// PricingAPIError is a non-2xx reply from the pricing daemon; inspect
// StatusCode to pick a retry strategy. On 429 queue shedding
// IsBackpressure reports true and RetryAfter carries the daemon's
// Retry-After hint: the request did no work and can be sent again after
// that wait.
type PricingAPIError = server.APIError

// CampaignAdaptiveOptions enables the paper's §5.2.5 adaptive re-planning
// on a deadline campaign (pre-solved factor bank, trailing-window rate
// estimate); zero fields pick the defaults.
type CampaignAdaptiveOptions = server.CampaignAdaptiveOptions

// CampaignState is a live campaign's wire-facing view, returned by
// PricingClient.CreateCampaign, ObserveCampaign, and CampaignState.
type CampaignState = server.CampaignState

// CampaignQuote is one O(1) price lookup from a live campaign
// (PricingClient.CampaignPrice).
type CampaignQuote = server.CampaignQuote

// CampaignSummary is the terminal accounting returned by
// PricingClient.FinishCampaign.
type CampaignSummary = server.CampaignSummary

// CreateCampaignRequest is the wire body of POST /v1/campaigns: a problem
// kind with a sequential price table plus its solve request verbatim.
type CreateCampaignRequest = server.CreateCampaignRequest

// NewPricingServer builds the pricing service; expose it with Handler or
// mount it inside an existing mux.
func NewPricingServer(opts PricingServerOptions) *PricingServer { return server.New(opts) }

// NewPricingClient returns a client for the daemon at baseURL, e.g.
// "http://localhost:8080".
func NewPricingClient(baseURL string) *PricingClient { return server.NewClient(baseURL) }
