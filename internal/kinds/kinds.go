// Package kinds defines the wire-level problem specifications for every
// problem kind the pricing service solves, and registers them with the
// engine's kind registry. Each request type is a JSON codec over one
// internal/core problem plus an engine.Spec implementation (validate,
// fingerprint, solve), so the HTTP server, the typed client, the batch
// fan-out, and the load generator stay kind-generic: adding a problem kind
// is one Spec implementation here plus one Register call in Default — no
// per-kind code anywhere else.
package kinds

import (
	"context"
	"encoding/json"
	"fmt"

	"crowdpricing/internal/choice"
	"crowdpricing/internal/core"
	"crowdpricing/internal/engine"
)

// Kind names, as they appear in /v1/solve/{kind} routes, batch items,
// metrics labels, and bench mixes.
const (
	KindDeadline = "deadline"
	KindBudget   = "budget"
	KindTradeoff = "tradeoff"
	KindMulti    = "multi"
)

// LogisticParams is the wire form of the Equation-3 acceptance curve
// p(c) = exp(c/S − B) / (exp(c/S − B) + M). It is the only acceptance
// representation the service accepts: an arbitrary AcceptanceFn has no
// canonical content to hash, and the cache is keyed by content.
type LogisticParams struct {
	S float64 `json:"s"`
	B float64 `json:"b"`
	M float64 `json:"m"`
}

func (l LogisticParams) curve() choice.Logistic {
	return choice.Logistic{S: l.S, B: l.B, M: l.M}
}

// Service-level size limits. The library itself is uncapped, but a shared
// daemon must bound what one request can make it allocate: a deadline
// policy is O(N·Intervals) cells, the DP tables are O(priceRange·N), and
// the exact budget DP is O(N·Budget) space and O(N·Budget·priceRange)
// time. Every limit is far above paper scale (N=200, 72 intervals, C=50).
// Requests beyond a limit are rejected with HTTP 400 before any solver
// work.
const (
	// MaxTasks bounds N for every problem kind.
	MaxTasks = 10_000
	// MaxIntervals bounds the deadline discretization.
	MaxIntervals = 10_000
	// MaxStateCells bounds N·Intervals, the solved deadline policy size.
	MaxStateCells = 1_000_000
	// MaxPriceRange bounds MaxPrice − MinPrice for every problem kind.
	MaxPriceRange = 1_000
	// MaxBudget bounds the budget in cents (hull method).
	MaxBudget = 1_000_000
	// MaxExactTasks and MaxExactBudget bound the pseudo-polynomial exact
	// budget DP, whose cost scales with N·Budget rather than N alone.
	MaxExactTasks  = 500
	MaxExactBudget = 50_000
	// MaxMultiTypes and MaxMultiStates bound the general-k joint DP, whose
	// state space is ∏(Nᵢ+1); the core solver enforces its own (looser)
	// tractability budgets on top.
	MaxMultiTypes  = 4
	MaxMultiStates = 100_000
)

// DeadlineRequest asks for a fixed-deadline dynamic pricing policy
// (Section 3 of the paper): complete N tasks within HorizonHours at minimum
// expected cost. It mirrors core.DeadlineProblem field for field, minus the
// runtime-only Workers knob, which the engine owns.
type DeadlineRequest struct {
	// N is the number of tasks in the batch.
	N int `json:"n"`
	// HorizonHours is the time before the deadline.
	HorizonHours float64 `json:"horizon_hours"`
	// Intervals is the number of price-change intervals; len(Lambdas) must
	// equal it.
	Intervals int `json:"intervals"`
	// Lambdas[t] is the expected number of worker arrivals in interval t.
	Lambdas []float64 `json:"lambdas"`
	// Accept is the acceptance curve.
	Accept LogisticParams `json:"accept"`
	// MinPrice and MaxPrice bound the price search in cents (inclusive).
	MinPrice int `json:"min_price"`
	MaxPrice int `json:"max_price"`
	// Penalty is the terminal cost per unfinished task; Alpha the optional
	// Section 3.3 surcharge.
	Penalty float64 `json:"penalty"`
	Alpha   float64 `json:"alpha,omitempty"`
	// TruncEps is the Poisson truncation threshold (0 = exact sums).
	TruncEps float64 `json:"trunc_eps,omitempty"`

	// workers is the engine's solver-parallelism hint; runtime-only, never
	// on the wire, never in the fingerprint.
	workers int
}

// Kind implements engine.Spec.
func (r *DeadlineRequest) Kind() string { return KindDeadline }

// SetSolverParallelism implements engine.Tunable: the deadline MDP fans its
// backward induction out over this many goroutines.
func (r *DeadlineRequest) SetSolverParallelism(workers int) { r.workers = workers }

func (r *DeadlineRequest) checkLimits() error {
	switch {
	case r.N > MaxTasks:
		return fmt.Errorf("n %d exceeds the service limit %d", r.N, MaxTasks)
	case r.Intervals > MaxIntervals:
		return fmt.Errorf("intervals %d exceeds the service limit %d", r.Intervals, MaxIntervals)
	case r.N > 0 && r.Intervals > 0 && r.N*r.Intervals > MaxStateCells:
		return fmt.Errorf("n×intervals %d exceeds the service limit %d", r.N*r.Intervals, MaxStateCells)
	case r.MaxPrice-r.MinPrice > MaxPriceRange:
		return fmt.Errorf("price range %d exceeds the service limit %d", r.MaxPrice-r.MinPrice, MaxPriceRange)
	}
	return nil
}

func (r *DeadlineRequest) problem() *core.DeadlineProblem {
	return &core.DeadlineProblem{
		N:         r.N,
		Horizon:   r.HorizonHours,
		Intervals: r.Intervals,
		Lambdas:   r.Lambdas,
		Accept:    r.Accept.curve(),
		MinPrice:  r.MinPrice,
		MaxPrice:  r.MaxPrice,
		Penalty:   r.Penalty,
		Alpha:     r.Alpha,
		TruncEps:  r.TruncEps,
		Workers:   r.workers,
	}
}

// Validate implements engine.Spec.
func (r *DeadlineRequest) Validate() error {
	if err := r.checkLimits(); err != nil {
		return err
	}
	return r.problem().Validate()
}

// Fingerprint implements engine.Spec: the solver variant plus the canonical
// content hash of the problem (core.DeadlineProblem.Fingerprint).
func (r *DeadlineRequest) Fingerprint() (string, error) {
	if err := r.checkLimits(); err != nil {
		return "", err
	}
	fp, err := r.problem().Fingerprint()
	if err != nil {
		return "", err
	}
	return "deadline/efficient:" + fp, nil
}

// Solve implements engine.Spec, running Algorithm 2 (ImprovedDP). The
// artifact is the policy's own MarshalJSON output, called directly:
// json.Marshal(pol) would produce the same bytes but re-validate and copy
// all of them (~305 KB at paper scale) after the method returned.
func (r *DeadlineRequest) Solve(ctx context.Context) ([]byte, error) {
	pol, err := r.problem().SolveEfficient()
	if err != nil {
		return nil, err
	}
	return pol.MarshalJSON()
}

// Budget solve methods.
const (
	// BudgetMethodHull is Algorithm 3: the near-optimal two-price strategy
	// from the lower convex hull of (c, 1/p(c)). The default.
	BudgetMethodHull = "hull"
	// BudgetMethodExact is the exact pseudo-polynomial DP of Theorem 6.
	BudgetMethodExact = "exact"
)

// BudgetRequest asks for a fixed-budget static price allocation
// (Section 4): complete N tasks within Budget cents while minimizing the
// expected completion time.
type BudgetRequest struct {
	N      int `json:"n"`
	Budget int `json:"budget"`
	// Accept is the acceptance curve.
	Accept LogisticParams `json:"accept"`
	// MinPrice and MaxPrice bound candidate prices in cents (inclusive).
	MinPrice int `json:"min_price"`
	MaxPrice int `json:"max_price"`
	// Method selects the solver: BudgetMethodHull (default) or
	// BudgetMethodExact. The method is part of the cache key — the two
	// solvers may return different (equally valid) allocations.
	Method string `json:"method,omitempty"`
}

// Kind implements engine.Spec.
func (r *BudgetRequest) Kind() string { return KindBudget }

func (r *BudgetRequest) checkLimits(method string) error {
	switch {
	case r.N > MaxTasks:
		return fmt.Errorf("n %d exceeds the service limit %d", r.N, MaxTasks)
	case r.Budget > MaxBudget:
		return fmt.Errorf("budget %d exceeds the service limit %d", r.Budget, MaxBudget)
	case r.MaxPrice-r.MinPrice > MaxPriceRange:
		return fmt.Errorf("price range %d exceeds the service limit %d", r.MaxPrice-r.MinPrice, MaxPriceRange)
	}
	if method == BudgetMethodExact {
		if r.N > MaxExactTasks {
			return fmt.Errorf("n %d exceeds the service limit %d for method %q", r.N, MaxExactTasks, method)
		}
		if r.Budget > MaxExactBudget {
			return fmt.Errorf("budget %d exceeds the service limit %d for method %q", r.Budget, MaxExactBudget, method)
		}
	}
	return nil
}

func (r *BudgetRequest) problem() *core.BudgetProblem {
	return &core.BudgetProblem{
		N:        r.N,
		Budget:   r.Budget,
		Accept:   r.Accept.curve(),
		MinPrice: r.MinPrice,
		MaxPrice: r.MaxPrice,
	}
}

func (r *BudgetRequest) method() (string, error) {
	switch r.Method {
	case "", BudgetMethodHull:
		return BudgetMethodHull, nil
	case BudgetMethodExact:
		return BudgetMethodExact, nil
	default:
		return "", fmt.Errorf("unknown budget method %q (want %q or %q)", r.Method, BudgetMethodHull, BudgetMethodExact)
	}
}

// Validate implements engine.Spec.
func (r *BudgetRequest) Validate() error {
	method, err := r.method()
	if err != nil {
		return err
	}
	if err := r.checkLimits(method); err != nil {
		return err
	}
	return r.problem().Validate()
}

// Fingerprint implements engine.Spec; the solve method is part of the key.
func (r *BudgetRequest) Fingerprint() (string, error) {
	method, err := r.method()
	if err != nil {
		return "", err
	}
	if err := r.checkLimits(method); err != nil {
		return "", err
	}
	fp, err := r.problem().Fingerprint()
	if err != nil {
		return "", err
	}
	return "budget/" + method + ":" + fp, nil
}

// Solve implements engine.Spec.
func (r *BudgetRequest) Solve(ctx context.Context) ([]byte, error) {
	method, err := r.method()
	if err != nil {
		return nil, err
	}
	p := r.problem()
	var strat core.StaticStrategy
	if method == BudgetMethodExact {
		strat, err = p.SolveExactDP()
	} else {
		strat, err = p.SolveHull()
	}
	if err != nil {
		return nil, err
	}
	return json.Marshal(BudgetStrategy{
		Counts:                 strat.Counts,
		TotalCost:              strat.TotalCost(),
		ExpectedWorkerArrivals: strat.ExpectedWorkerArrivals(p.Accept),
	})
}

// BudgetStrategy is the solved allocation: how many tasks to post at each
// price, with the headline statistics precomputed server-side.
type BudgetStrategy struct {
	// Counts maps price in cents to the number of tasks at that price; by
	// Theorem 7 at most two prices appear.
	Counts map[int]int `json:"counts"`
	// TotalCost is the committed spend Σ c·n_c in cents.
	TotalCost int `json:"total_cost"`
	// ExpectedWorkerArrivals is E[W] = Σ 1/p(cᵢ) (Theorem 5), the quantity
	// every budget strategy minimizes.
	ExpectedWorkerArrivals float64 `json:"expected_worker_arrivals"`
}

// Trade-off formulations.
const (
	// TradeoffWorkerArrival transitions per worker arrival under the
	// Section 4.2.2 linearity assumption. The default.
	TradeoffWorkerArrival = "worker_arrival"
	// TradeoffFixedRate assumes a constant rate and unit-time steps small
	// enough that at most one task completes per step.
	TradeoffFixedRate = "fixed_rate"
)

// TradeoffRequest asks for the stationary policy minimizing the Section 6
// combined objective E(cost) + Alpha·E(latency), with neither a hard
// deadline nor a hard budget.
type TradeoffRequest struct {
	N int `json:"n"`
	// Alpha is the latency weight in cost units per hour.
	Alpha float64 `json:"alpha"`
	// Lambda is the average worker arrival rate per hour.
	Lambda float64 `json:"lambda"`
	// Accept is the acceptance curve.
	Accept LogisticParams `json:"accept"`
	// MinPrice and MaxPrice bound the price search in cents (inclusive).
	MinPrice int `json:"min_price"`
	MaxPrice int `json:"max_price"`
	// Formulation selects TradeoffWorkerArrival (default) or
	// TradeoffFixedRate; like the budget method it is part of the cache key.
	Formulation string `json:"formulation,omitempty"`
}

// Kind implements engine.Spec.
func (r *TradeoffRequest) Kind() string { return KindTradeoff }

func (r *TradeoffRequest) checkLimits() error {
	switch {
	case r.N > MaxTasks:
		return fmt.Errorf("n %d exceeds the service limit %d", r.N, MaxTasks)
	case r.MaxPrice-r.MinPrice > MaxPriceRange:
		return fmt.Errorf("price range %d exceeds the service limit %d", r.MaxPrice-r.MinPrice, MaxPriceRange)
	}
	return nil
}

func (r *TradeoffRequest) problem() *core.TradeoffProblem {
	return &core.TradeoffProblem{
		N:        r.N,
		Alpha:    r.Alpha,
		Lambda:   r.Lambda,
		Accept:   r.Accept.curve(),
		MinPrice: r.MinPrice,
		MaxPrice: r.MaxPrice,
	}
}

func (r *TradeoffRequest) formulation() (string, error) {
	switch r.Formulation {
	case "", TradeoffWorkerArrival:
		return TradeoffWorkerArrival, nil
	case TradeoffFixedRate:
		return TradeoffFixedRate, nil
	default:
		return "", fmt.Errorf("unknown tradeoff formulation %q (want %q or %q)", r.Formulation, TradeoffWorkerArrival, TradeoffFixedRate)
	}
}

// Validate implements engine.Spec.
func (r *TradeoffRequest) Validate() error {
	if _, err := r.formulation(); err != nil {
		return err
	}
	if err := r.checkLimits(); err != nil {
		return err
	}
	return r.problem().Validate()
}

// Fingerprint implements engine.Spec; the formulation is part of the key.
func (r *TradeoffRequest) Fingerprint() (string, error) {
	form, err := r.formulation()
	if err != nil {
		return "", err
	}
	if err := r.checkLimits(); err != nil {
		return "", err
	}
	fp, err := r.problem().Fingerprint()
	if err != nil {
		return "", err
	}
	return "tradeoff/" + form + ":" + fp, nil
}

// Solve implements engine.Spec.
func (r *TradeoffRequest) Solve(ctx context.Context) ([]byte, error) {
	form, err := r.formulation()
	if err != nil {
		return nil, err
	}
	p := r.problem()
	var pol *core.TradeoffPolicy
	if form == TradeoffFixedRate {
		pol, err = p.SolveFixedRate()
	} else {
		pol, err = p.SolveWorkerArrival()
	}
	if err != nil {
		return nil, err
	}
	return json.Marshal(TradeoffSchedule{Price: pol.Price, Value: pol.Value})
}

// TradeoffSchedule is the solved stationary policy: Price[n] is the reward
// to post while n tasks remain, Value[n] the optimal expected remaining
// objective.
type TradeoffSchedule struct {
	Price []int     `json:"price"`
	Value []float64 `json:"value"`
}

// MultiRequest asks for the paper's Section 6 multiple-task-type extension
// at general k: jointly price k task types sharing one worker stream, each
// type with its own acceptance curve and remaining count, minimizing
// expected total payment plus terminal penalties. It mirrors
// core.MultiProblem field for field.
type MultiRequest struct {
	// Counts holds the batch size per type; len(Counts) is the number of
	// types k.
	Counts []int `json:"counts"`
	// Intervals is the number of discretization intervals; len(Lambdas)
	// must equal it.
	Intervals int `json:"intervals"`
	// Lambdas[t] is the expected worker arrivals in interval t.
	Lambdas []float64 `json:"lambdas"`
	// Accepts holds one acceptance curve per type, in type order.
	Accepts []LogisticParams `json:"accepts"`
	// MinPrice and MaxPrice bound every type's price in cents (inclusive).
	MinPrice int `json:"min_price"`
	MaxPrice int `json:"max_price"`
	// Penalty is the terminal cost per unfinished task of any type.
	Penalty float64 `json:"penalty"`
	// TruncEps is the Poisson truncation threshold (0 = exact sums).
	TruncEps float64 `json:"trunc_eps,omitempty"`
}

// Kind implements engine.Spec.
func (r *MultiRequest) Kind() string { return KindMulti }

func (r *MultiRequest) checkLimits() error {
	if len(r.Counts) > MaxMultiTypes {
		return fmt.Errorf("%d task types exceeds the service limit %d", len(r.Counts), MaxMultiTypes)
	}
	states := 1
	for _, n := range r.Counts {
		if n > MaxTasks {
			return fmt.Errorf("count %d exceeds the service limit %d", n, MaxTasks)
		}
		if n >= 0 {
			states *= n + 1
		}
		if states > MaxMultiStates {
			return fmt.Errorf("joint state space exceeds the service limit %d states", MaxMultiStates)
		}
	}
	if r.Intervals > MaxIntervals {
		return fmt.Errorf("intervals %d exceeds the service limit %d", r.Intervals, MaxIntervals)
	}
	if r.Intervals > 0 && states*r.Intervals > MaxStateCells {
		return fmt.Errorf("states×intervals %d exceeds the service limit %d", states*r.Intervals, MaxStateCells)
	}
	if r.MaxPrice-r.MinPrice > MaxPriceRange {
		return fmt.Errorf("price range %d exceeds the service limit %d", r.MaxPrice-r.MinPrice, MaxPriceRange)
	}
	return nil
}

func (r *MultiRequest) problem() *core.MultiProblem {
	accepts := make([]choice.AcceptanceFn, len(r.Accepts))
	for i, a := range r.Accepts {
		accepts[i] = a.curve()
	}
	return &core.MultiProblem{
		Counts:    r.Counts,
		Intervals: r.Intervals,
		Lambdas:   r.Lambdas,
		Accepts:   accepts,
		MinPrice:  r.MinPrice,
		MaxPrice:  r.MaxPrice,
		Penalty:   r.Penalty,
		TruncEps:  r.TruncEps,
	}
}

// Validate implements engine.Spec.
func (r *MultiRequest) Validate() error {
	if err := r.checkLimits(); err != nil {
		return err
	}
	return r.problem().Validate()
}

// Fingerprint implements engine.Spec.
func (r *MultiRequest) Fingerprint() (string, error) {
	if err := r.checkLimits(); err != nil {
		return "", err
	}
	fp, err := r.problem().Fingerprint()
	if err != nil {
		return "", err
	}
	return "multi/joint:" + fp, nil
}

// Solve implements engine.Spec, running the joint backward induction over
// the k-type state space.
func (r *MultiRequest) Solve(ctx context.Context) ([]byte, error) {
	pol, err := r.problem().Solve()
	if err != nil {
		return nil, err
	}
	// The initial state (every count at its maximum) is the last index in
	// the row-major layout, so Opt[0]'s final entry is the expected total
	// objective of the whole run.
	start := len(pol.Opt[0]) - 1
	return json.Marshal(MultiSchedule{
		Counts:    r.Counts,
		Intervals: r.Intervals,
		Prices:    pol.Prices,
		Value:     pol.Opt[0][start],
	})
}

// MultiSchedule is the solved general-k policy on the wire: Prices[t][s] is
// the optimal price vector (one price per type) at interval t in joint
// state s, states enumerated row-major over the count vectors (the last
// type's count varies fastest). Value is the expected total objective from
// the initial full-count state.
type MultiSchedule struct {
	Counts    []int     `json:"counts"`
	Intervals int       `json:"intervals"`
	Prices    [][][]int `json:"prices"`
	Value     float64   `json:"value"`
}

// Default returns the registry holding every built-in problem kind, in
// canonical order: deadline, budget, tradeoff, multi. The registry is
// shared — treat it as read-only.
func Default() *engine.Registry { return defaultRegistry }

var defaultRegistry = func() *engine.Registry {
	r := engine.NewRegistry()
	r.Register(engine.KindDef{
		Kind:   KindDeadline,
		Doc:    "Section 3 fixed-deadline dynamic pricing policy (backward-induction MDP)",
		New:    func() engine.Spec { return new(DeadlineRequest) },
		Sample: sampleDeadline,
	})
	r.Register(engine.KindDef{
		Kind:   KindBudget,
		Doc:    "Section 4 fixed-budget static allocation (convex hull or exact DP)",
		New:    func() engine.Spec { return new(BudgetRequest) },
		Sample: sampleBudget,
	})
	r.Register(engine.KindDef{
		Kind:   KindTradeoff,
		Doc:    "Section 6 cost/latency trade-off stationary policy",
		New:    func() engine.Spec { return new(TradeoffRequest) },
		Sample: sampleTradeoff,
	})
	r.Register(engine.KindDef{
		Kind:   KindMulti,
		Doc:    "Section 6 multi-type extension at general k (joint price vectors)",
		New:    func() engine.Spec { return new(MultiRequest) },
		Sample: sampleMulti,
	})
	return r
}()
