// Package server turns the batch pricing library into pricing-as-a-service:
// a long-running daemon exposing every registered problem kind over
// HTTP/JSON through one generic, registry-driven handler, backed by
// internal/engine's admission-controlled solve scheduler — a shared LRU
// cache of solved artifacts keyed by canonical problem fingerprints,
// singleflight deduplication of concurrent identical requests, and a
// bounded worker pool + bounded queue that sheds overload with HTTP 429
// instead of spawning unbounded solver goroutines.
//
// The economics mirror the systems in PAPERS.md that keep hot state next to
// the compute: the expensive artifact here is a solved policy — a
// backward-induction MDP at paper scale runs for seconds, while a warm
// cache hit is a map lookup — and many requesters price similar batches, so
// deduplication is the common case, not the corner case.
//
// Endpoints:
//
//	POST /v1/solve/{kind}     any registered kind: deadline (Section 3),
//	                          budget (Section 4), tradeoff (Section 6),
//	                          multi (Section 6 extension), …
//	POST /v1/solve/batch      many problems of any kinds, one round trip
//	GET  /healthz             liveness + uptime
//	GET  /metrics             Prometheus-format counters, queue gauges,
//	                          per-kind solve/rejection counters, latency +
//	                          per-stage histograms, live λ̂/cohort analytics
//	GET  /v1/analytics        the live analytics plane: fleet λ̂, per-cohort
//	                          summaries, per-stage latency summaries
//	GET  /debug/requests      the slowest recent request traces, span by span
//
// cmd/priced wraps this package in a binary; the root crowdpricing package
// re-exports the client-facing types. Problem kinds are defined in
// internal/kinds; adding one requires no change here.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"crowdpricing/internal/analytics"
	"crowdpricing/internal/campaign"
	"crowdpricing/internal/engine"
	"crowdpricing/internal/hdr"
	"crowdpricing/internal/kinds"
	"crowdpricing/internal/telemetry"
	"crowdpricing/internal/wal"
)

// Defaults for Options zero values.
const (
	// DefaultCacheSize bounds the policy cache. A paper-scale deadline
	// policy (N=200, 72 intervals) serializes to ~305 KB, so the default
	// caps cache memory around a third of a gigabyte.
	DefaultCacheSize = engine.DefaultCacheSize
	// DefaultRequestTimeout bounds how long a request waits for its solve.
	DefaultRequestTimeout = 2 * time.Minute
	// DefaultQueueDepth bounds the engine's cold-solve admission queue.
	DefaultQueueDepth = engine.DefaultQueueDepth
	// MaxBatchItems bounds a single batch request.
	MaxBatchItems = 256
	// batchWorkers caps how many batch items this server submits to the
	// engine concurrently within one request; items beyond it queue.
	// Waiters on an in-flight identical solve hold a slot too, which is
	// fine — they are blocked, not burning CPU, and the cap exists to keep
	// one batch from monopolizing the engine's admission queue.
	batchWorkers = 16
)

// Options configures a Server. The zero value is production-ready.
type Options struct {
	// CacheSize is the maximum number of cached policies (0 =
	// DefaultCacheSize).
	CacheSize int
	// SolverWorkers is the goroutine count inside each cold deadline solve,
	// core.DeadlineProblem.Workers (0 = GOMAXPROCS).
	SolverWorkers int
	// RequestTimeout is how long a request may wait for its solve before
	// the daemon answers 504 (0 = DefaultRequestTimeout). The solve itself
	// keeps running and warms the cache for the retry.
	RequestTimeout time.Duration
	// Workers is the engine's solve worker-pool size — how many cold solves
	// run concurrently (0 = GOMAXPROCS).
	Workers int
	// QueueDepth bounds the engine's admission queue; cold solves beyond it
	// are shed with HTTP 429 (0 = DefaultQueueDepth).
	QueueDepth int
	// Registry maps kind names to problem specifications (nil =
	// kinds.Default(), the built-in deadline/budget/tradeoff/multi set).
	// Each spec's Solve must return one JSON document: the engine checks
	// every artifact once, when it is solved, and a request whose solver
	// returned anything else gets a 500 naming the kind. Responses then
	// carry the cached artifact byte for byte (see engine.Spec).
	Registry *engine.Registry
	// CampaignTTL expires campaigns idle for longer than this
	// (0 = campaign.DefaultTTL, 30 minutes; negative = never expire).
	CampaignTTL time.Duration
	// QuoterMemoryBudget bounds the bytes of decoded policy tables resident
	// across the campaign runtime's interned quoters (0 = unlimited). Over
	// budget, the least-recently-quoted tables are dropped and re-decoded
	// from the engine's cached artifact bytes on next use.
	QuoterMemoryBudget int64
	// LazyBank defers adaptive bank solving to first use; see
	// campaign.Options.LazyBank.
	LazyBank bool
	// TraceBuffer is how many of the slowest recent request traces
	// /debug/requests retains (0 = telemetry.DefaultKeep; negative
	// disables request tracing entirely, including the per-stage
	// histograms).
	TraceBuffer int
	// TraceSeed seeds the trace-ID generator — the only randomness in the
	// tracing plane, deterministic under a fixed seed by design.
	TraceSeed int64
	// AnalyticsWindow is the trailing-window length, in observed
	// intervals, of the live λ̂ re-fit (0 = analytics.DefaultWindow).
	AnalyticsWindow int
	// Logger receives structured request-failure logs, carrying the
	// request's trace ID when tracing is on (nil = discard).
	Logger *slog.Logger
}

// Server is the pricing service. Create with New, expose with Handler; a
// single Server is safe for arbitrary concurrent use. Close releases the
// engine's worker pool.
type Server struct {
	opts      Options
	registry  *engine.Registry
	engine    *engine.Engine
	campaigns *campaign.Manager
	mux       *http.ServeMux
	start     time.Time

	// latency holds one request-duration histogram per route, recorded
	// around the full handler (decode + cache + solve + encode) and
	// rendered as a Prometheus histogram on /metrics. It is the same
	// log-bucketed instrument the loadbench harness uses, so benchmark
	// reports and production scrapes bin latency identically.
	latency map[string]*hdr.Histogram

	requests   atomic.Int64 // HTTP requests accepted across all endpoints
	errorCount atomic.Int64 // non-2xx responses

	// wal, when attached, is the campaign event log whose counters are
	// rendered on /metrics.
	wal atomic.Pointer[wal.Log]

	// tracer is the request-tracing plane (nil when disabled): per-stage
	// duration histograms plus the keep-slowest trace ring behind
	// /debug/requests. analytics is the live λ̂/cohort fold, fed by the
	// campaign manager's event sink and, at AttachWAL, the recorded log.
	tracer    *telemetry.Tracer
	analytics *analytics.Aggregator
	logger    *slog.Logger
}

// New builds a Server; see Options for the knobs.
func New(opts Options) *Server {
	if opts.RequestTimeout <= 0 {
		opts.RequestTimeout = DefaultRequestTimeout
	}
	reg := opts.Registry
	if reg == nil {
		reg = kinds.Default()
	}
	s := &Server{
		opts:     opts,
		registry: reg,
		engine: engine.New(engine.Options{
			CacheSize:         opts.CacheSize,
			Workers:           opts.Workers,
			QueueDepth:        opts.QueueDepth,
			SolverParallelism: opts.SolverWorkers,
		}),
		mux: http.NewServeMux(),
		//crowdlint:allow determinism -- process start time feeds the uptime gauge only
		start:   time.Now(),
		latency: make(map[string]*hdr.Histogram),
	}
	s.logger = opts.Logger
	if s.logger == nil {
		s.logger = slog.New(slog.DiscardHandler)
	}
	if opts.TraceBuffer >= 0 {
		s.tracer = telemetry.NewTracer(opts.TraceBuffer, opts.TraceSeed)
	}
	s.analytics = analytics.New(opts.AnalyticsWindow)
	s.campaigns = campaign.NewManager(s.engine, reg, campaign.Options{
		TTL:                opts.CampaignTTL,
		QuoterMemoryBudget: opts.QuoterMemoryBudget,
		LazyBank:           opts.LazyBank,
	})
	s.campaigns.AttachSink(s.analytics)
	// One generic handler per registered kind: the route set is the
	// registry, so adding a problem kind adds its endpoint with no code
	// here. Kind names that would collide with the server's own routes are
	// rejected up front — otherwise the mux's duplicate-pattern panic would
	// surface with no hint of the cause.
	for _, kind := range reg.Kinds() {
		if kind == "batch" {
			panic(fmt.Sprintf("server: registry kind %q collides with the reserved /v1/solve/batch route", kind))
		}
		def, _ := reg.Lookup(kind)
		s.route("/v1/solve/"+kind, s.post(s.handleKind(def)))
	}
	s.route("/v1/solve/batch", s.post(s.handleBatch))
	// The stateful campaign API: method-scoped patterns, the modern mux
	// idiom — the wildcard {id} binds through r.PathValue.
	s.route("POST /v1/campaigns", s.counted(s.handleCampaignCreate))
	s.route("POST /v1/campaigns/{id}/observe", s.counted(s.handleCampaignObserve))
	s.route("GET /v1/campaigns/{id}/price", s.counted(s.handleCampaignPrice))
	s.route("GET /v1/campaigns/{id}", s.counted(s.handleCampaignState))
	s.route("DELETE /v1/campaigns/{id}", s.counted(s.handleCampaignFinish))
	s.route("/healthz", s.handleHealthz)
	s.route("/metrics", s.handleMetrics)
	s.route("GET /v1/analytics", s.handleAnalytics)
	s.route("GET /debug/requests", s.handleDebugRequests)
	return s
}

// Close stops the engine's worker pool and the campaign expiry sweeper;
// in-flight solves finish, queued ones fail fast. The HTTP surface keeps
// answering (warm hits and live campaigns still work).
func (s *Server) Close() {
	s.campaigns.Close()
	s.engine.Close()
}

// statusWriter captures the response status (and whether anything was
// written) so the route wrapper can attribute a status to every trace and
// still answer 500 when a handler panics before writing.
type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.status = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

// route registers h at path wrapped with request tracing and per-endpoint
// latency recording. The recording runs in a deferred recover, so every
// request lands in the histogram — panicking handlers and 429-shed
// requests included, not just the happy path — and a panic answers 500
// (when nothing was written yet) instead of killing the connection.
func (s *Server) route(path string, h http.HandlerFunc) {
	hist := hdr.New()
	s.latency[path] = hist
	s.mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
		//crowdlint:allow determinism -- request-latency histogram wants wall time
		begin := time.Now()
		tr := s.tracer.Start(path)
		if tr != nil {
			r = r.WithContext(telemetry.NewContext(r.Context(), tr))
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		defer func() {
			if rec := recover(); rec != nil {
				if sw.wrote {
					s.errorCount.Add(1)
				} else {
					s.fail(sw, http.StatusInternalServerError, errors.New("internal error"))
				}
				s.logger.Error("request handler panicked",
					"endpoint", path, "trace_id", tr.ID(), "panic", fmt.Sprint(rec))
			}
			//crowdlint:allow determinism -- request-latency histogram wants wall time
			hist.Record(time.Since(begin))
			s.tracer.Finish(tr, sw.status)
		}()
		h(sw, r)
	})
}

// Handler returns the HTTP handler serving the full API surface.
func (s *Server) Handler() http.Handler { return s.mux }

// AttachWAL makes the campaign event log live: the campaign manager
// starts emitting events to it and /metrics renders its counters. The
// log's recorded history is folded into the analytics plane first, so λ̂
// and the cohort summaries carry pre-restart traffic (ReplayWAL rebuilds
// state without emitting sink events — the fold here is the only source
// of recorded history, never a double count). Call it after replaying the
// log at boot (Campaigns().ReplayWAL) and before serving mutations.
func (s *Server) AttachWAL(l *wal.Log) {
	s.wal.Store(l)
	if err := campaign.FoldWAL(l, s.analytics); err != nil {
		// Analytics over a partly unreadable log is degraded, not fatal —
		// the transactional plane already replayed what it could.
		s.logger.Warn("analytics: folding event-log history failed", "error", err)
	}
	s.campaigns.AttachWAL(l)
}

// MetricsSnapshot is a consistent-enough point-in-time read of the
// counters, exposed for tests and for embedding applications; the /metrics
// endpoint renders the same numbers in Prometheus text format.
type MetricsSnapshot struct {
	Requests           int64
	CacheHits          int64
	CacheMisses        int64
	Solves             int64
	SingleflightShared int64
	Errors             int64
	CacheEntries       int64
	// QueueDepth and InFlightSolves are the engine's scheduler gauges.
	QueueDepth     int64
	InFlightSolves int64
	// SolvesByKind and RejectedByKind split solver executions and
	// queue-overflow rejections per problem kind.
	SolvesByKind   map[string]int64
	RejectedByKind map[string]int64
	// CampaignsActive is the live-campaign gauge; CampaignQuotes,
	// CampaignReplans, and CampaignsExpired are the campaign runtime's
	// lifetime counters.
	CampaignsActive  int64
	CampaignQuotes   int64
	CampaignReplans  int64
	CampaignsExpired int64
	// QuoterInterned and QuoterResidentBytes gauge the campaign runtime's
	// policy-table intern layer; QuoterInternHits / QuoterInternMisses /
	// QuoterRedecodes are its lifetime counters.
	QuoterInterned      int64
	QuoterResidentBytes int64
	QuoterInternHits    int64
	QuoterInternMisses  int64
	QuoterRedecodes     int64
}

// Metrics returns the current counter values.
func (s *Server) Metrics() MetricsSnapshot {
	em := s.engine.Metrics()
	cm := s.campaigns.Metrics()
	return MetricsSnapshot{
		CampaignsActive:     cm.Active,
		CampaignQuotes:      cm.Quotes,
		CampaignReplans:     cm.Replans,
		CampaignsExpired:    cm.Expired,
		QuoterInterned:      cm.QuoterInterned,
		QuoterResidentBytes: cm.QuoterResidentBytes,
		QuoterInternHits:    cm.QuoterInternHits,
		QuoterInternMisses:  cm.QuoterInternMisses,
		QuoterRedecodes:     cm.QuoterRedecodes,
		Requests:            s.requests.Load(),
		CacheHits:           em.CacheHits,
		CacheMisses:         em.CacheMisses,
		Solves:              em.Solves,
		SingleflightShared:  em.FlightShared,
		Errors:              s.errorCount.Load(),
		CacheEntries:        em.CacheEntries,
		QueueDepth:          em.QueueDepth,
		InFlightSolves:      em.InFlight,
		SolvesByKind:        em.SolvesByKind,
		RejectedByKind:      em.RejectedByKind,
	}
}

// post wraps a handler with method enforcement and the request counter.
func (s *Server) post(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			s.fail(w, http.StatusMethodNotAllowed, errors.New("use POST"))
			return
		}
		h(w, r)
	}
}

func (s *Server) fail(w http.ResponseWriter, status int, err error) {
	s.errorCount.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(errorResponse{Error: err.Error()})
}

func (s *Server) ok(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// solveSpec submits one spec to the engine and wraps the outcome in the
// service envelope.
func (s *Server) solveSpec(ctx context.Context, spec engine.Spec) (*SolveResponse, error) {
	res, err := s.engine.Solve(ctx, spec)
	if err != nil {
		return nil, err
	}
	return &SolveResponse{
		Kind:        spec.Kind(),
		Fingerprint: res.Fingerprint,
		CacheHit:    res.CacheHit,
		SolveMillis: res.SolveMillis,
		Result:      res.Value,
	}, nil
}

// writeSolve writes a single-solve 200 response with the cached artifact
// spliced in verbatim, where json.Encoder would re-validate and copy all of
// it on every response; the engine checked once, at solve time, that it is
// JSON. The head fields go through json.Marshal, so their escaping and the
// solve_ms format are unchanged: for an artifact encoding/json produced
// (compact, HTML-escaped) the body is byte-identical to
// json.NewEncoder(w).Encode(resp).
func (s *Server) writeSolve(w http.ResponseWriter, resp *SolveResponse) {
	head := *resp
	head.Result = nil
	b, err := json.Marshal(&head)
	if err != nil {
		s.fail(w, http.StatusInternalServerError, err)
		return
	}
	// Result is SolveResponse's last field, so b ends in `null}`.
	prefix := b[:len(b)-len("null}")]
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(prefix)+len(resp.Result)+len("}\n")))
	// A failed write means the client has gone; with the status already
	// sent there is no one left to report it to (s.ok drops it likewise).
	_, _ = w.Write(prefix)
	_, _ = w.Write(resp.Result)
	_, _ = io.WriteString(w, "}\n")
}

// respond maps a solve outcome to HTTP: validation problems are the
// client's fault (400), queue overflow is backpressure (429), timeouts are
// 504, anything else is 500.
func (s *Server) respond(w http.ResponseWriter, resp *SolveResponse, err error) {
	switch {
	case err == nil:
		s.writeSolve(w, resp)
	case engine.IsInvalidSpec(err):
		s.fail(w, http.StatusBadRequest, err)
	case errors.Is(err, engine.ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		s.fail(w, http.StatusTooManyRequests, err)
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		s.fail(w, http.StatusGatewayTimeout, errors.New("solve timed out; the policy is still being computed, retry to pick it up"))
	default:
		s.fail(w, http.StatusInternalServerError, err)
	}
}

// maxBodyBytes bounds request bodies so one connection cannot buffer
// unbounded JSON into memory. 32 MiB comfortably fits the largest
// acceptable batch (MaxBatchItems items at MaxIntervals lambdas each).
const maxBodyBytes = 32 << 20

func decodeInto(w http.ResponseWriter, r *http.Request, v any) error {
	tr := telemetry.FromContext(r.Context())
	start := tr.Now()
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	tr.ObserveSince(telemetry.StageServerDecode, start)
	if err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

func (s *Server) requestCtx(r *http.Request) (context.Context, context.CancelFunc) {
	return context.WithTimeout(r.Context(), s.opts.RequestTimeout)
}

// handleKind returns the generic solve handler for one registered kind:
// decode into the registry's Spec, submit to the engine, map the outcome.
func (s *Server) handleKind(def engine.KindDef) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		spec := def.New()
		if err := decodeInto(w, r, spec); err != nil {
			s.fail(w, http.StatusBadRequest, err)
			return
		}
		ctx, cancel := s.requestCtx(r)
		defer cancel()
		resp, err := s.solveSpec(ctx, spec)
		s.respond(w, resp, err)
	}
}

// batchJob pairs a decoded spec (or its decode error) with the result slot
// it answers into.
type batchJob struct {
	spec engine.Spec
	err  error
	slot *BatchResult
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if err := decodeInto(w, r, &req); err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	total := len(req.Items)
	if total == 0 {
		s.fail(w, http.StatusBadRequest, errors.New("empty batch"))
		return
	}
	if total > MaxBatchItems {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("batch has %d items, limit is %d", total, MaxBatchItems))
		return
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()

	resp := BatchResponse{Items: make([]BatchResult, total)}
	jobs := make([]batchJob, 0, total)
	// Items resolve their kind through the registry; a bad kind or body
	// fails that item alone, never the batch.
	for i := range req.Items {
		job := batchJob{slot: &resp.Items[i]}
		def, ok := s.registry.Lookup(req.Items[i].Kind)
		if !ok {
			job.err = fmt.Errorf("unknown problem kind %q", req.Items[i].Kind)
		} else {
			spec := def.New()
			if err := strictUnmarshal(req.Items[i].Request, spec); err != nil {
				job.err = fmt.Errorf("bad %s request: %w", req.Items[i].Kind, err)
			} else {
				job.spec = spec
			}
		}
		jobs = append(jobs, job)
	}

	// Items run concurrently so identical ones collapse onto one solve via
	// the engine's singleflight layer (a batch of N clones costs one
	// solve), but the fan-out is capped: distinct items queue on the
	// semaphore instead of flooding the engine's admission queue.
	sem := make(chan struct{}, batchWorkers)
	var wg sync.WaitGroup
	for i := range jobs {
		job := &jobs[i]
		if job.err != nil {
			job.slot.Error = job.err.Error()
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			res, err := s.solveSpec(ctx, job.spec)
			if err != nil {
				job.slot.Error = err.Error()
				return
			}
			job.slot.Response = res
		}()
	}
	wg.Wait()
	s.ok(w, resp)
}

// strictUnmarshal decodes raw into v rejecting unknown fields, matching the
// top-level decoder's strictness for nested batch items.
func strictUnmarshal(raw json.RawMessage, v any) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// HealthStatus is the /healthz body.
type HealthStatus struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	CacheEntries  int     `json:"cache_entries"`
	// Kinds lists the problem kinds this daemon serves.
	Kinds []string `json:"kinds"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	s.ok(w, HealthStatus{
		Status: "ok",
		//crowdlint:allow determinism -- uptime gauge wants wall time
		UptimeSeconds: time.Since(s.start).Seconds(),
		CacheEntries:  int(s.engine.Metrics().CacheEntries),
		Kinds:         s.registry.Kinds(),
	})
}

// latencyBuckets are the `le` bounds (seconds) of the request-duration
// histogram exposed on /metrics, spanning warm cache hits (microseconds)
// through paper-scale cold solves (seconds). Cumulative counts are resolved
// at the underlying hdr bucket granularity (≤3.1% relative error).
var latencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	m := s.Metrics()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	for _, row := range []struct {
		name, typ, help string
		value           int64
	}{
		{"crowdpricing_requests_total", "counter", "HTTP requests accepted.", m.Requests},
		{"crowdpricing_cache_hits_total", "counter", "Solve requests served from the warm policy cache.", m.CacheHits},
		{"crowdpricing_cache_misses_total", "counter", "Solve requests that consulted the solver layer.", m.CacheMisses},
		{"crowdpricing_singleflight_shared_total", "counter", "Requests deduplicated onto another request's in-flight solve.", m.SingleflightShared},
		{"crowdpricing_errors_total", "counter", "Non-2xx responses.", m.Errors},
		{"crowdpricing_cache_entries", "gauge", "Policies currently cached.", m.CacheEntries},
		{"crowdpricing_queue_depth", "gauge", "Cold solves admitted and waiting for a worker.", m.QueueDepth},
		{"crowdpricing_inflight_solves", "gauge", "Solves currently occupying an engine worker.", m.InFlightSolves},
		{"crowdpricing_campaigns_active", "gauge", "Live campaigns in the table.", m.CampaignsActive},
		{"crowdpricing_campaign_quotes_total", "counter", "Prices quoted from live campaigns.", m.CampaignQuotes},
		{"crowdpricing_campaign_replans_total", "counter", "Adaptive policy switches across all campaigns.", m.CampaignReplans},
		{"crowdpricing_campaigns_expired_total", "counter", "Campaigns expired by the idle TTL sweeper.", m.CampaignsExpired},
		{"crowdpricing_quoter_interned", "gauge", "Distinct policy tables in the campaign quoter intern table.", m.QuoterInterned},
		{"crowdpricing_quoter_resident_bytes", "gauge", "Decoded policy-table bytes currently resident across interned quoters.", m.QuoterResidentBytes},
		{"crowdpricing_quoter_intern_hits_total", "counter", "Campaign policy lookups served by an already-interned table.", m.QuoterInternHits},
		{"crowdpricing_quoter_intern_misses_total", "counter", "Campaign policy lookups that interned a new table.", m.QuoterInternMisses},
		{"crowdpricing_quoter_redecodes_total", "counter", "Policy tables re-decoded after the memory budget evicted them.", m.QuoterRedecodes},
	} {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %d\n",
			row.name, row.help, row.name, row.typ, row.name, row.value)
	}
	s.writeKindCounter(w, "crowdpricing_solves_total",
		"Solver executions actually performed, by problem kind.", m.SolvesByKind)
	s.writeKindCounter(w, "crowdpricing_rejections_total",
		"Cold solves shed with 429 because the admission queue was full, by problem kind.", m.RejectedByKind)
	s.writeWALMetrics(w)
	s.writeAnalyticsMetrics(w)
	s.writeLatencyHistogram(w)
	s.writeStageHistograms(w)
}

// writeWALMetrics renders the campaign event log's families — only when a
// log is attached, so a daemon running without durability exposes no
// always-zero series.
func (s *Server) writeWALMetrics(w http.ResponseWriter) {
	l := s.wal.Load()
	if l == nil {
		return
	}
	wm := l.Metrics()
	for _, row := range []struct {
		name, typ, help string
		value           int64
	}{
		{"crowdpricing_wal_appends_total", "counter", "Records appended to the campaign event log.", wm.Appends},
		{"crowdpricing_wal_fsyncs_total", "counter", "Group-commit flushes fsynced to the event log.", wm.Fsyncs},
		{"crowdpricing_wal_bytes_total", "counter", "Framed bytes appended to the event log.", wm.Bytes},
		{"crowdpricing_wal_compactions_total", "counter", "Event-log compactions into a snapshot record.", wm.Compactions},
		{"crowdpricing_wal_segments", "gauge", "Event-log segment files currently on disk.", wm.Segments},
	} {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %d\n",
			row.name, row.help, row.name, row.typ, row.name, row.value)
	}
	for _, row := range []struct {
		name, help string
		value      float64
	}{
		{"crowdpricing_wal_replay_seconds", "Wall time of the boot-time event-log replay.", wm.ReplaySeconds},
		{"crowdpricing_wal_last_compaction_timestamp_seconds", "Unix time of the last event-log compaction (0 = never).", wm.LastCompactionUnixSeconds},
	} {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n",
			row.name, row.help, row.name, row.name, row.value)
	}
}

// writeKindCounter renders one kind-labeled counter family. Every
// registered kind gets a series (zero until touched) so dashboards see a
// stable label set; kinds observed by the engine but absent from the
// registry (embedded custom specs) are appended after.
func (s *Server) writeKindCounter(w http.ResponseWriter, name, help string, byKind map[string]int64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
	known := s.registry.Kinds()
	seen := make(map[string]bool, len(known))
	for _, kind := range known {
		seen[kind] = true
		fmt.Fprintf(w, "%s{kind=%q} %d\n", name, kind, byKind[kind])
	}
	extra := make([]string, 0, len(byKind))
	for kind := range byKind {
		if !seen[kind] {
			extra = append(extra, kind)
		}
	}
	sort.Strings(extra)
	for _, kind := range extra {
		fmt.Fprintf(w, "%s{kind=%q} %d\n", name, kind, byKind[kind])
	}
}

// writeLatencyHistogram renders the per-endpoint request-duration
// histograms in Prometheus exposition format: one metric family with an
// `endpoint` label, `_bucket` series per `le` bound plus `+Inf`, and the
// conventional `_sum`/`_count` pair, all in base seconds.
func (s *Server) writeLatencyHistogram(w http.ResponseWriter) {
	const name = "crowdpricing_request_duration_seconds"
	fmt.Fprintf(w, "# HELP %s Wall time per HTTP request, by endpoint.\n# TYPE %s histogram\n", name, name)
	paths := make([]string, 0, len(s.latency))
	for p := range s.latency {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, path := range paths {
		h := s.latency[path]
		// Read the total once so +Inf and _count agree even while requests
		// are recording concurrently; cap the per-bound cumulative counts
		// at it so the series stays monotone under the same races.
		total := h.Count()
		for _, le := range latencyBuckets {
			n := h.CountAtOrBelow(int64(le * 1e9))
			if n > total {
				n = total
			}
			fmt.Fprintf(w, "%s_bucket{endpoint=%q,le=%q} %d\n",
				name, path, strconv.FormatFloat(le, 'g', -1, 64), n)
		}
		fmt.Fprintf(w, "%s_bucket{endpoint=%q,le=\"+Inf\"} %d\n", name, path, total)
		fmt.Fprintf(w, "%s_sum{endpoint=%q} %g\n", name, path, float64(h.Sum())/1e9)
		fmt.Fprintf(w, "%s_count{endpoint=%q} %d\n", name, path, total)
	}
}
