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
// the compute: the expensive artifact here is a solved policy, and many
// requesters price similar batches, so deduplication is the common case,
// not the corner case. At paper scale, on a 2-vCPU x86-64 host, a deadline
// solve takes 0.6-0.8 ms (BenchmarkSolveEfficientSampler in internal/core)
// and the two-type multi solve 0.14-0.2 s, while an in-process warm cache
// hit takes a few µs (BenchmarkDeadlineWarmHit).
//
// Endpoints:
//
//	POST /v1/solve/{kind}     any registered kind: deadline (Section 3),
//	                          budget (Section 4), tradeoff (Section 6),
//	                          multi (Section 6 extension), …
//	GET  /healthz             liveness + uptime
//	GET  /metrics             Prometheus-format counters, queue gauges,
//	                          per-kind solve/rejection counters, latency +
//	                          per-stage histograms, live λ̂/cohort analytics
//	GET  /v1/analytics        the live analytics plane: fleet λ̂, per-cohort
//	                          summaries, per-stage latency summaries
//	GET  /debug/requests      the slowest recent request traces of each
//	                          route, span by span
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
	// policy (N=200, 72 intervals) serializes to ~45 KB, so the default
	// caps cache memory around 46 MB.
	DefaultCacheSize = engine.DefaultCacheSize
	// DefaultRequestTimeout bounds how long a request waits for its solve.
	DefaultRequestTimeout = 2 * time.Minute
	// DefaultQueueDepth bounds the engine's cold-solve admission queue.
	DefaultQueueDepth = engine.DefaultQueueDepth
)

// Options configures a Server. The zero value is production-ready.
type Options struct {
	// CacheSize is the maximum number of cached policies (0 =
	// DefaultCacheSize).
	CacheSize int
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
	// TraceBuffer is how many of the slowest recent request traces
	// /debug/requests retains per route (0 = telemetry.DefaultKeep;
	// negative disables request tracing entirely, including the
	// per-stage histograms).
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
	errorCount atomic.Int64 // non-2xx and panicked responses

	// wal, when attached, is the campaign event log whose counters are
	// rendered on /metrics.
	wal atomic.Pointer[wal.Log]

	// tracer is the request-tracing plane (nil when disabled): per-stage
	// duration histograms plus the per-route keep-slowest traces behind
	// /debug/requests. analytics is the live λ̂/cohort fold, fed by the
	// campaign manager's event sink: live traffic, and the recorded log
	// while ReplayWAL reads it at boot.
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
			CacheSize:  opts.CacheSize,
			Workers:    opts.Workers,
			QueueDepth: opts.QueueDepth,
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
	s.campaigns = campaign.NewManager(s.engine, reg, campaign.Options{TTL: opts.CampaignTTL})
	s.campaigns.AttachSink(s.analytics)
	// One generic handler per registered kind: the route set is the
	// registry, so adding a problem kind adds its endpoint with no code
	// here.
	for _, kind := range reg.Kinds() {
		def, _ := reg.Lookup(kind)
		s.route("/v1/solve/"+kind, s.post(s.handleKind(def)))
	}
	// The stateful campaign API: method-scoped patterns, the modern mux
	// idiom — the wildcard {id} binds through r.PathValue.
	s.route("POST /v1/campaigns", s.handleCampaignCreate)
	s.route("POST /v1/campaigns/{id}/observe", s.handleCampaignObserve)
	s.route("GET /v1/campaigns/{id}/price", s.handleCampaignPrice)
	s.route("GET /v1/campaigns/{id}", s.handleCampaignState)
	s.route("DELETE /v1/campaigns/{id}", s.handleCampaignFinish)
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

// route registers h at path wrapped with the request and error counters,
// request tracing and per-endpoint latency recording — the one place every
// request is counted. The recording runs in a deferred recover, so every
// request lands in the histogram — panicking handlers and 429-shed
// requests included, not just the happy path — and a panic answers 500
// (when nothing was written yet) instead of killing the connection.
func (s *Server) route(path string, h http.HandlerFunc) {
	hist := hdr.New()
	s.latency[path] = hist
	s.mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		//crowdlint:allow determinism -- request-latency histogram wants wall time
		begin := time.Now()
		tr := s.tracer.Start(path)
		if tr != nil {
			r = r.WithContext(telemetry.NewContext(r.Context(), tr))
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		defer func() {
			rec := recover()
			if rec != nil {
				if !sw.wrote {
					s.fail(sw, http.StatusInternalServerError, errors.New("internal error"))
				}
				s.logger.Error("request handler panicked",
					"endpoint", path, "trace_id", tr.ID(), "panic", fmt.Sprint(rec))
			}
			if rec != nil || sw.status/100 != 2 {
				s.errorCount.Add(1)
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
// starts emitting events to it and /metrics renders its counters. It
// reads nothing from the log: the recorded history entered the analytics
// plane during replay (Campaigns().ReplayWAL streams it to the manager's
// sink, which is this server's aggregator), so λ̂ and the cohort
// summaries carry pre-restart traffic, counted once. Call it after
// replaying the log at boot and before serving mutations.
func (s *Server) AttachWAL(l *wal.Log) {
	s.wal.Store(l)
	s.campaigns.AttachWAL(l)
}

// MetricsSnapshot is a consistent-enough point-in-time read of the
// counters, exposed for tests and for embedding applications; the /metrics
// endpoint renders the same numbers in Prometheus text format.
type MetricsSnapshot struct {
	// Requests counts HTTP requests accepted across all endpoints; Errors
	// the non-2xx and panicked ones.
	Requests int64
	Errors   int64
	// Metrics is the solve engine's: cache counters, scheduler gauges,
	// and solves and queue-overflow rejections per problem kind.
	engine.Metrics
	// Campaigns is the campaign runtime's: the live-campaign gauge, its
	// lifetime counters, and the quoter intern layer's gauges and counters.
	Campaigns campaign.Metrics
}

// Metrics returns the current counter values.
func (s *Server) Metrics() MetricsSnapshot {
	return MetricsSnapshot{
		Requests:  s.requests.Load(),
		Errors:    s.errorCount.Load(),
		Metrics:   s.engine.Metrics(),
		Campaigns: s.campaigns.Metrics(),
	}
}

// post wraps a handler with method enforcement.
func (s *Server) post(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			s.fail(w, http.StatusMethodNotAllowed, errors.New("use POST"))
			return
		}
		h(w, r)
	}
}

func (s *Server) fail(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(errorResponse{Error: err.Error()})
}

// responseBuffers recycles the buffers ok encodes replies into, so a reply
// costs the allocations of encoding straight to the connection.
var responseBuffers = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// ok writes v as a 200 JSON reply. It encodes before it writes anything, so
// a value that cannot be encoded (a non-finite float) is answered 500 with
// the encoder's error rather than 200 with an empty body.
func (s *Server) ok(w http.ResponseWriter, v any) {
	buf := responseBuffers.Get().(*bytes.Buffer)
	defer responseBuffers.Put(buf)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		s.fail(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	// A failed write means the client has gone; with the status already
	// sent there is no one left to report it to.
	_, _ = w.Write(buf.Bytes())
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
// JSON (engine.ValidJSON). The head fields go through json.Marshal, so their escaping and the
// solve_ms format are unchanged: for an artifact encoding/json produced
// (compact, HTML-escaped) the body is byte-identical to
// json.NewEncoder(w).Encode(resp). Its reader is Client.Solve, which reads
// the artifact with one scan because result is the envelope's last field
// (splitSolve); a body laid out otherwise still decodes, at the cost of a
// second scan.
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

// maxBodyBytes bounds two things. On the server it caps every request body
// decodeInto reads, so one connection cannot buffer unbounded JSON into
// memory. On the client it is the largest Content-Length that readAll
// trusts to size its buffer up front.
const maxBodyBytes = 32 << 20

// maxPooledBody is the largest request buffer decodeInto returns to its
// pool, and the largest Content-Length it trusts to size one up front. A
// paper-scale deadline body is ~1.5 KB; a buffer that grew past this for
// a rare large body is left to the collector, so no single body keeps up
// to maxBodyBytes resident.
const maxPooledBody = 64 << 10

// requestBuffers recycles the buffers decodeInto reads request bodies
// into.
var requestBuffers = sync.Pool{New: func() any { return new([]byte) }}

// decodeInto decodes a request body into v with the strict decoder,
// reading at most maxBodyBytes. A v that reads JSON itself
// (engine.JSONReader) gets the body read whole into a pooled buffer and
// decoded by engine.DecodeJSON. Any other v is decoded as the body
// streams in.
func decodeInto(w http.ResponseWriter, r *http.Request, v any) error {
	tr := telemetry.FromContext(r.Context())
	start := tr.Now()
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	var err error
	if _, ok := v.(engine.JSONReader); ok {
		err = readInto(body, r.ContentLength, v)
	} else {
		err = engine.DecodeJSONFrom(body, v)
	}
	tr.ObserveSince(telemetry.StageServerDecode, start)
	if err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

// readInto reads body to its end into a pooled buffer and decodes it into
// v with engine.DecodeJSON. When a read fails (the body is cut short,
// unreadable or over maxBodyBytes), it decodes the bytes read so far
// followed by that error, so the outcome is the streaming decoder's: a
// value that ends before the failure decodes, and any other body fails
// with the error the decoder met first.
func readInto(body io.Reader, size int64, v any) error {
	buf := requestBuffers.Get().(*[]byte)
	data, err := readAll(body, size, maxPooledBody, (*buf)[:0])
	if err != nil {
		err = engine.DecodeJSONFrom(io.MultiReader(bytes.NewReader(data), failedReader{err}), v)
	} else {
		err = engine.DecodeJSON(data, v)
	}
	if cap(data) <= maxPooledBody {
		*buf = data[:0]
		requestBuffers.Put(buf)
	}
	return err
}

// failedReader replays a read error.
type failedReader struct{ err error }

func (f failedReader) Read([]byte) (int, error) { return 0, f.err }

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

// HealthStatus is the /healthz body.
type HealthStatus struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	CacheEntries  int     `json:"cache_entries"`
	// Kinds lists the problem kinds this daemon serves.
	Kinds []string `json:"kinds"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.ok(w, HealthStatus{
		Status: "ok",
		//crowdlint:allow determinism -- uptime gauge wants wall time
		UptimeSeconds: time.Since(s.start).Seconds(),
		CacheEntries:  int(s.engine.Metrics().CacheEntries),
		Kinds:         s.registry.Kinds(),
	})
}
