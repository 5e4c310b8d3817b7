// Package telemetry is the request-tracing layer of the pricing daemon:
// allocation-light per-request trace contexts with one typed span per
// pipeline stage a request crosses — server decode, engine queue wait,
// solve, quoter decode, campaign lock hold, WAL append — feeding both the
// per-stage latency histograms rendered on /metrics and a bounded
// retention of the slowest recent traces of each route rendered by
// GET /debug/requests, so a slow p99 can be explained stage by stage
// without a debugger.
//
// Design constraints, in order:
//
//   - The quote hot path stays allocation-free: a Trace is pooled, spans
//     land in a fixed array via atomic adds, and every method is nil-safe
//     so call sites need no "is tracing on?" branches (a nil *Trace is the
//     disabled tracer and costs a predicted branch).
//   - Trace IDs come from a seeded internal/dist RNG, not crypto/rand or
//     time, so crowdlint's determinism discipline stays satisfiable and a
//     fixed-seed daemon logs reproducible IDs.
//   - This package owns every wall-clock read for span measurement (the
//     monotonic session clock below); instrumented packages call Now /
//     ObserveSince instead of time.Now, keeping crowdlint's determinism
//     scope clean at the call sites.
package telemetry

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"crowdpricing/internal/dist"
	"crowdpricing/internal/hdr"
)

// Stage identifies one span of a request's pipeline.
type Stage int

// The span taxonomy, in pipeline order. NumStages bounds the fixed span
// array every Trace carries.
const (
	// StageServerDecode is JSON request decoding in the HTTP layer.
	StageServerDecode Stage = iota
	// StageQueueWait is time an admitted cold solve spent queued before a
	// worker picked it up (zero-length for warm cache hits).
	StageQueueWait
	// StageSolve is time on an engine worker (or waiting on the joined
	// in-flight solve of an identical request).
	StageSolve
	// StageQuoterDecode is policy-table decode in the campaign intern
	// layer: the one decode of a table, when its first holder interns it.
	StageQuoterDecode
	// StageLockHold is the per-campaign mutex: acquisition wait plus the
	// O(1) critical section of an observe or quote.
	StageLockHold
	// StageWALAppend is event marshalling plus the append into the
	// campaign event log's group-commit buffer (not the fsync, which is
	// asynchronous by design).
	StageWALAppend
	// NumStages sizes per-trace span storage; keep it last.
	NumStages
)

var stageNames = [NumStages]string{
	"server_decode",
	"engine_queue_wait",
	"engine_solve",
	"quoter_decode",
	"campaign_lock",
	"wal_append",
}

// String returns the stable label value used on /metrics and in
// /debug/requests bodies.
func (s Stage) String() string {
	if s < 0 || s >= NumStages {
		return fmt.Sprintf("stage(%d)", int(s))
	}
	return stageNames[s]
}

// StageNames lists every stage label in pipeline order.
func StageNames() []string {
	return append([]string(nil), stageNames[:]...)
}

// sessionBase anchors the package's monotonic span clock: Now values are
// nanoseconds since process start, read through time.Since so they ride
// the runtime's monotonic clock and never jump with wall-time changes.
var sessionBase = time.Now()

// Nanotime returns the monotonic session clock in nanoseconds. Exported
// for instrumented packages (the engine stamps worker dequeues with it);
// values are only meaningful as differences.
func Nanotime() int64 { return int64(time.Since(sessionBase)) }

// Trace is one request's span record. Obtain from Tracer.Start, finish
// with Tracer.Finish; a nil *Trace is valid everywhere and records
// nothing, so instrumentation call sites need no enabled-checks.
//
// Span methods are safe for concurrent use (an adaptive campaign create
// pre-solves its factor bank concurrently under one trace); spans
// accumulate, so a stage crossed twice reports the sum.
type Trace struct {
	id     uint64
	route  string
	wall   time.Time // wall-clock start, for display only
	begin  int64     // session-clock start
	total  int64     // set by Finish
	status int

	// seen is a bitmask of observed stages: presence must survive a
	// zero-length span so /debug/requests can show which stages a request
	// crossed even when one was immeasurably fast.
	seen  atomic.Uint32
	spans [NumStages]atomic.Int64
}

// Now returns the session clock, or 0 from a nil trace — pair it with
// ObserveSince so disabled tracing costs two nil checks and no clock read.
func (t *Trace) Now() int64 {
	if t == nil {
		return 0
	}
	return Nanotime()
}

// ID renders the trace ID as 16 hex digits ("" for a nil trace). It
// allocates; keep it off hot paths (error logs and renderings only).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return fmt.Sprintf("%016x", t.id)
}

// Observe adds d to one stage's span. No-op on a nil trace; negative
// durations clamp to zero (a span can legitimately measure ~0 across
// clock reads on different cores).
func (t *Trace) Observe(stage Stage, d time.Duration) {
	t.observe(stage, int64(d))
}

// ObserveSince closes a span opened with start := t.Now().
func (t *Trace) ObserveSince(stage Stage, start int64) {
	if t == nil {
		return
	}
	t.observe(stage, Nanotime()-start)
}

func (t *Trace) observe(stage Stage, ns int64) {
	if t == nil || stage < 0 || stage >= NumStages {
		return
	}
	if ns < 0 {
		ns = 0
	}
	t.spans[stage].Add(ns)
	t.seen.Or(1 << uint(stage))
}

// reset prepares a pooled trace for reuse.
func (t *Trace) reset() {
	t.id, t.route, t.wall, t.begin, t.total, t.status = 0, "", time.Time{}, 0, 0, 0
	t.seen.Store(0)
	for i := range t.spans {
		t.spans[i].Store(0)
	}
}

// ctxKey carries a *Trace through a context.
type ctxKey struct{}

// NewContext returns ctx carrying t (ctx unchanged when t is nil), so
// spans recorded deep in the engine or campaign layers land on the
// request's trace.
func NewContext(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, t)
}

// FromContext returns the context's trace, or nil — and nil is a valid
// trace, so callers use the result unconditionally.
func FromContext(ctx context.Context) *Trace {
	t, _ := ctx.Value(ctxKey{}).(*Trace)
	return t
}

// DefaultKeep is the per-route slowest-trace retention of a
// zero-configured Tracer.
const DefaultKeep = 64

// retainAge bounds how long a slow trace stays retained: /debug/requests
// answers "what was slow recently", not "what was slow since boot", so
// entries older than this are dropped as new traces finish.
const retainAge = 15 * time.Minute

// Tracer mints, finishes, and retains traces: per-stage latency
// histograms (the /metrics stage families) plus a bounded keep-slowest
// table per route behind /debug/requests. Retention is per route because
// routes differ in latency by orders of magnitude: one shared table would
// fill with campaign creates and never show a quote. A nil *Tracer is the
// disabled tracer: Start returns nil and every downstream span call
// no-ops.
type Tracer struct {
	keep  int
	stage [NumStages]*hdr.Histogram
	pool  sync.Pool

	mu  sync.Mutex
	rng *dist.RNG
	// slow holds the keep slowest recent traces of each route, keyed by
	// the mux pattern, so the key set is the closed set of routes.
	slow map[string][]*Trace
}

// NewTracer builds a Tracer retaining the keep slowest recent traces of
// each route (keep <= 0 = DefaultKeep) and minting trace IDs from a dist
// RNG seeded with seed — deterministic IDs under a fixed seed, by design.
func NewTracer(keep int, seed int64) *Tracer {
	if keep <= 0 {
		keep = DefaultKeep
	}
	tr := &Tracer{
		keep: keep,
		rng:  dist.NewRNG(seed),
		pool: sync.Pool{New: func() any { return &Trace{} }},
		slow: make(map[string][]*Trace),
	}
	for i := range tr.stage {
		tr.stage[i] = hdr.New()
	}
	return tr
}

// Start mints a trace for one request on route. Returns nil from a nil
// Tracer. The trace must be handed back through Finish exactly once.
func (tr *Tracer) Start(route string) *Trace {
	if tr == nil {
		return nil
	}
	t := tr.pool.Get().(*Trace)
	t.reset()
	tr.mu.Lock()
	t.id = tr.rng.Uint64()
	tr.mu.Unlock()
	t.route = route
	//crowdlint:allow determinism -- trace start timestamp is display-only instrumentation
	t.wall = time.Now()
	t.begin = Nanotime()
	return t
}

// Finish closes t with the response status: every observed stage feeds
// its histogram, and the trace either enters the keep-slowest table or
// returns to the pool. Nil-safe on both receiver and trace.
func (tr *Tracer) Finish(t *Trace, status int) {
	if tr == nil || t == nil {
		return
	}
	t.status = status
	t.total = Nanotime() - t.begin
	if t.total < 0 {
		t.total = 0
	}
	seen := t.seen.Load()
	for s := Stage(0); s < NumStages; s++ {
		if seen&(1<<uint(s)) != 0 {
			tr.stage[s].RecordValue(t.spans[s].Load())
		}
	}
	tr.mu.Lock()
	evicted := tr.admitLocked(t)
	tr.mu.Unlock()
	if evicted != nil {
		evicted.reset()
		tr.pool.Put(evicted)
	}
}

// admitLocked applies the retention policy to t's route and returns the
// trace to recycle (nil when the route's table simply grew). It touches
// only that route's table, so it scans at most keep entries. Callers hold
// tr.mu.
func (tr *Tracer) admitLocked(t *Trace) *Trace {
	// Age out stale entries first so "recent" holds even on a quiet
	// route whose slowest-ever traces would otherwise pin the table.
	//crowdlint:allow determinism -- retention ages out on wall time by design
	cutoff := time.Now().Add(-retainAge)
	slow := tr.slow[t.route]
	kept := slow[:0]
	for _, old := range slow {
		if old.wall.After(cutoff) {
			kept = append(kept, old)
		}
	}
	if len(kept) < tr.keep {
		tr.slow[t.route] = append(kept, t)
		return nil
	}
	tr.slow[t.route] = kept
	min := 0
	for i, old := range kept {
		if old.total < kept[min].total {
			min = i
		}
	}
	if t.total <= kept[min].total {
		return t
	}
	evicted := kept[min]
	kept[min] = t
	return evicted
}

// StageHistogram exposes one stage's latency histogram for metrics
// rendering (nil from a nil Tracer).
func (tr *Tracer) StageHistogram(s Stage) *hdr.Histogram {
	if tr == nil || s < 0 || s >= NumStages {
		return nil
	}
	return tr.stage[s]
}
