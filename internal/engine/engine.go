package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"crowdpricing/internal/telemetry"
)

// Defaults for Options zero values.
const (
	// DefaultCacheSize bounds the artifact cache.
	DefaultCacheSize = 1024
	// DefaultQueueDepth bounds how many distinct cold solves may wait for a
	// worker before the engine sheds load with ErrQueueFull. Joiners of an
	// in-flight identical solve never occupy a slot, so the queue bounds
	// distinct work, not concurrent requests.
	DefaultQueueDepth = 4096
)

// Options configures an Engine. The zero value is production-ready.
type Options struct {
	// CacheSize is the maximum number of cached artifacts
	// (0 = DefaultCacheSize).
	CacheSize int
	// Workers is the solve worker-pool size (0 = GOMAXPROCS). Solves are
	// CPU-bound, so more workers than cores buys queueing, not throughput.
	Workers int
	// QueueDepth bounds the cold-solve admission queue
	// (0 = DefaultQueueDepth).
	QueueDepth int
}

// ErrQueueFull is returned when the admission queue is at capacity: the
// engine sheds the request instead of queueing unbounded work. Callers
// should surface it as backpressure (HTTP 429) and retry later.
var ErrQueueFull = errors.New("engine: solve queue is full, retry later")

// ErrClosed is returned by Solve after Close.
var ErrClosed = errors.New("engine: closed")

// InvalidSpecError marks specs rejected before any solver ran — the
// Fingerprint check failed, which is the requester's fault.
type InvalidSpecError struct{ Err error }

func (e *InvalidSpecError) Error() string { return e.Err.Error() }
func (e *InvalidSpecError) Unwrap() error { return e.Err }

// IsInvalidSpec reports whether err marks a spec rejected before solving.
func IsInvalidSpec(err error) bool {
	var inv *InvalidSpecError
	return errors.As(err, &inv)
}

// Result is a completed solve.
type Result struct {
	// Fingerprint is the artifact's cache key (Spec.Fingerprint).
	Fingerprint string
	// Value is the serialized artifact, byte-identical for every caller of
	// the same fingerprint. It is a valid JSON document: the engine checks
	// each artifact once with ValidJSON, when it is solved, and caches only
	// those that pass.
	Value []byte
	// CacheHit reports whether the artifact was served from the warm cache
	// without waiting on any solver.
	CacheHit bool
	// SolveMillis is the time this call spent waiting for the solver (the
	// full solve for the caller that triggered it, the residual wait for
	// callers deduplicated onto it). Zero on a warm cache hit.
	SolveMillis float64
}

// call is one in-flight cold solve; concurrent requests for the same
// fingerprint share a single call.
type call struct {
	spec Spec
	key  string
	kind string
	done chan struct{}
	val  []byte
	err  error
	// cached marks calls resolved by the worker's cache double-check: the
	// artifact landed between the requester's miss and the dequeue, so no
	// caller of this call waited on a solver.
	cached bool
	// started is the telemetry session-clock instant a worker dequeued
	// the call; waiters read it after done closes to split their wait into
	// queue-wait and solve spans. Zero if the call never reached a worker.
	started int64
}

// kindCounters holds the per-kind observability counters.
type kindCounters struct {
	solves   atomic.Int64
	rejected atomic.Int64
}

// Engine is the admission-controlled solve scheduler: a fingerprint-keyed
// LRU cache in front of a singleflight table in front of a bounded queue
// feeding a bounded worker pool. Warm hits bypass the queue entirely and
// stay in the microsecond range; cold solves are admitted up to QueueDepth
// and shed with ErrQueueFull beyond it, so a burst of expensive problems
// degrades into fast, explicit backpressure instead of unbounded goroutines.
//
// Admission has two lanes. Solve enqueues on the interactive lane;
// SolveBatch enqueues on the background lane, which workers only drain
// when no interactive work is waiting — so bulk pre-solves (an adaptive
// campaign's 11-factor bank) cannot monopolize the pool against
// interactive solves: one-shot solve requests and a campaign's initial
// policy. Both lanes share the singleflight table: identical work
// submitted on different lanes still costs one solve. Create with New; an
// Engine is safe for arbitrary concurrent use.
type Engine struct {
	opts  Options
	cache *lruCache

	mu      sync.Mutex
	calls   map[string]*call
	closed  bool
	queue   chan *call
	bgQueue chan *call
	quit    chan struct{}

	inFlight     atomic.Int64
	cacheHits    atomic.Int64 // calls served from the cache (warm or double-check)
	cacheMisses  atomic.Int64 // calls that waited on a solver (own or joined)
	solves       atomic.Int64 // solver executions actually performed
	flightShared atomic.Int64 // calls deduplicated onto another call's solve

	kindMu sync.Mutex
	byKind map[string]*kindCounters
}

// New builds an Engine and starts its worker pool; see Options for the
// knobs. Call Close to stop the workers when the engine is no longer
// needed.
func New(opts Options) *Engine {
	if opts.CacheSize <= 0 {
		opts.CacheSize = DefaultCacheSize
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = DefaultQueueDepth
	}
	e := &Engine{
		opts:    opts,
		cache:   newLRUCache(opts.CacheSize),
		calls:   make(map[string]*call),
		queue:   make(chan *call, opts.QueueDepth),
		bgQueue: make(chan *call, opts.QueueDepth),
		quit:    make(chan struct{}),
		byKind:  make(map[string]*kindCounters),
	}
	for i := 0; i < opts.Workers; i++ {
		// With more than one worker, worker 0 serves the interactive lane
		// exclusively: even a pool saturated with background pre-solves keeps
		// one worker answering interactive solves. A single-worker pool must
		// serve both lanes or SolveBatch would never complete.
		go e.worker(opts.Workers > 1 && i == 0)
	}
	return e
}

// Solve resolves spec to its artifact: from the cache when warm, otherwise
// by admitting one solve per fingerprint to the worker pool and sharing its
// result among all concurrent callers. A ctx that expires mid-wait returns
// ctx.Err() while the solve keeps running and warms the cache for the
// retry. Queue overflow returns ErrQueueFull without enqueueing anything.
func (e *Engine) Solve(ctx context.Context, spec Spec) (*Result, error) {
	return e.solve(ctx, spec, e.queue)
}

// SolveBatch is Solve on the background lane: identical semantics (cache,
// singleflight, ErrQueueFull shedding), but the admitted call waits behind
// all interactive work. Use it for bulk pre-solves that should yield to
// single solves — adaptive bank factors, warmups. Yielding has a cost: an
// adaptive create waits for its whole bank, so a busy interactive lane
// slows that create rather than every other caller.
func (e *Engine) SolveBatch(ctx context.Context, spec Spec) (*Result, error) {
	return e.solve(ctx, spec, e.bgQueue)
}

func (e *Engine) solve(ctx context.Context, spec Spec, lane chan *call) (*Result, error) {
	key, err := spec.Fingerprint()
	if err != nil {
		return nil, &InvalidSpecError{err}
	}
	if val, ok := e.cache.Get(key); ok {
		e.cacheHits.Add(1)
		return &Result{Fingerprint: key, Value: val, CacheHit: true}, nil
	}

	//crowdlint:allow determinism -- SolveMillis is wall-clock instrumentation, not part of the artifact
	begin := time.Now()
	tr := telemetry.FromContext(ctx)
	enqueued := tr.Now()
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, ErrClosed
	}
	c, joined := e.calls[key]
	if !joined {
		c = &call{spec: spec, key: key, kind: spec.Kind(), done: make(chan struct{})}
		// The non-blocking send happens under the same lock as the
		// registration, so a rejected call is never visible to joiners.
		select {
		case lane <- c:
			e.calls[key] = c
		default:
			e.mu.Unlock()
			e.counters(c.kind).rejected.Add(1)
			return nil, ErrQueueFull
		}
	}
	e.mu.Unlock()
	if joined {
		e.flightShared.Add(1)
		e.cacheMisses.Add(1)
	}

	select {
	case <-ctx.Done():
		// The call keeps running on its worker and warms the cache, so the
		// caller's retry is free.
		return nil, ctx.Err()
	case <-c.done:
	}
	if c.err != nil {
		return nil, c.err
	}
	if tr != nil {
		// c.started was written before done closed, so the plain read is
		// ordered. Joiners that arrived after the dequeue clamp to a
		// zero-length queue wait inside Observe.
		if started := c.started; started > 0 {
			tr.Observe(telemetry.StageQueueWait, time.Duration(started-enqueued))
			tr.ObserveSince(telemetry.StageSolve, started)
		}
	}
	res := &Result{Fingerprint: key, Value: c.val, CacheHit: c.cached}
	if !c.cached {
		//crowdlint:allow determinism -- SolveMillis is wall-clock instrumentation, not part of the artifact
		res.SolveMillis = float64(time.Since(begin)) / float64(time.Millisecond)
	}
	return res, nil
}

func (e *Engine) worker(interactiveOnly bool) {
	for {
		if interactiveOnly {
			select {
			case <-e.quit:
				return
			case c := <-e.queue:
				e.serve(c)
			}
			continue
		}
		// Biased select: drain the interactive lane dry before touching the
		// background lane, so queued bank pre-solves only run on capacity no
		// interactive caller is waiting for.
		select {
		case <-e.quit:
			return
		case c := <-e.queue:
			e.serve(c)
		default:
			select {
			case <-e.quit:
				return
			case c := <-e.queue:
				e.serve(c)
			case c := <-e.bgQueue:
				e.serve(c)
			}
		}
	}
}

func (e *Engine) serve(c *call) {
	e.inFlight.Add(1)
	e.run(c)
	e.inFlight.Add(-1)
}

// run executes one admitted call and publishes its result.
func (e *Engine) run(c *call) {
	c.started = telemetry.Nanotime()
	defer func() {
		// A panic on a pathological problem must not take down the daemon
		// or leave the call registered (which would hang every joiner).
		if r := recover(); r != nil {
			c.err = fmt.Errorf("solver panic: %v", r)
		}
		e.mu.Lock()
		delete(e.calls, c.key)
		e.mu.Unlock()
		close(c.done)
	}()
	// Double-check the cache: the artifact may have landed between the
	// requester's miss and this dequeue. Without the re-check, back-to-back
	// identical requests could perform two solves instead of one.
	if val, ok := e.cache.Get(c.key); ok {
		e.cacheHits.Add(1)
		c.val, c.cached = val, true
		return
	}
	e.cacheMisses.Add(1)
	e.solves.Add(1)
	e.counters(c.kind).solves.Add(1)
	val, err := c.spec.Solve(context.Background())
	if err != nil {
		c.err = err
		return
	}
	// The one validity check an artifact gets, ValidJSON: the server
	// writes cached bytes to the socket verbatim, so a non-JSON artifact
	// must fail here, once per solve, and never reach the cache.
	if !ValidJSON(val) {
		c.err = fmt.Errorf("engine: %s solver returned an artifact that is not a JSON document", c.kind)
		return
	}
	e.cache.Put(c.key, val)
	c.val = val
}

// fail completes a call without running it (shutdown path).
func (e *Engine) fail(c *call, err error) {
	c.err = err
	e.mu.Lock()
	delete(e.calls, c.key)
	e.mu.Unlock()
	close(c.done)
}

// Close stops the worker pool and fails any still-queued calls with
// ErrClosed. Calls already being solved run to completion. Subsequent
// Solve calls that miss the cache return ErrClosed.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	e.mu.Unlock()
	close(e.quit)
	for {
		select {
		case c := <-e.queue:
			e.fail(c, ErrClosed)
		case c := <-e.bgQueue:
			e.fail(c, ErrClosed)
		default:
			return
		}
	}
}

func (e *Engine) counters(kind string) *kindCounters {
	e.kindMu.Lock()
	defer e.kindMu.Unlock()
	kc, ok := e.byKind[kind]
	if !ok {
		kc = &kindCounters{}
		e.byKind[kind] = kc
	}
	return kc
}

// Metrics is a point-in-time read of the engine's observability surface.
type Metrics struct {
	// QueueDepth is the number of admitted interactive calls waiting for a
	// worker; BatchQueueDepth the same for the background lane.
	QueueDepth      int64
	BatchQueueDepth int64
	// InFlight is the number of calls currently occupying a worker.
	InFlight int64

	CacheHits    int64
	CacheMisses  int64
	Solves       int64
	FlightShared int64
	CacheEntries int64

	// SolvesByKind and RejectedByKind split solver executions and
	// queue-overflow rejections per problem kind.
	SolvesByKind   map[string]int64
	RejectedByKind map[string]int64
}

// Metrics returns the current counter and gauge values.
func (e *Engine) Metrics() Metrics {
	m := Metrics{
		QueueDepth:      int64(len(e.queue)),
		BatchQueueDepth: int64(len(e.bgQueue)),
		InFlight:        e.inFlight.Load(),
		CacheHits:       e.cacheHits.Load(),
		CacheMisses:     e.cacheMisses.Load(),
		Solves:          e.solves.Load(),
		FlightShared:    e.flightShared.Load(),
		CacheEntries:    int64(e.cache.Len()),
		SolvesByKind:    make(map[string]int64),
		RejectedByKind:  make(map[string]int64),
	}
	e.kindMu.Lock()
	defer e.kindMu.Unlock()
	for kind, kc := range e.byKind {
		m.SolvesByKind[kind] = kc.solves.Load()
		m.RejectedByKind[kind] = kc.rejected.Load()
	}
	return m
}
