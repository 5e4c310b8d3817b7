package bench

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"crowdpricing/internal/hdr"
	"crowdpricing/internal/server"
)

// Target abstracts where the load goes: an in-process handler or a remote
// daemon over real sockets. Do must be safe for concurrent use.
type Target interface {
	// Do executes one request and reports whether the daemon served it from
	// its policy cache.
	Do(ctx context.Context, req *Request) (cacheHit bool, err error)
}

// ClientTarget drives a pricing daemon through the typed server.Client's
// kind-generic Solve — the same code path production clients use, for any
// registered problem kind.
type ClientTarget struct {
	Client *server.Client
}

// NewHTTPTarget returns a Target for a remote daemon at baseURL. The
// client's connection pool is sized for load generation: the default
// transport keeps only two idle connections per host, which would make an
// open-loop burst churn TCP handshakes and charge them to the daemon's
// latency.
func NewHTTPTarget(baseURL string) *ClientTarget {
	c := server.NewClient(baseURL)
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConns = 0 // no global idle cap
	t.MaxIdleConnsPerHost = 1024
	c.HTTP = &http.Client{Transport: t}
	return &ClientTarget{Client: c}
}

// NewInProcessTarget builds a fresh pricing server at its defaults and a
// Target whose HTTP round trips dispatch straight into its handler — the
// full mux, decode, cache, and scheduler stack with zero sockets, so the
// benchmark runs hermetically (CI-safe) and measures the service rather
// than the loopback device. GOMAXPROCS sizes its solve pool, and the
// report records it; to load a server sized otherwise, run priced with its
// flags and target its URL. The server is returned too so callers can
// scrape its metrics.
func NewInProcessTarget() (*ClientTarget, *server.Server) {
	srv := server.New(server.Options{})
	client := server.NewClient("http://in-process")
	client.HTTP = &http.Client{Transport: handlerTransport{h: srv.Handler()}}
	return &ClientTarget{Client: client}, srv
}

// handlerTransport serves round trips by invoking an http.Handler directly.
type handlerTransport struct {
	h http.Handler
}

func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	res := rec.Result()
	res.Request = req
	return res, nil
}

// Do implements Target via the kind-generic client path.
func (t *ClientTarget) Do(ctx context.Context, req *Request) (bool, error) {
	if req.Spec == nil {
		return false, fmt.Errorf("bench: request of kind %q has no spec", req.Kind)
	}
	resp, err := t.Client.Solve(ctx, req.Kind, req.Spec)
	if err != nil {
		return false, err
	}
	return resp.CacheHit, nil
}

// CampaignSessionTarget executes campaign-scenario requests: each
// scheduled arrival becomes one full lifecycle — create, Steps
// observe+quote pairs replayed from the request's pre-drawn observation
// script, then finish — through the same typed client production callers
// use. The reported cache hit is the create's policy solve (the campaign
// analogue of the solve scenario's hit-rate dial); latency is the whole
// session, measured by the runner from the scheduled start.
type CampaignSessionTarget struct {
	Client *server.Client
	// Adaptive runs every session in §5.2.5 adaptive mode (nil = static).
	Adaptive *server.CampaignAdaptiveOptions
}

// Do implements Target.
func (t *CampaignSessionTarget) Do(ctx context.Context, req *Request) (bool, error) {
	if req.Spec == nil {
		return false, fmt.Errorf("bench: request of kind %q has no spec", req.Kind)
	}
	st, err := t.Client.CreateCampaign(ctx, req.Kind, req.Spec, t.Adaptive)
	if err != nil {
		return false, err
	}
	hit := st.SolveCacheHit
	remaining := append([]int(nil), st.Remaining...)
	for s := 0; s < req.Steps; s++ {
		completed := make([]int, len(remaining))
		for i, n := range remaining {
			completed[i] = int(float64(n) * req.StepShares[s])
			remaining[i] -= completed[i]
		}
		if _, err := t.Client.ObserveCampaign(ctx, st.ID, req.StepArrivals[s], completed); err != nil {
			return hit, fmt.Errorf("observe step %d: %w", s, err)
		}
		q, err := t.Client.CampaignPrice(ctx, st.ID)
		if err != nil {
			return hit, fmt.Errorf("quote step %d: %w", s, err)
		}
		if len(q.Prices) == 0 {
			return hit, fmt.Errorf("quote step %d returned no prices", s)
		}
	}
	if _, err := t.Client.FinishCampaign(ctx, st.ID); err != nil {
		return hit, fmt.Errorf("finish: %w", err)
	}
	return hit, nil
}

// NewTargetFor picks the Target matching the schedule's scenario over the
// given client: the plain solve target or the campaign session driver.
func NewTargetFor(sched *Schedule, client *server.Client) Target {
	if sched.Config.Scenario == ScenarioCampaign {
		t := &CampaignSessionTarget{Client: client}
		if sched.Config.CampaignAdaptive {
			t.Adaptive = &server.CampaignAdaptiveOptions{}
		}
		return t
	}
	return &ClientTarget{Client: client}
}

// IsRejection reports whether err is the daemon's intentional backpressure
// (HTTP 429, the admission queue was full) rather than a failure. The
// runner accounts rejections separately so regression gates on the error
// rate don't flap under deliberate load shedding.
func IsRejection(err error) bool {
	var apiErr *server.APIError
	return errors.As(err, &apiErr) && apiErr.IsBackpressure()
}

// Clock is the runner's time source. Production uses the wall clock;
// tests inject a fake so a schedule spanning minutes of virtual time
// executes (and asserts on its accounting) in microseconds.
type Clock interface {
	Now() time.Time
	// After returns a channel that delivers a tick once d has elapsed.
	After(d time.Duration) <-chan time.Time
}

// funcClock adapts a pair of functions to Clock. The production wall
// clock binds time.Now and time.After as values — the injectable-clock
// pattern the determinism analyzer pushes wall-time call sites toward.
type funcClock struct {
	now   func() time.Time
	after func(time.Duration) <-chan time.Time
}

func (c funcClock) Now() time.Time                         { return c.now() }
func (c funcClock) After(d time.Duration) <-chan time.Time { return c.after(d) }

// wallClock is the production time source.
var wallClock Clock = funcClock{now: time.Now, after: time.After}

// maxInFlight caps a run's in-flight requests so a stalled target cannot
// spawn unbounded goroutines. Requests delayed by the cap still charge the
// delay to their measured latency — the schedule, not the responses,
// drives send times.
const maxInFlight = 4096

// RunOptions tunes schedule execution.
type RunOptions struct {
	// Target receives the load. Required.
	Target Target
	// Clock overrides the time source (nil = wall clock). Tests inject a
	// fake clock to execute schedules without real sleeps.
	Clock Clock
}

// KindStats aggregates one endpoint's (or the whole run's) measured
// requests.
type KindStats struct {
	Requests  int64
	Errors    int64
	Rejected  int64 // 429 backpressure shedding; disjoint from Errors
	CacheHits int64
	// Latency holds response times measured from each request's scheduled
	// start (coordinated-omission-safe). Successful requests only.
	Latency *hdr.Histogram
}

// Result is the raw outcome of executing a schedule; BuildReport turns it
// into the serializable report.
type Result struct {
	// ScheduleHash echoes Schedule.Hash.
	ScheduleHash string
	// Warmed counts warmup-phase requests (fired, excluded from stats).
	Warmed int64
	// Overall aggregates every measured request; ByKind splits per problem
	// kind.
	Overall *KindStats
	ByKind  map[string]*KindStats
	// Elapsed is the wall time of the measurement window (end of warmup to
	// last response).
	Elapsed time.Duration
	// ErrorSamples holds up to a handful of distinct error strings for
	// diagnosis.
	ErrorSamples []string
}

// maxErrorSamples bounds how many error strings a Result retains.
const maxErrorSamples = 8

// Run executes the schedule open-loop against opts.Target: each request
// fires at its scheduled offset regardless of how earlier requests are
// doing, and its latency runs from the scheduled instant to the response —
// queueing caused by a slow target is charged to the target, not silently
// dropped (the coordinated-omission trap of closed-loop harnesses).
//
// Run returns early with ctx's error if the context is canceled
// mid-schedule; in-flight requests are awaited either way.
func Run(ctx context.Context, sched *Schedule, opts RunOptions) (*Result, error) {
	if opts.Target == nil {
		return nil, fmt.Errorf("bench: RunOptions.Target is required")
	}
	clock := opts.Clock
	if clock == nil {
		clock = wallClock
	}

	res := &Result{
		ScheduleHash: sched.Hash,
		Overall:      &KindStats{Latency: hdr.New()},
		ByKind:       make(map[string]*KindStats, len(Kinds)),
	}
	for _, k := range Kinds {
		res.ByKind[k] = &KindStats{Latency: hdr.New()}
	}

	var (
		warmed    atomic.Int64
		mu        sync.Mutex // guards ErrorSamples and the KindStats counters
		wg        sync.WaitGroup
		sem       = make(chan struct{}, maxInFlight)
		start     = clock.Now()
		warmupDur = sched.Config.Warmup
		canceled  error
	)

schedule:
	for i := range sched.Requests {
		req := &sched.Requests[i]
		wait := start.Add(req.At).Sub(clock.Now())
		if wait > 0 {
			select {
			case <-ctx.Done():
				canceled = ctx.Err()
				break schedule
			case <-clock.After(wait):
			}
		} else if ctx.Err() != nil {
			canceled = ctx.Err()
			break schedule
		}
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			canceled = ctx.Err()
			break schedule
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			scheduled := start.Add(req.At)
			hit, err := opts.Target.Do(ctx, req)
			latency := clock.Now().Sub(scheduled)
			if req.At < warmupDur {
				warmed.Add(1)
				return
			}
			mu.Lock()
			defer mu.Unlock()
			ks, ok := res.ByKind[req.Kind]
			if !ok {
				// Unknown kinds still count (Do reports them as errors)
				// instead of panicking on a nil entry.
				ks = &KindStats{Latency: hdr.New()}
				res.ByKind[req.Kind] = ks
			}
			res.Overall.Requests++
			ks.Requests++
			if err != nil {
				if IsRejection(err) {
					// Intentional shedding: its own bucket, not an error,
					// and no latency sample (the request did no work).
					res.Overall.Rejected++
					ks.Rejected++
					return
				}
				res.Overall.Errors++
				ks.Errors++
				if len(res.ErrorSamples) < maxErrorSamples {
					res.ErrorSamples = append(res.ErrorSamples, fmt.Sprintf("%s: %v", req.Kind, err))
				}
				return
			}
			if hit {
				res.Overall.CacheHits++
				ks.CacheHits++
			}
			res.Overall.Latency.Record(latency)
			ks.Latency.Record(latency)
		}()
	}
	wg.Wait()
	res.Warmed = warmed.Load()
	res.Elapsed = clock.Now().Sub(start.Add(warmupDur))
	if res.Elapsed < 0 {
		res.Elapsed = 0
	}
	if canceled != nil {
		return res, fmt.Errorf("bench: run canceled after %d measured requests: %w", res.Overall.Requests, canceled)
	}
	return res, nil
}
