package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeSpec is a controllable Spec for scheduler tests.
type fakeSpec struct {
	kind    string
	id      string
	block   chan struct{} // non-nil: Solve waits until closed
	solves  *atomic.Int64
	fail    error
	panics  bool
	notJSON bool // Solve returns bytes that are not a JSON document
}

// fakeArtifact is the artifact a fakeSpec solves to: its id in a JSON
// string.
func fakeArtifact(id string) string { return `"artifact:` + id + `"` }

func (s *fakeSpec) Kind() string { return s.kind }

func (s *fakeSpec) Validate() error {
	if s.id == "" {
		return errors.New("fake: empty id")
	}
	return nil
}

func (s *fakeSpec) Fingerprint() (string, error) {
	if err := s.Validate(); err != nil {
		return "", err
	}
	return s.kind + "/test:" + s.id, nil
}

func (s *fakeSpec) Solve(ctx context.Context) ([]byte, error) {
	if s.solves != nil {
		s.solves.Add(1)
	}
	if s.block != nil {
		<-s.block
	}
	if s.panics {
		panic("fake solver exploded")
	}
	if s.fail != nil {
		return nil, s.fail
	}
	if s.notJSON {
		return []byte("artifact:" + s.id), nil
	}
	return []byte(fakeArtifact(s.id)), nil
}

func newTestEngine(t *testing.T, opts Options) *Engine {
	t.Helper()
	e := New(opts)
	t.Cleanup(e.Close)
	return e
}

// TestOneWorkerManyCallers is the admission-control liveness claim: N
// concurrent requests for distinct problems on a single-worker engine all
// complete (run under -race in CI).
func TestOneWorkerManyCallers(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 1})
	const callers = 32
	var wg sync.WaitGroup
	errs := make([]error, callers)
	vals := make([][]byte, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := e.Solve(context.Background(), &fakeSpec{kind: "a", id: fmt.Sprint(i)})
			errs[i] = err
			if res != nil {
				vals[i] = res.Value
			}
		}(i)
	}
	wg.Wait()
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if want := fakeArtifact(fmt.Sprint(i)); string(vals[i]) != want {
			t.Errorf("caller %d got %q, want %q", i, vals[i], want)
		}
	}
	m := e.Metrics()
	if m.Solves != callers {
		t.Errorf("solves = %d, want %d", m.Solves, callers)
	}
	if m.SolvesByKind["a"] != callers {
		t.Errorf("solves{kind=a} = %d, want %d", m.SolvesByKind["a"], callers)
	}
	if m.QueueDepth != 0 || m.InFlight != 0 {
		t.Errorf("queue depth %d / in-flight %d after drain, want 0/0", m.QueueDepth, m.InFlight)
	}
}

// TestSingleflightOneSolve: concurrent identical specs perform exactly one
// solve, share byte-identical artifacts, and account every caller as
// exactly one of {cache hit, singleflight join, the solve itself}.
func TestSingleflightOneSolve(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 2})
	var solves atomic.Int64
	block := make(chan struct{})

	const callers = 40
	var started, wg sync.WaitGroup
	results := make([]*Result, callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		started.Add(1)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			started.Done()
			results[i], errs[i] = e.Solve(context.Background(),
				&fakeSpec{kind: "a", id: "same", block: block, solves: &solves})
		}(i)
	}
	started.Wait()
	time.Sleep(50 * time.Millisecond) // let callers reach the flight table
	close(block)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	if n := solves.Load(); n != 1 {
		t.Fatalf("solver ran %d times for %d identical requests, want 1", n, callers)
	}
	first := results[0]
	for i, r := range results {
		if string(r.Value) != string(first.Value) {
			t.Fatalf("caller %d artifact differs", i)
		}
		if r.Fingerprint != first.Fingerprint {
			t.Errorf("caller %d fingerprint %q != %q", i, r.Fingerprint, first.Fingerprint)
		}
	}
	m := e.Metrics()
	if m.Solves != 1 {
		t.Errorf("metrics solves = %d, want 1", m.Solves)
	}
	if got := m.CacheHits + m.FlightShared; got != callers-1 {
		t.Errorf("hits (%d) + joins (%d) = %d, want %d", m.CacheHits, m.FlightShared, got, callers-1)
	}
}

// TestQueueOverflowSheds: with the one worker blocked and the queue full,
// the next distinct solve returns ErrQueueFull immediately — no hang, no
// goroutine pile-up — and the rejection is counted per kind. Once the
// worker drains, the same spec is admitted again.
func TestQueueOverflowSheds(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 1, QueueDepth: 1})
	block := make(chan struct{})

	var wg sync.WaitGroup
	solve := func(id string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := e.Solve(context.Background(), &fakeSpec{kind: "a", id: id, block: block}); err != nil {
				t.Errorf("admitted solve %s failed: %v", id, err)
			}
		}()
	}
	solve("occupies-worker")
	waitFor(t, func() bool { return e.Metrics().InFlight == 1 })
	solve("fills-queue")
	waitFor(t, func() bool { return e.Metrics().QueueDepth == 1 })

	done := make(chan error, 1)
	go func() {
		_, err := e.Solve(context.Background(), &fakeSpec{kind: "a", id: "overflows"})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrQueueFull) {
			t.Fatalf("overflow solve returned %v, want ErrQueueFull", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("overflow solve hung instead of shedding")
	}
	if got := e.Metrics().RejectedByKind["a"]; got != 1 {
		t.Errorf("rejected{kind=a} = %d, want 1", got)
	}

	// Joining an in-flight identical solve needs no queue slot even at
	// capacity.
	joined := make(chan error, 1)
	go func() {
		_, err := e.Solve(context.Background(), &fakeSpec{kind: "a", id: "occupies-worker"})
		joined <- err
	}()
	waitFor(t, func() bool { return e.Metrics().FlightShared == 1 })

	close(block)
	wg.Wait()
	if err := <-joined; err != nil {
		t.Fatalf("joiner failed: %v", err)
	}
	// The shed spec is admitted once capacity frees up.
	if _, err := e.Solve(context.Background(), &fakeSpec{kind: "a", id: "overflows"}); err != nil {
		t.Fatalf("retry after shed failed: %v", err)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached within 5s")
}

// TestWarmHitBypassesQueue: a cached artifact is served even when the
// worker pool is wedged and the queue is full.
func TestWarmHitBypassesQueue(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 1, QueueDepth: 1})
	if _, err := e.Solve(context.Background(), &fakeSpec{kind: "a", id: "hot"}); err != nil {
		t.Fatal(err)
	}
	block := make(chan struct{})
	defer close(block)
	go e.Solve(context.Background(), &fakeSpec{kind: "a", id: "wedge-worker", block: block})
	waitFor(t, func() bool { return e.Metrics().InFlight == 1 })
	go e.Solve(context.Background(), &fakeSpec{kind: "a", id: "wedge-queue", block: block})
	waitFor(t, func() bool { return e.Metrics().QueueDepth == 1 })

	res, err := e.Solve(context.Background(), &fakeSpec{kind: "a", id: "hot"})
	if err != nil {
		t.Fatalf("warm hit failed under full queue: %v", err)
	}
	if !res.CacheHit || res.SolveMillis != 0 {
		t.Errorf("warm hit reported CacheHit=%v SolveMillis=%v, want true/0", res.CacheHit, res.SolveMillis)
	}
}

// TestInvalidSpecRejectedUpFront: validation failures never reach the
// queue, the cache, or the solver.
func TestInvalidSpecRejectedUpFront(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 1})
	_, err := e.Solve(context.Background(), &fakeSpec{kind: "a", id: ""})
	if !IsInvalidSpec(err) {
		t.Fatalf("err = %v, want InvalidSpecError", err)
	}
	if m := e.Metrics(); m.Solves != 0 || m.CacheEntries != 0 {
		t.Errorf("invalid spec touched the engine: %+v", m)
	}
}

// TestSolverPanicContained: a panicking solve fails its own callers with an
// error and leaves the key reusable.
func TestSolverPanicContained(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 1})
	_, err := e.Solve(context.Background(), &fakeSpec{kind: "a", id: "boom", panics: true})
	if err == nil || !strings.Contains(err.Error(), "solver panic") {
		t.Fatalf("err = %v, want a contained panic error", err)
	}
	res, err := e.Solve(context.Background(), &fakeSpec{kind: "a", id: "boom"})
	if err != nil || string(res.Value) != fakeArtifact("boom") {
		t.Fatalf("key unusable after panic: %v, %v", res, err)
	}
}

// TestNonJSONArtifactRejected: an artifact that is not a JSON document
// fails its call with an error naming the kind and is never cached, so the
// bytes the server writes verbatim are always JSON.
func TestNonJSONArtifactRejected(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 1})
	for i := 0; i < 2; i++ {
		_, err := e.Solve(context.Background(), &fakeSpec{kind: "rawbytes", id: "x", notJSON: true})
		if err == nil || !strings.Contains(err.Error(), "rawbytes") || !strings.Contains(err.Error(), "not a JSON document") {
			t.Fatalf("attempt %d: err = %v, want a not-JSON error naming the kind", i, err)
		}
	}
	if m := e.Metrics(); m.Solves != 2 || m.CacheEntries != 0 {
		t.Errorf("solves = %d, cache entries = %d, want 2 solves and nothing cached", m.Solves, m.CacheEntries)
	}
}

// TestSolveErrorNotCached: failed solves are not cached; the next request
// re-runs the solver.
func TestSolveErrorNotCached(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 1})
	boom := errors.New("numerical meltdown")
	if _, err := e.Solve(context.Background(), &fakeSpec{kind: "a", id: "x", fail: boom}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the solver's error", err)
	}
	res, err := e.Solve(context.Background(), &fakeSpec{kind: "a", id: "x"})
	if err != nil || res.CacheHit {
		t.Fatalf("retry after failure: res=%+v err=%v, want a fresh solve", res, err)
	}
	if m := e.Metrics(); m.Solves != 2 {
		t.Errorf("solves = %d, want 2", m.Solves)
	}
}

// TestCanceledWaiterStillWarmsCache mirrors the service's 504 semantics:
// the requester gives up, the solve finishes anyway, the retry is warm.
func TestCanceledWaiterStillWarmsCache(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 1})
	block := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := e.Solve(ctx, &fakeSpec{kind: "a", id: "slow", block: block})
		done <- err
	}()
	waitFor(t, func() bool { return e.Metrics().InFlight == 1 })
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	close(block)
	waitFor(t, func() bool { return e.Metrics().CacheEntries == 1 })
	res, err := e.Solve(context.Background(), &fakeSpec{kind: "a", id: "slow"})
	if err != nil || !res.CacheHit {
		t.Fatalf("retry res=%+v err=%v, want a warm hit", res, err)
	}
}

// TestCloseFailsQueuedCalls: Close fails queued-but-unstarted calls fast
// instead of hanging their waiters, and subsequent solves refuse cleanly.
func TestCloseFailsQueuedCalls(t *testing.T) {
	e := New(Options{Workers: 1, QueueDepth: 4})
	block := make(chan struct{})
	defer close(block)
	go e.Solve(context.Background(), &fakeSpec{kind: "a", id: "wedge", block: block})
	waitFor(t, func() bool { return e.Metrics().InFlight == 1 })
	queued := make(chan error, 1)
	go func() {
		_, err := e.Solve(context.Background(), &fakeSpec{kind: "a", id: "queued"})
		queued <- err
	}()
	waitFor(t, func() bool { return e.Metrics().QueueDepth == 1 })
	e.Close()
	select {
	case err := <-queued:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("queued call returned %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued call hung across Close")
	}
	if _, err := e.Solve(context.Background(), &fakeSpec{kind: "a", id: "late"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-Close solve returned %v, want ErrClosed", err)
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	r.Register(KindDef{Kind: "a", New: func() Spec { return &fakeSpec{kind: "a"} }})
	r.Register(KindDef{Kind: "b", New: func() Spec { return &fakeSpec{kind: "b"} }})
	if got := r.Kinds(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("Kinds() = %v, want [a b] in registration order", got)
	}
	if _, ok := r.Lookup("a"); !ok {
		t.Error("registered kind not found")
	}
	if _, ok := r.Lookup("zzz"); ok {
		t.Error("unregistered kind found")
	}
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	r.Register(KindDef{Kind: "a", New: func() Spec { return &fakeSpec{kind: "a"} }})
}
