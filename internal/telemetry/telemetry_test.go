package telemetry

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	tc := tr.Start("/x")
	if tc != nil {
		t.Fatal("nil tracer minted a trace")
	}
	// Every span call must be a no-op, not a panic.
	start := tc.Now()
	if start != 0 {
		t.Fatalf("nil trace Now() = %d, want 0", start)
	}
	tc.Observe(StageSolve, time.Millisecond)
	tc.ObserveSince(StageSolve, start)
	if id := tc.ID(); id != "" {
		t.Fatalf("nil trace ID = %q, want empty", id)
	}
	tr.Finish(tc, 200)
	if s := tr.Snapshot(); s != nil {
		t.Fatalf("nil tracer snapshot = %v, want nil", s)
	}
	if h := tr.StageHistogram(StageSolve); h != nil {
		t.Fatal("nil tracer returned a histogram")
	}
}

func TestTraceIDsDeterministicUnderSeed(t *testing.T) {
	ids := func() []string {
		tr := NewTracer(8, 42)
		var out []string
		for i := 0; i < 5; i++ {
			tc := tr.Start("/x")
			out = append(out, tc.ID())
			tr.Finish(tc, 200)
		}
		return out
	}
	a, b := ids(), ids()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trace ID %d differs across same-seed tracers: %s vs %s", i, a[i], b[i])
		}
		if len(a[i]) != 16 {
			t.Fatalf("trace ID %q is not 16 hex digits", a[i])
		}
	}
}

func TestSpansAccumulateAndRender(t *testing.T) {
	tr := NewTracer(8, 1)
	tc := tr.Start("/v1/solve/deadline")
	tc.Observe(StageServerDecode, 2*time.Millisecond)
	tc.Observe(StageSolve, 5*time.Millisecond)
	tc.Observe(StageSolve, 3*time.Millisecond) // accumulates
	tc.Observe(StageQueueWait, 0)              // zero-length but crossed
	tr.Finish(tc, 200)

	sums := tr.Snapshot()
	if len(sums) != 1 {
		t.Fatalf("retained %d traces, want 1", len(sums))
	}
	s := sums[0]
	if got := s.StagesMS["engine_solve"]; got != 8 {
		t.Fatalf("solve span = %vms, want 8", got)
	}
	if got := s.StagesMS["server_decode"]; got != 2 {
		t.Fatalf("decode span = %vms, want 2", got)
	}
	if _, ok := s.StagesMS["engine_queue_wait"]; !ok {
		t.Fatal("zero-length span lost its stage presence")
	}
	if _, ok := s.StagesMS["wal_append"]; ok {
		t.Fatal("uncrossed stage rendered a span")
	}
	if s.Status != 200 || s.Route != "/v1/solve/deadline" {
		t.Fatalf("summary carries wrong status/route: %+v", s)
	}
	if h := tr.StageHistogram(StageSolve); h.Count() != 1 || h.Sum() != int64(8*time.Millisecond) {
		t.Fatalf("solve histogram count=%d sum=%d, want 1 and 8ms", h.Count(), h.Sum())
	}

	var b strings.Builder
	WriteText(&b, sums)
	for _, want := range []string{"engine_solve", "server_decode", s.ID, "status=200"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("text rendering missing %q:\n%s", want, b.String())
		}
	}
}

func TestKeepSlowestRetention(t *testing.T) {
	tr := NewTracer(3, 1)
	// Finish 10 traces with strictly growing solve spans; the table must
	// keep the 3 slowest by total.
	for i := 1; i <= 10; i++ {
		tc := tr.Start("/x")
		tc.Observe(StageSolve, time.Duration(i)*time.Millisecond)
		// Fake the total without sleeping: Finish computes total from the
		// clock, so instead shift begin back by the span length.
		tc.begin -= int64(time.Duration(i) * time.Millisecond)
		tr.Finish(tc, 200)
	}
	sums := tr.Snapshot()
	if len(sums) != 3 {
		t.Fatalf("retained %d traces, want 3", len(sums))
	}
	for i, s := range sums {
		if s.TotalMS < 8 {
			t.Fatalf("retained trace %d has total %vms; the slowest three are ≥8ms", i, s.TotalMS)
		}
	}
	if sums[0].TotalMS < sums[1].TotalMS || sums[1].TotalMS < sums[2].TotalMS {
		t.Fatalf("snapshot not sorted slowest-first: %v", sums)
	}
}

// TestRetentionIsPerRoute: slow creates must not evict a fast quote. Each
// route keeps its own keep slowest traces, so after ten creates of 10 ms
// and more, a 1 µs quote is still retained next to the three slowest
// creates.
func TestRetentionIsPerRoute(t *testing.T) {
	const create, quote = "POST /v1/campaigns", "GET /v1/campaigns/{id}/price"
	tr := NewTracer(3, 1)
	for i := 1; i <= 10; i++ {
		tc := tr.Start(create)
		tc.begin -= int64(time.Duration(10+i) * time.Millisecond)
		tr.Finish(tc, 201)
	}
	tc := tr.Start(quote)
	tc.begin -= int64(time.Microsecond)
	tr.Finish(tc, 200)

	sums := tr.Snapshot()
	var creates, quotes int
	for _, s := range sums {
		switch s.Route {
		case create:
			creates++
			if s.TotalMS < 18 {
				t.Errorf("retained create of %vms; the three slowest are ≥18ms", s.TotalMS)
			}
		case quote:
			quotes++
		}
	}
	if creates != 3 || quotes != 1 || len(sums) != 4 {
		t.Fatalf("retained %d creates and %d quotes of %d traces, want 3 and 1 of 4", creates, quotes, len(sums))
	}
	if sums[len(sums)-1].Route != quote {
		t.Fatalf("snapshot not sorted slowest-first across routes: %v", sums)
	}
}

func TestContextCarry(t *testing.T) {
	if got := FromContext(context.Background()); got != nil {
		t.Fatal("empty context produced a trace")
	}
	tr := NewTracer(2, 1)
	tc := tr.Start("/x")
	ctx := NewContext(context.Background(), tc)
	if got := FromContext(ctx); got != tc {
		t.Fatal("trace did not round-trip through the context")
	}
	// A nil trace must not grow the context chain.
	base := context.Background()
	if got := NewContext(base, nil); got != base {
		t.Fatal("NewContext(nil) wrapped the context")
	}
	tr.Finish(tc, 200)
}

func TestTracedSpanAllocationFree(t *testing.T) {
	tr := NewTracer(4, 1)
	tc := tr.Start("/x")
	defer tr.Finish(tc, 200)
	allocs := testing.AllocsPerRun(100, func() {
		t0 := tc.Now()
		tc.ObserveSince(StageLockHold, t0)
	})
	if allocs != 0 {
		t.Fatalf("span recording allocates %v objects per op, want 0", allocs)
	}
}

// TestStageNamesOrder pins the pipeline order StageNames reports: the
// bench report and dashboards render stage tables in this sequence.
func TestStageNamesOrder(t *testing.T) {
	names := StageNames()
	if len(names) != int(NumStages) {
		t.Fatalf("StageNames() has %d entries, want %d", len(names), int(NumStages))
	}
	for i, name := range names {
		if got := Stage(i).String(); got != name {
			t.Errorf("StageNames()[%d] = %q, Stage(%d).String() = %q", i, name, i, got)
		}
	}
	if got := Stage(250).String(); got != "stage(250)" {
		t.Errorf("out-of-range stage renders %q, want stage(250)", got)
	}
}

// TestSnapshotConcurrentWithFinish is a race regression: Snapshot must
// copy trace fields under the tracer mutex, because once the keep table
// is full a concurrent Finish evicts a retained trace and recycles it
// through the pool into a new request that rewrites id/route/status.
// Run under -race, the old copy-pointers-then-read pattern fails here.
func TestSnapshotConcurrentWithFinish(t *testing.T) {
	tr := NewTracer(4, 1)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 3000; i++ {
				tc := tr.Start("/race")
				tc.Observe(StageSolve, time.Duration(i%7)*time.Microsecond)
				// Vary totals so admissions and evictions both happen.
				tc.begin -= int64(time.Duration((w*3000+i)%13) * time.Microsecond)
				tr.Finish(tc, 200)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for alive := true; alive; {
		select {
		case <-done:
			alive = false
		default:
		}
		for _, s := range tr.Snapshot() {
			if s.Route != "/race" {
				t.Fatalf("snapshot read a recycled trace: route %q", s.Route)
			}
		}
	}
	if n := len(tr.Snapshot()); n != 4 {
		t.Fatalf("retained %d traces, want a full table of 4", n)
	}
}
