package analytics_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"slices"
	"sync"
	"testing"

	"crowdpricing/internal/analytics"
	"crowdpricing/internal/campaign"
	"crowdpricing/internal/dist"
	"crowdpricing/internal/engine"
	"crowdpricing/internal/kinds"
	"crowdpricing/internal/wal"
)

func TestWindowMeanWraps(t *testing.T) {
	a := analytics.New(2)
	for _, arrivals := range []float64{1, 2, 3} {
		a.CampaignObserved("deadline", false, arrivals, 0, 0)
	}
	s := a.Snapshot()
	if s.WindowObserves != 2 {
		t.Fatalf("window observes = %d, want 2", s.WindowObserves)
	}
	if s.LambdaHat != 2.5 {
		t.Fatalf("trailing λ̂ = %v, want 2.5 (last two observes)", s.LambdaHat)
	}
	if s.LambdaHatLifetime != 2 {
		t.Fatalf("lifetime λ̂ = %v, want 2", s.LambdaHatLifetime)
	}
}

func TestCohortKeysAndProfile(t *testing.T) {
	a := analytics.New(4)
	a.CampaignCreated("deadline", false)
	a.CampaignCreated("deadline", true)
	a.CampaignObserved("deadline", false, 4, 2, 0)
	a.CampaignObserved("deadline", true, 8, 1, 0)
	a.CampaignObserved("deadline", true, 2, 0, 1)
	a.CampaignQuoted("deadline", true, 30)
	a.CampaignQuoted("deadline", true, 10)
	a.CampaignFinished("deadline", false)
	a.CampaignExpired("deadline", true)
	a.CampaignObserved("deadline", false, 5, 0, -1) // interval unknown: clipped from the profile

	s := a.Snapshot()
	if got := analytics.CohortKey("deadline", true); got != "deadline/adaptive" {
		t.Fatalf("CohortKey adaptive = %q", got)
	}
	plain, ok := s.Cohorts["deadline"]
	if !ok {
		t.Fatalf("missing plain cohort; have %v", s.Cohorts)
	}
	adaptive, ok := s.Cohorts["deadline/adaptive"]
	if !ok {
		t.Fatalf("missing adaptive cohort; have %v", s.Cohorts)
	}
	if plain.Campaigns != 1 || plain.Finished != 1 || plain.Observes != 2 || plain.Arrivals != 9 || plain.Completions != 2 {
		t.Fatalf("plain cohort = %+v", plain)
	}
	if adaptive.Observes != 2 || adaptive.Arrivals != 10 || adaptive.LambdaHat != 5 {
		t.Fatalf("adaptive cohort = %+v", adaptive)
	}
	if adaptive.Quotes != 2 || adaptive.MeanPrice != 20 {
		t.Fatalf("adaptive quote summary = %+v", adaptive)
	}
	if adaptive.Expired != 1 {
		t.Fatalf("adaptive expired = %d, want 1", adaptive.Expired)
	}
	// Profile: interval 0 saw arrivals 4 and 8, interval 1 saw 2; the
	// unknown-interval observe counts toward λ̂ but not the profile.
	wantMeans := []float64{6, 2}
	if len(s.IntervalMeans) != len(wantMeans) {
		t.Fatalf("interval means = %v, want %v", s.IntervalMeans, wantMeans)
	}
	for i, want := range wantMeans {
		if s.IntervalMeans[i] != want {
			t.Fatalf("interval means = %v, want %v", s.IntervalMeans, wantMeans)
		}
	}
	if s.ProfileClipped != 1 {
		t.Fatalf("profile clipped = %d, want 1", s.ProfileClipped)
	}
	r := s.Rate()
	if r == nil {
		t.Fatal("Rate() = nil with a non-empty profile")
	}
	if r.Rate(0.5) != 6 || r.Rate(1.5) != 2 {
		t.Fatalf("fitted rate = %v/%v, want 6/2", r.Rate(0.5), r.Rate(1.5))
	}
}

// foldWAL replays the recorded log at dir into a fresh aggregator.
func foldWAL(t *testing.T, fsys wal.FS, dir string, window int) *analytics.Aggregator {
	t.Helper()
	agg := analytics.New(window)
	if err := campaign.FoldWAL(wal.NewReader(fsys, dir), agg); err != nil {
		t.Fatalf("FoldWAL: %v", err)
	}
	return agg
}

// TestFoldDeterministicAndMatchesLive is the analytics half of the
// acceptance gate: drive a fixed-seed Poisson workload through a real
// Manager with both a live sink and a WAL attached, then check that
// (1) two offline folds of the recorded log are bit-identical,
// (2) the offline fold agrees exactly with the live fold, and
// (3) λ̂ lands within tolerance of the generating rate.
func TestFoldDeterministicAndMatchesLive(t *testing.T) {
	const (
		dir       = "analytics-wal"
		lambda    = 6.0
		campaigns = 6
		intervals = 4
		window    = 8 // smaller than total observes: exercises the ring wrap
	)
	eng := engine.New(engine.Options{Workers: 2})
	t.Cleanup(eng.Close)
	m := campaign.NewManager(eng, nil, campaign.Options{})
	t.Cleanup(m.Close)

	fsys := wal.NewMemFS()
	l, err := m.OpenWAL(dir, wal.Options{FS: fsys})
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	m.AttachWAL(l)
	live := analytics.New(window)
	m.AttachSink(live)

	def, ok := kinds.Default().Lookup(kinds.KindDeadline)
	if !ok {
		t.Fatal("deadline kind not registered")
	}
	rng := dist.NewRNG(7)
	pois := dist.Poisson{Lambda: lambda}
	ctx := context.Background()
	var ids []string
	for i := 0; i < campaigns; i++ {
		body, err := json.Marshal(def.Sample(int64(i), "small"))
		if err != nil {
			t.Fatal(err)
		}
		var adaptive *campaign.AdaptiveOptions
		if i%3 == 0 {
			adaptive = &campaign.AdaptiveOptions{}
		}
		st, err := m.Create(ctx, kinds.KindDeadline, body, adaptive)
		if err != nil {
			t.Fatalf("Create %d: %v", i, err)
		}
		ids = append(ids, st.ID)
		for interval := 0; interval < intervals; interval++ {
			completed := make([]int, len(st.Remaining))
			if interval == 0 && st.Remaining[0] > 0 {
				completed[0] = 1
			}
			if _, err := m.Observe(st.ID, float64(pois.Sample(rng)), completed); err != nil {
				t.Fatalf("Observe %d/%d: %v", i, interval, err)
			}
		}
		if _, err := m.Quote(st.ID); err != nil {
			t.Fatalf("Quote %d: %v", i, err)
		}
	}
	for _, id := range ids[:2] {
		if _, err := m.Finish(id); err != nil {
			t.Fatalf("Finish %s: %v", id, err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	m.AttachWAL(nil)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	fold1 := foldWAL(t, fsys, dir, window).Snapshot()
	fold2 := foldWAL(t, fsys, dir, window).Snapshot()
	j1, err := json.Marshal(fold1)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := json.Marshal(fold2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j2) {
		t.Fatalf("two folds of the same log differ:\n%s\n%s", j1, j2)
	}

	// The live sink saw the same observe stream in the same order, so the
	// float folds must agree exactly — not approximately.
	ls := live.Snapshot()
	if fold1.LambdaHat != ls.LambdaHat || fold1.LambdaHatLifetime != ls.LambdaHatLifetime {
		t.Fatalf("fold λ̂ (%v, %v) != live λ̂ (%v, %v)",
			fold1.LambdaHat, fold1.LambdaHatLifetime, ls.LambdaHat, ls.LambdaHatLifetime)
	}
	if fold1.Observes != ls.Observes || fold1.Arrivals != ls.Arrivals || fold1.Completions != ls.Completions {
		t.Fatalf("fold totals (%d, %v, %d) != live totals (%d, %v, %d)",
			fold1.Observes, fold1.Arrivals, fold1.Completions, ls.Observes, ls.Arrivals, ls.Completions)
	}
	for key, lc := range ls.Cohorts {
		fc, ok := fold1.Cohorts[key]
		if !ok {
			t.Fatalf("fold missing cohort %q", key)
		}
		if fc.Campaigns != lc.Campaigns || fc.Finished != lc.Finished ||
			fc.Observes != lc.Observes || fc.Arrivals != lc.Arrivals || fc.Completions != lc.Completions {
			t.Fatalf("cohort %q: fold %+v != live %+v", key, fc, lc)
		}
	}
	// Quotes are deliberately never logged: the live fold saw them, the
	// offline fold must report none.
	if lc := ls.Cohorts["deadline"]; lc.Quotes == 0 {
		t.Fatal("live fold recorded no quotes")
	}
	if fc := fold1.Cohorts["deadline"]; fc.Quotes != 0 {
		t.Fatalf("offline fold reports %d quotes; quotes are not in the WAL", fc.Quotes)
	}

	// λ̂ versus the generating rate: 24 Poisson(6) draws have standard
	// error √(6/24) ≈ 0.5, so a ±1.5 band is ~3σ — and the seed is fixed,
	// so this is a regression pin, not a flaky statistical test.
	if fold1.Observes != campaigns*intervals {
		t.Fatalf("observes = %d, want %d", fold1.Observes, campaigns*intervals)
	}
	if math.Abs(fold1.LambdaHatLifetime-lambda) > 1.5 {
		t.Fatalf("lifetime λ̂ = %v, generating λ = %v", fold1.LambdaHatLifetime, lambda)
	}
	if len(fold1.IntervalMeans) != intervals {
		t.Fatalf("interval profile has %d buckets, want %d", len(fold1.IntervalMeans), intervals)
	}
}

// completionsRecorder is an Aggregator that reads the fleet, deadline
// and multi completion totals after every observe it folds.
type completionsRecorder struct {
	*analytics.Aggregator
	seen [][3]int64
}

func (r *completionsRecorder) CampaignObserved(kind string, adaptive bool, arrivals float64, completed int, interval int) {
	r.Aggregator.CampaignObserved(kind, adaptive, arrivals, completed, interval)
	s := r.Snapshot()
	r.seen = append(r.seen, [3]int64{s.Completions, s.Cohorts[kinds.KindDeadline].Completions, s.Cohorts[kinds.KindMulti].Completions})
}

// TestCompletionTotalsSaturate feeds completion counts whose sums
// overflow: one observe of two math.MaxInt counts on a two-type multi
// campaign, then two observes of math.MaxInt on a deadline campaign. Live,
// through FoldWAL and through ReplayWAL over the same log, the fleet and
// cohort totals must read the same after every observe, and never go
// negative or down.
func TestCompletionTotalsSaturate(t *testing.T) {
	const dir = "completions-wal"
	eng := engine.New(engine.Options{Workers: 2})
	t.Cleanup(eng.Close)
	m := campaign.NewManager(eng, nil, campaign.Options{})
	t.Cleanup(m.Close)
	fsys := wal.NewMemFS()
	l, err := m.OpenWAL(dir, wal.Options{FS: fsys})
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	m.AttachWAL(l)
	live := &completionsRecorder{Aggregator: analytics.New(0)}
	m.AttachSink(live)

	create := func(kind string) string {
		def, _ := kinds.Default().Lookup(kind)
		body, err := json.Marshal(def.Sample(1, "small"))
		if err != nil {
			t.Fatal(err)
		}
		st, err := m.Create(context.Background(), kind, body, nil)
		if err != nil {
			t.Fatalf("Create %s: %v", kind, err)
		}
		return st.ID
	}
	multi, deadline := create(kinds.KindMulti), create(kinds.KindDeadline)
	observes := []struct {
		id        string
		completed []int
	}{
		{multi, []int{math.MaxInt, math.MaxInt}},
		{deadline, []int{math.MaxInt}},
		{deadline, []int{math.MaxInt}},
	}
	for _, ob := range observes {
		if _, err := m.Observe(ob.id, 1, ob.completed); err != nil {
			t.Fatalf("Observe %s %v: %v", ob.id, ob.completed, err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	m.AttachWAL(nil)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	folded := &completionsRecorder{Aggregator: analytics.New(0)}
	if err := campaign.FoldWAL(wal.NewReader(fsys, dir), folded); err != nil {
		t.Fatalf("FoldWAL: %v", err)
	}
	replayed := &completionsRecorder{Aggregator: analytics.New(0)}
	m2 := campaign.NewManager(eng, nil, campaign.Options{})
	t.Cleanup(m2.Close)
	m2.AttachSink(replayed)
	if _, err := m2.ReplayWAL(context.Background(), wal.NewReader(fsys, dir)); err != nil {
		t.Fatalf("ReplayWAL: %v", err)
	}
	if len(live.seen) != len(observes) || !slices.Equal(live.seen, folded.seen) || !slices.Equal(live.seen, replayed.seen) {
		t.Fatalf("fleet, deadline and multi completions after each observe: live %v, FoldWAL %v, ReplayWAL %v",
			live.seen, folded.seen, replayed.seen)
	}
	for i, totals := range live.seen {
		for j, n := range totals {
			if n < 0 || i > 0 && n < live.seen[i-1][j] {
				t.Fatalf("completions after each observe (fleet, deadline, multi) = %v: total %d went negative or down", live.seen, j)
			}
		}
	}
}

// TestQuotesConcurrentWithFold exercises the lock-free quote path: quotes
// run against the copy-on-write cohort index with atomic adds while
// observes (which do hold the aggregator mutex) and snapshots proceed
// concurrently. Run under -race; final totals must be exact.
func TestQuotesConcurrentWithFold(t *testing.T) {
	a := analytics.New(0)
	const (
		workers = 8
		each    = 500
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				// Half the cohorts are first seen by a quote, so both the
				// fast path and the create-under-mutex path are hit.
				a.CampaignQuoted("deadline", w%2 == 0, 3)
				a.CampaignObserved("deadline", false, 1, 0, 0)
				_ = a.Snapshot()
			}
		}(w)
	}
	wg.Wait()
	s := a.Snapshot()
	var quotes, priceSum int64
	for _, c := range s.Cohorts {
		quotes += c.Quotes
		priceSum += c.PriceSum
	}
	if want := int64(workers * each); quotes != want || priceSum != 3*want {
		t.Fatalf("quotes=%d priceSum=%d, want %d and %d", quotes, priceSum, want, 3*want)
	}
	if s.Observes != int64(workers*each) {
		t.Fatalf("observes=%d, want %d", s.Observes, workers*each)
	}
}

// TestQuoteSinkAllocationFree fences the hot-path contract of
// CampaignQuoted: once a cohort exists in the copy-on-write index, a
// quote is two atomic adds — zero heap allocations and no mutex.
func TestQuoteSinkAllocationFree(t *testing.T) {
	a := analytics.New(0)
	a.CampaignQuoted("deadline", false, 5)
	allocs := testing.AllocsPerRun(200, func() {
		a.CampaignQuoted("deadline", false, 5)
	})
	if allocs != 0 {
		t.Fatalf("CampaignQuoted allocates %v per op on the fast path, want 0", allocs)
	}
}
