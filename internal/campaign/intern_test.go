package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"crowdpricing/internal/engine"
	"crowdpricing/internal/kinds"
	"crowdpricing/internal/wal"
)

// newInternManager builds a Manager over its own engine and returns both,
// so tests can assert on solver executions as well as intern state.
func newInternManager(t testing.TB, opts Options) (*Manager, *engine.Engine) {
	t.Helper()
	eng := engine.New(engine.Options{Workers: 2})
	t.Cleanup(eng.Close)
	if opts.now == nil {
		opts.now = func() time.Time { return time.Unix(1_700_000_000, 0) }
	}
	m := NewManager(eng, nil, opts)
	t.Cleanup(m.Close)
	return m, eng
}

// warmQuoteAllocs measures heap allocations of the warm quote computation —
// the table lookup into the campaign's reusable price buffer, everything
// under the campaign mutex short of the response envelope (which copies
// state out by design).
func warmQuoteAllocs(t *testing.T, m *Manager, id string) float64 {
	t.Helper()
	c, err := m.get(id)
	if err != nil {
		t.Fatal(err)
	}
	// One warm-up quote so quoteBuf reaches its final capacity.
	if _, err := m.Quote(id); err != nil {
		t.Fatal(err)
	}
	return testing.AllocsPerRun(200, func() {
		c.mu.Lock()
		tab := c.active().load()
		if tab == nil {
			c.mu.Unlock()
			t.Fatal("table not resident in a warm-quote fence")
		}
		_ = c.quoteLocked(tab)
		c.mu.Unlock()
	})
}

// TestWarmQuoteAllocs is the satellite fence: a warm quote — deadline and
// multi, the single- and multi-type table layouts — performs zero heap
// allocations.
func TestWarmQuoteAllocs(t *testing.T) {
	m, _ := newInternManager(t, Options{})

	deadline, err := m.Create(context.Background(), kinds.KindDeadline,
		sampleRequest(t, kinds.KindDeadline, 3, "small"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := warmQuoteAllocs(t, m, deadline.ID); allocs != 0 {
		t.Errorf("warm deadline quote allocates %.1f objects/op, want 0", allocs)
	}

	multi, err := m.Create(context.Background(), kinds.KindMulti,
		sampleRequest(t, kinds.KindMulti, 3, "small"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := warmQuoteAllocs(t, m, multi.ID); allocs != 0 {
		t.Errorf("warm multi quote allocates %.1f objects/op, want 0", allocs)
	}
}

// TestConcurrentIdenticalAdaptiveCreatesShareBank: N concurrent identical
// adaptive creates must converge on ONE interned bank — one solver
// execution per factor, not N per factor — and every campaign's bank slots
// must be the same handles. Run under -race this also exercises the intern
// table's concurrency.
func TestConcurrentIdenticalAdaptiveCreatesShareBank(t *testing.T) {
	m, eng := newInternManager(t, Options{})
	req := sampleRequest(t, kinds.KindDeadline, 5, "small")
	adaptive := &AdaptiveOptions{WindowIntervals: 2}
	factors := len(defaultFactors())

	const n = 8
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := m.Create(context.Background(), kinds.KindDeadline, req, adaptive)
			if err != nil {
				t.Error(err)
				return
			}
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	assertTablesResident(t, m)

	if solves := eng.Metrics().Solves; solves != int64(factors) {
		t.Errorf("%d campaigns cost %d solver executions, want one per factor (%d)", n, solves, factors)
	}
	is := m.intern.stats()
	if is.interned != int64(factors) {
		t.Errorf("%d distinct tables interned, want %d (one per factor)", is.interned, factors)
	}
	// Every campaign's bank must be the same slice of handles.
	first, err := m.get(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids[1:] {
		c, err := m.get(id)
		if err != nil {
			t.Fatal(err)
		}
		for slot, h := range c.bank {
			if h != first.bank[slot] {
				t.Fatalf("campaign %s bank slot %d holds a different handle than %s", id, slot, ids[0])
			}
		}
	}
	// Finishing all but one keeps the shared bank; finishing the last frees it.
	for _, id := range ids[:n-1] {
		if _, err := m.Finish(id); err != nil {
			t.Fatal(err)
		}
	}
	if is := m.intern.stats(); is.interned != int64(factors) {
		t.Errorf("surviving campaign lost its bank: %d interned, want %d", is.interned, factors)
	}
	if _, err := m.Finish(ids[n-1]); err != nil {
		t.Fatal(err)
	}
	if is := m.intern.stats(); is.interned != 0 || is.residentBytes != 0 {
		t.Errorf("after the last finish: %d interned, %d resident bytes, want 0/0", is.interned, is.residentBytes)
	}
}

// assertTablesResident checks the invariant the quote path relies on:
// every bank slot of every live campaign holds a decoded table, and the
// resident-bytes gauge is the sum of the distinct tables' footprints.
func assertTablesResident(t *testing.T, m *Manager) {
	t.Helper()
	distinct := make(map[*internedQuoter]int64)
	m.mu.RLock()
	for id, c := range m.campaigns {
		for slot, h := range c.bank {
			tab := h.load()
			if tab == nil {
				t.Errorf("campaign %s bank slot %d has no resident table", id, slot)
				continue
			}
			distinct[h] = tab.residentBytes()
		}
	}
	m.mu.RUnlock()
	var sum int64
	for _, b := range distinct {
		sum += b
	}
	if got := m.intern.stats().residentBytes; got != sum {
		t.Errorf("%d resident bytes, want %d (the sum over %d distinct tables)", got, sum, len(distinct))
	}
}

// quoteAll returns one quote per campaign ID, in order.
func quoteAll(t *testing.T, m *Manager, ids []string) []*Quote {
	t.Helper()
	out := make([]*Quote, len(ids))
	for i, id := range ids {
		q, err := m.Quote(id)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = q
	}
	return out
}

// driftObserve drives interval observations with arrivals far above the
// trained profile so adaptive campaigns re-plan onto a neighboring factor.
func driftObserve(t *testing.T, m *Manager, id string, req json.RawMessage, intervals int) {
	t.Helper()
	var wire kinds.DeadlineRequest
	if err := json.Unmarshal(req, &wire); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < intervals; i++ {
		if _, err := m.Observe(id, 2*wire.Lambdas[i%len(wire.Lambdas)], []int{1}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWALReplayLandsOnInternedTables: campaigns rebuilt by replay — from
// their create events, or from the snapshot entries a compaction folded
// them into — must dedup onto interned tables exactly like live creates
// (K identical adaptive campaigns replay to one bank) and quote
// bit-identical prices.
func TestWALReplayLandsOnInternedTables(t *testing.T) {
	for _, compact := range []bool{false, true} {
		name := "events"
		if compact {
			name = "compacted"
		}
		t.Run(name, func(t *testing.T) {
			m, eng := newInternManager(t, Options{})
			mem := wal.NewMemFS()
			wlog, err := m.OpenWAL("wal", wal.Options{FS: mem, SyncInterval: time.Hour})
			if err != nil {
				t.Fatal(err)
			}
			m.AttachWAL(wlog)

			req := sampleRequest(t, kinds.KindDeadline, 9, "small")
			adaptive := &AdaptiveOptions{WindowIntervals: 2}
			const k = 3
			ids := make([]string, k)
			for i := range ids {
				st, err := m.Create(context.Background(), kinds.KindDeadline, req, adaptive)
				if err != nil {
					t.Fatal(err)
				}
				ids[i] = st.ID
			}
			assertTablesResident(t, m)
			driftObserve(t, m, ids[0], req, 3)
			before := quoteAll(t, m, ids)
			if compact {
				if err := wlog.Compact(); err != nil {
					t.Fatal(err)
				}
			}
			if err := wlog.Close(); err != nil {
				t.Fatal(err)
			}

			m2 := NewManager(eng, nil, Options{now: m.opts.now})
			t.Cleanup(m2.Close)
			wlog2, err := m2.OpenWAL("wal", wal.Options{FS: mem, SyncInterval: time.Hour})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { wlog2.Close() })
			stats, err := m2.ReplayWAL(context.Background(), wlog2)
			if err != nil {
				t.Fatal(err)
			}
			if stats.Campaigns != k {
				t.Fatalf("replayed %d campaigns, want %d", stats.Campaigns, k)
			}
			assertTablesResident(t, m2)
			if compact && stats.Snapshots != 1 {
				t.Fatalf("replay crossed %d snapshot records, want 1", stats.Snapshots)
			}
			after := quoteAll(t, m2, ids)
			for i := range before {
				if before[i].Price != after[i].Price || before[i].Interval != after[i].Interval {
					t.Errorf("campaign %s: quote (%d @ %d) before replay, (%d @ %d) after",
						ids[i], before[i].Price, before[i].Interval, after[i].Price, after[i].Interval)
				}
			}
			if is := m2.intern.stats(); is.interned != int64(len(defaultFactors())) {
				t.Errorf("replay interned %d quoters for %d identical banks, want %d",
					is.interned, k, len(defaultFactors()))
			}
		})
	}
}

// TestAdaptiveCreateSolvesOnlyTheBank: an adaptive create solves and
// interns one table per grid factor and nothing else, and the campaign is
// still named by the base problem's fingerprint. A grid without 1.0 used
// to solve the base problem too and then drop its table (3 solves for
// [0.5, 2.0]). A second identical create reuses the bank and reports a
// cache hit.
func TestAdaptiveCreateSolvesOnlyTheBank(t *testing.T) {
	req := sampleRequest(t, kinds.KindDeadline, 3, "small")
	var wire kinds.DeadlineRequest
	if err := json.Unmarshal(req, &wire); err != nil {
		t.Fatal(err)
	}
	key, err := wire.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	for _, factors := range [][]float64{{0.5, 2.0}, defaultFactors()} {
		m, eng := newInternManager(t, Options{})
		adaptive := &AdaptiveOptions{Factors: factors}
		st, err := m.Create(context.Background(), kinds.KindDeadline, req, adaptive)
		if err != nil {
			t.Fatal(err)
		}
		if solves := eng.Metrics().Solves; solves != int64(len(factors)) {
			t.Errorf("grid %v: create ran %d solves, want %d", factors, solves, len(factors))
		}
		if is := m.intern.stats(); is.interned != int64(len(factors)) {
			t.Errorf("grid %v: create interned %d tables, want %d", factors, is.interned, len(factors))
		}
		if want := campaignID(1, key); st.ID != want || st.SolveCacheHit {
			t.Errorf("grid %v: cold create gave ID %s, cache hit %v; want %s, false", factors, st.ID, st.SolveCacheHit, want)
		}
		again, err := m.Create(context.Background(), kinds.KindDeadline, req, adaptive)
		if err != nil {
			t.Fatal(err)
		}
		if !again.SolveCacheHit || eng.Metrics().Solves != int64(len(factors)) {
			t.Errorf("grid %v: repeat create reports cache hit %v after %d solves", factors, again.SolveCacheHit, eng.Metrics().Solves)
		}
	}
}

// TestUnsupportedKindRefusedBeforeSolve: a registered kind with no
// sequential price table (budget) is refused before the engine sees it. It
// used to solve, fill a cache entry and only then fail to decode, which
// for an exact budget problem inside the service limits held a solver
// worker for seconds.
func TestUnsupportedKindRefusedBeforeSolve(t *testing.T) {
	m, eng := newInternManager(t, Options{})
	_, err := m.Create(context.Background(), kinds.KindBudget, sampleRequest(t, kinds.KindBudget, 1, "small"), nil)
	if !errors.Is(err, ErrUnsupportedKind) {
		t.Fatalf("budget create: err=%v, want ErrUnsupportedKind", err)
	}
	if n := strings.Count(err.Error(), "campaign:"); n != 1 {
		t.Errorf("budget create error %q carries the campaign: prefix %d times, want once", err, n)
	}
	if em := eng.Metrics(); em.Solves != 0 || em.CacheEntries != 0 {
		t.Errorf("refused budget create ran %d solves and left %d cache entries, want 0 and 0", em.Solves, em.CacheEntries)
	}
}

// TestInternedBankMemoryBound is the acceptance fence: 1,000 identical
// adaptive campaigns must hold resident quoter bytes within 2× of ONE
// campaign's footprint — O(distinct problems), not O(campaigns).
func TestInternedBankMemoryBound(t *testing.T) {
	m, _ := newInternManager(t, Options{})
	req := sampleRequest(t, kinds.KindDeadline, 4, "small")
	adaptive := &AdaptiveOptions{WindowIntervals: 2}

	if _, err := m.Create(context.Background(), kinds.KindDeadline, req, adaptive); err != nil {
		t.Fatal(err)
	}
	one := m.intern.stats().residentBytes
	if one <= 0 {
		t.Fatalf("one campaign holds %d resident bytes", one)
	}
	for i := 1; i < 1000; i++ {
		if _, err := m.Create(context.Background(), kinds.KindDeadline, req, adaptive); err != nil {
			t.Fatal(err)
		}
	}
	all := m.intern.stats().residentBytes
	t.Logf("resident quoter bytes: 1 campaign %d, 1000 campaigns %d", one, all)
	if all > 2*one {
		t.Fatalf("1000 identical adaptive campaigns hold %d resident bytes, over 2× one campaign's %d", all, one)
	}
}

// errInjected is the failure failingSolver returns.
var errInjected = errors.New("injected solve failure")

// failingSolver fails every solve of one fingerprint and passes the rest to
// the engine. Its SolveBatch is its Solve, so bank solves fail the same way.
type failingSolver struct {
	eng *engine.Engine
	key string
}

func (s failingSolver) Solve(ctx context.Context, spec engine.Spec) (*engine.Result, error) {
	if key, err := spec.Fingerprint(); err == nil && key == s.key {
		return nil, errInjected
	}
	return s.eng.Solve(ctx, spec)
}

func (s failingSolver) SolveBatch(ctx context.Context, spec engine.Spec) (*engine.Result, error) {
	return s.Solve(ctx, spec)
}

// TestBankSolveFailureReleasesTables: when one factor of an adaptive bank
// fails to solve, the create fails and every table the other factors
// decoded goes back — no interned entry, no resident byte, no campaign.
func TestBankSolveFailureReleasesTables(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 2})
	t.Cleanup(eng.Close)
	req := sampleRequest(t, kinds.KindDeadline, 6, "small")
	var scaled kinds.DeadlineRequest
	if err := json.Unmarshal(req, &scaled); err != nil {
		t.Fatal(err)
	}
	factors := defaultFactors()
	last := factors[len(factors)-1]
	for i := range scaled.Lambdas {
		scaled.Lambdas[i] *= last
	}
	key, err := scaled.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(failingSolver{eng: eng, key: key}, nil, Options{})
	t.Cleanup(m.Close)

	if _, err := m.Create(context.Background(), kinds.KindDeadline, req, &AdaptiveOptions{}); !errors.Is(err, errInjected) {
		t.Fatalf("create with factor %g failing: err=%v, want the injected failure", last, err)
	}
	if is := m.intern.stats(); is.interned != 0 || is.residentBytes != 0 {
		t.Errorf("failed create left %d interned tables, %d resident bytes, want 0/0", is.interned, is.residentBytes)
	}
	if active := m.Metrics().Active; active != 0 {
		t.Errorf("failed create left %d live campaigns", active)
	}
}
