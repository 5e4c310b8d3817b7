package campaign

import (
	"context"
	"sync"
	"sync/atomic"

	"crowdpricing/internal/engine"
	"crowdpricing/internal/telemetry"
)

// internTable is the policy-table memory engine: one refcounted entry per
// solve fingerprint, shared by every campaign (and every adaptive bank
// factor) over the same problem, so a thousand identical campaigns hold one
// decoded table instead of a thousand. A table is solved and decoded once,
// by the first holder's ensure, and stays resident until its last holder
// releases it.
//
// Lock order: an entry's decodeMu may be held while calling the engine and
// while taking t.mu; t.mu never waits on decodeMu or the engine. The quote
// hot path takes neither — a resident table is an atomic pointer load.
type internTable struct {
	solver Solver

	mu       sync.Mutex
	entries  map[string]*internedQuoter
	resident int64

	hits   atomic.Int64
	misses atomic.Int64
}

func newInternTable(solver Solver) *internTable {
	return &internTable{solver: solver, entries: make(map[string]*internedQuoter)}
}

// internedQuoter is one intern-table entry: a refcounted handle on the
// decoded table for one solve fingerprint. Handles are what campaigns hold
// in their banks.
type internedQuoter struct {
	t    *internTable
	key  string
	kind string

	// refs counts campaigns/bank slots holding this handle; guarded by
	// t.mu. At zero the entry leaves the table.
	refs int

	// tab is the decoded table, nil until the first ensure succeeds.
	tab atomic.Pointer[priceTable]

	// decodeMu serializes solve+decode so a thundering herd on a cold
	// entry costs one decode.
	decodeMu sync.Mutex
}

// acquire returns the (refcounted) handle for spec, creating a cold entry
// on first sight. Release every acquired handle exactly once.
func (t *internTable) acquire(kind string, spec engine.Spec) (*internedQuoter, error) {
	key, err := spec.Fingerprint()
	if err != nil {
		return nil, &engine.InvalidSpecError{Err: err}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if h, ok := t.entries[key]; ok {
		h.refs++
		t.hits.Add(1)
		return h, nil
	}
	h := &internedQuoter{t: t, key: key, kind: kind, refs: 1}
	t.entries[key] = h
	t.misses.Add(1)
	return h, nil
}

// release drops one reference; the last release removes the entry (and its
// resident bytes) from the table. nil handles are ignored so error paths
// can release unconditionally.
func (t *internTable) release(h *internedQuoter) {
	if h == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	h.refs--
	if h.refs > 0 {
		return
	}
	delete(t.entries, h.key)
	if tab := h.load(); tab != nil {
		t.resident -= tab.residentBytes()
	}
}

// releaseAll releases every non-nil handle in bank.
func (t *internTable) releaseAll(bank []*internedQuoter) {
	for _, h := range bank {
		t.release(h)
	}
}

// stats snapshots the intern gauges and counters.
type internStats struct {
	interned      int64
	residentBytes int64
	hits          int64
	misses        int64
}

func (t *internTable) stats() internStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return internStats{
		interned:      int64(len(t.entries)),
		residentBytes: t.resident,
		hits:          t.hits.Load(),
		misses:        t.misses.Load(),
	}
}

// load returns the decoded table, or nil before the first ensure succeeds.
func (h *internedQuoter) load() *priceTable { return h.tab.Load() }

// ensure makes the decoded table resident, solving spec (the problem h was
// acquired for) and decoding the artifact on first use. The caller holds a
// reference across the call, so the bytes it accounts are returned by the
// last release. The background flag routes the solve through the engine's
// background lane (bank pre-solves); interactive callers keep queue
// priority. cacheHit reports whether no fresh solver execution was waited
// on (resident table, or engine cache hit).
func (h *internedQuoter) ensure(ctx context.Context, spec engine.Spec, background bool) (cacheHit bool, err error) {
	if h.load() != nil {
		return true, nil
	}
	h.decodeMu.Lock()
	defer h.decodeMu.Unlock()
	if h.load() != nil {
		// Singleflight: another caller decoded while this one waited.
		return true, nil
	}
	solve := h.t.solver.Solve
	if background {
		solve = h.t.solver.SolveBatch
	}
	res, err := solve(ctx, spec)
	if err != nil {
		return false, err
	}
	// The engine recorded its own queue/solve spans through ctx; the
	// decode is this layer's contribution.
	tr := telemetry.FromContext(ctx)
	decodeStart := tr.Now()
	tab, err := decodeTable(h.kind, res.Value)
	tr.ObserveSince(telemetry.StageQuoterDecode, decodeStart)
	if err != nil {
		return false, err
	}
	h.t.mu.Lock()
	h.tab.Store(tab)
	h.t.resident += tab.residentBytes()
	h.t.mu.Unlock()
	return res.CacheHit, nil
}
