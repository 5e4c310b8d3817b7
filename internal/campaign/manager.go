package campaign

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"crowdpricing/internal/engine"
	"crowdpricing/internal/kinds"
	"crowdpricing/internal/sim"
	"crowdpricing/internal/telemetry"
	"crowdpricing/internal/wal"
)

// Solver is the slice of internal/engine the manager needs: one
// admission-controlled, cached, deduplicated solve on each of the engine's
// two lanes. Solve is the interactive lane; SolveBatch is the background
// lane, which runs adaptive bank pre-solves behind interactive work.
// *engine.Engine implements it.
type Solver interface {
	Solve(ctx context.Context, spec engine.Spec) (*engine.Result, error)
	SolveBatch(ctx context.Context, spec engine.Spec) (*engine.Result, error)
}

// Defaults for Options zero values.
const (
	// DefaultTTL is how long an untouched campaign survives before the
	// sweeper expires it.
	DefaultTTL = 30 * time.Minute
	// DefaultMaxCampaigns bounds the live-campaign table so one tenant
	// cannot grow daemon memory without bound.
	DefaultMaxCampaigns = 65_536
)

// Options configures a Manager. The zero value is production-ready.
type Options struct {
	// TTL expires campaigns idle (no observe/quote/state touch) for longer
	// than this (0 = DefaultTTL; negative = never expire).
	TTL time.Duration

	// now overrides the clock in tests, and maxCampaigns the table bound
	// (0 = DefaultMaxCampaigns).
	now          func() time.Time
	maxCampaigns int
}

// Manager owns the live-campaign table: create/observe/quote/finish
// lifecycle against the engine, TTL expiry, counters, and event-log
// durability (see wal.go).
// Create with NewManager; a Manager is safe for arbitrary concurrent use.
// Close stops the expiry sweeper (live campaigns remain usable).
type Manager struct {
	solver   Solver
	registry *engine.Registry
	opts     Options
	// intern is the policy-table memory engine: fingerprint-keyed,
	// refcounted decoded tables shared across campaigns.
	intern *internTable

	mu        sync.RWMutex
	campaigns map[string]*campaign
	seq       atomic.Int64

	// wlog, when attached, receives every state mutation as an event
	// record (see wal.go); nil means durability is off.
	wlog atomic.Pointer[wal.Log]

	// sink, when attached, receives the lifecycle event stream (see
	// sink.go); nil means no analytics plane is listening.
	sink atomic.Pointer[sinkHolder]

	quit     chan struct{}
	stopOnce sync.Once

	replans atomic.Int64
	expired atomic.Int64
}

// NewManager builds a Manager solving through solver (typically the
// server's engine) and resolving kinds through reg (nil = kinds.Default()).
func NewManager(solver Solver, reg *engine.Registry, opts Options) *Manager {
	if reg == nil {
		reg = kinds.Default()
	}
	if opts.TTL == 0 {
		opts.TTL = DefaultTTL
	}
	if opts.maxCampaigns <= 0 {
		opts.maxCampaigns = DefaultMaxCampaigns
	}
	if opts.now == nil {
		opts.now = time.Now
	}
	m := &Manager{
		solver:    solver,
		registry:  reg,
		opts:      opts,
		campaigns: make(map[string]*campaign),
		quit:      make(chan struct{}),
	}
	m.intern = newInternTable(solver)
	if opts.TTL > 0 {
		go m.sweeper()
	}
	return m
}

// Close stops the background sweeper. Campaigns stay readable; no further
// TTL expiry happens.
func (m *Manager) Close() { m.stopOnce.Do(func() { close(m.quit) }) }

// sweeper scans for expired campaigns four times per TTL, but at most
// once a second and at least once a minute.
func (m *Manager) sweeper() {
	ticker := time.NewTicker(min(max(m.opts.TTL/4, time.Second), time.Minute))
	defer ticker.Stop()
	for {
		select {
		case <-m.quit:
			return
		case <-ticker.C:
			m.ExpireIdle()
		}
	}
}

// ExpireIdle removes campaigns idle past the TTL and returns how many were
// expired. The background sweeper calls this periodically; it is exported
// for tests and embedders that want deterministic sweeps.
func (m *Manager) ExpireIdle() int {
	if m.opts.TTL < 0 {
		return 0
	}
	cutoff := m.opts.now().Add(-m.opts.TTL)
	m.mu.Lock()
	var dead []*campaign
	for _, c := range m.campaigns {
		c.mu.Lock()
		idle := c.lastTouched.Before(cutoff)
		c.mu.Unlock()
		if idle {
			dead = append(dead, c)
		}
	}
	removed := make([]*campaign, 0, len(dead))
	for _, c := range dead {
		delete(m.campaigns, c.id)
		removed = append(removed, c)
		// Expiry must reach the log, or a replay would resurrect the
		// campaign. The sweeper has no caller to surface an append error
		// to; the failure is sticky and the next client write reports it.
		if _, err := m.walAppend(nil, WALRecordExpire, walRefEvent{ID: c.id}); err != nil {
			break
		}
	}
	m.mu.Unlock()
	// Return the expired campaigns' intern references outside the table
	// lock; shared tables stay resident for their surviving holders.
	sink := m.eventSink()
	for _, c := range removed {
		m.intern.releaseAll(c.bank)
		if sink != nil {
			sink.CampaignExpired(c.kind, c.adaptive())
		}
	}
	m.expired.Add(int64(len(removed)))
	return len(removed)
}

// decodeSpec resolves kind through the registry, refuses a kind with no
// campaign runtime, and strictly decodes request into a fresh Spec
// (engine.DecodeJSON, the decoder of the server's solve bodies).
func (m *Manager) decodeSpec(kind string, request json.RawMessage) (engine.Spec, error) {
	def, ok := m.registry.Lookup(kind)
	if !ok {
		return nil, fmt.Errorf("%w: unknown kind %q", ErrUnsupportedKind, kind)
	}
	if !SupportsKind(kind) {
		return nil, fmt.Errorf("%w: kind %q has no sequential price table", ErrUnsupportedKind, kind)
	}
	spec := def.New()
	if err := engine.DecodeJSON(request, spec); err != nil {
		return nil, &engine.InvalidSpecError{Err: fmt.Errorf("bad %s request: %w", kind, err)}
	}
	return spec, nil
}

// Create registers a new campaign: intern the policy for (kind, request) —
// identical campaigns share one decoded table, cold problems solve through
// the engine — or, in adaptive mode, build the factor bank in its place
// (pre-solved on the engine's background lane).
// The returned State carries the campaign ID every other call takes.
func (m *Manager) Create(ctx context.Context, kind string, request json.RawMessage, adaptive *AdaptiveOptions) (*State, error) {
	// Shed a full table before any solver work. The daemon answers
	// ErrTableFull with 429 and Retry-After, and a 429 means "the daemon
	// did no work, retry later", not "the daemon ran a dozen solves and
	// then refused". The check repeats authoritatively under the lock at
	// insert time.
	m.mu.RLock()
	full := len(m.campaigns) >= m.opts.maxCampaigns
	m.mu.RUnlock()
	if full {
		return nil, fmt.Errorf("%w (%d live campaigns)", ErrTableFull, m.opts.maxCampaigns)
	}
	c, warm, err := m.newCampaign(ctx, kind, request, adaptive)
	if err != nil {
		return nil, err
	}
	registered := false
	defer func() {
		if !registered {
			m.intern.releaseAll(c.bank)
		}
	}()

	now := m.opts.now()
	c.created, c.lastTouched = now, now
	seq := m.seq.Add(1)
	c.id = campaignID(seq, c.fingerprint)

	m.mu.Lock()
	if len(m.campaigns) >= m.opts.maxCampaigns {
		m.mu.Unlock()
		return nil, fmt.Errorf("%w (%d live campaigns)", ErrTableFull, m.opts.maxCampaigns)
	}
	// Log the create while still holding the table lock: any Observe on
	// the new ID must first see it in the table (an RLock acquired after
	// this Unlock), so its event always lands after this one in the log.
	lsn, err := m.walAppend(telemetry.FromContext(ctx), WALRecordCreate, walCreateEvent{
		ID:              c.id,
		Seq:             seq,
		Kind:            kind,
		Request:         request,
		Adaptive:        adaptive,
		CreatedUnixNano: now.UnixNano(),
	})
	if err != nil {
		m.mu.Unlock()
		return nil, fmt.Errorf("campaign: logging create: %w", err)
	}
	c.lastLSN = lsn
	m.campaigns[c.id] = c
	registered = true
	m.mu.Unlock()
	if sink := m.eventSink(); sink != nil {
		sink.CampaignCreated(kind, adaptive != nil)
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stateLocked()
	st.SolveCacheHit = warm
	return st, nil
}

// newCampaign builds an unregistered campaign at its initial state. It is
// the one builder: Create calls it, and so does ReplayWAL for every
// campaign in the log, whether a create record or a snapshot entry holds
// its request (ReplayWAL then restores a snapshot entry's recorded state).
// It decodes and checks the request, derives the specs the campaign quotes
// from (its one problem, or one problem with λ_t scaled per §5.2.5 factor),
// and interns and solves them through buildBank. Everything that can be
// refused without a solve is refused before the first one, so a rejected
// create costs the engine nothing. The caller sets the ID and timestamps,
// and owns the campaign's intern references: any path that does not
// register it must release c.bank. warm reports that no table needed a
// fresh solve.
func (m *Manager) newCampaign(ctx context.Context, kind string, request json.RawMessage, adaptive *AdaptiveOptions) (*campaign, bool, error) {
	spec, err := m.decodeSpec(kind, request)
	if err != nil {
		return nil, false, err
	}
	c := &campaign{
		kind:    kind,
		request: append([]byte(nil), request...),
		factor:  1,
	}
	specs := []engine.Spec{spec}
	if adaptive != nil {
		base, ok := spec.(*kinds.DeadlineRequest)
		if !ok {
			return nil, false, fmt.Errorf("%w, got %q", ErrAdaptiveUnsupported, kind)
		}
		norm, err := adaptive.normalized()
		if err != nil {
			return nil, false, &engine.InvalidSpecError{Err: err}
		}
		specs = make([]engine.Spec, len(norm.Factors))
		for i, f := range norm.Factors {
			scaled := *base
			scaled.Lambdas = sim.ScaledLambdas(base.Lambdas, f)
			specs[i] = &scaled
		}
		c.factors, c.window = norm.Factors, norm.WindowIntervals
		c.baseLambdas = append([]float64(nil), base.Lambdas...)
		// Start on the factor nearest 1.0 — the trained profile — exactly as
		// the sim controller does before its first window closes.
		c.activeIdx = sim.NearestFactor(norm.Factors, 1)
	}
	// The request's own fingerprint names the campaign. A static
	// campaign's is its one handle's key. An adaptive campaign quotes only
	// from its bank, so its base problem is fingerprinted here and not
	// solved on its own (a grid holding 1.0 solves it in that slot).
	if adaptive != nil {
		if c.fingerprint, err = spec.Fingerprint(); err != nil {
			return nil, false, &engine.InvalidSpecError{Err: err}
		}
	}
	warm, err := m.buildBank(ctx, c, specs, adaptive != nil)
	if err != nil {
		return nil, false, err
	}
	if adaptive == nil {
		c.fingerprint = c.bank[0].key
	}
	tab := c.bank[0].load()
	c.remaining = append([]int(nil), tab.counts...)
	c.quoteBuf = make([]int, 0, len(tab.counts))
	return c, warm, nil
}

// buildBank interns one handle per spec into c.bank, in order, so
// identical campaigns (or a restart's replay of them) share one decoded
// table per problem instead of one per campaign. It acquires every handle
// first (a fingerprint and a map entry each), so a spec that cannot be
// fingerprinted is refused before any solve; then it solves and decodes
// them all at once through the engine, whose worker pool, queue and
// singleflight table are the admission control (a one-spec bank, every
// static campaign's, on the calling goroutine). background routes the
// solves through the engine's background lane, which keeps an adaptive
// grid from monopolizing workers against interactive solves. An adaptive
// bank's errors name the factor they belong to. warm reports that every
// table was served without a fresh solve.
func (m *Manager) buildBank(ctx context.Context, c *campaign, specs []engine.Spec, background bool) (warm bool, err error) {
	named := func(op string, i int, err error) error {
		if !c.adaptive() {
			return err
		}
		return fmt.Errorf("%s adaptive bank factor %g: %w", op, c.factors[i], err)
	}
	bank := make([]*internedQuoter, len(specs))
	for i, spec := range specs {
		h, err := m.intern.acquire(c.kind, spec)
		if err != nil {
			m.intern.releaseAll(bank[:i])
			return false, named("interning", i, err)
		}
		bank[i] = h
	}
	errs := make([]error, len(bank))
	hits := make([]bool, len(bank))
	ensure := func(i int) { hits[i], errs[i] = bank[i].ensure(ctx, specs[i], background) }
	if len(bank) == 1 {
		ensure(0)
	} else {
		var wg sync.WaitGroup
		for i := range bank {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ensure(i)
			}()
		}
		wg.Wait()
	}
	for i, err := range errs {
		if err != nil {
			m.intern.releaseAll(bank)
			return false, named("solving", i, err)
		}
	}
	c.bank = bank
	return !slices.Contains(hits, false), nil
}

// campaignID derives a readable, collision-free ID: a process-local
// sequence number plus a fingerprint excerpt for log greppability.
func campaignID(seq int64, fingerprint string) string {
	fp := fingerprint
	if i := strings.LastIndexByte(fp, ':'); i >= 0 {
		fp = fp[i+1:]
	}
	if len(fp) > 8 {
		fp = fp[:8]
	}
	return fmt.Sprintf("c%06d-%s", seq, fp)
}

// get looks up a live campaign. Callers that touch state (Observe, Quote,
// State) refresh lastTouched themselves under the campaign's lock; get
// does not.
func (m *Manager) get(id string) (*campaign, error) {
	m.mu.RLock()
	c, ok := m.campaigns[id]
	m.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	return c, nil
}

// Observe records one elapsed interval: the observed marketplace arrivals
// and the tasks completed (per type; nil means none). Adaptive campaigns
// re-estimate the rate scale and may switch policies — visible in the
// returned State's ActiveFactor and Replans.
func (m *Manager) Observe(id string, arrivals float64, completed []int) (*State, error) {
	return m.ObserveTraced(nil, id, arrivals, completed)
}

// ObserveTraced is Observe with request-tracing spans: the per-campaign
// mutex (acquisition + critical section) lands on StageLockHold and the
// event-log append on StageWALAppend. A nil trace records nothing.
func (m *Manager) ObserveTraced(tr *telemetry.Trace, id string, arrivals float64, completed []int) (*State, error) {
	// The service limit on every λ_t bounds an observed count too, so sums
	// and scale estimates stay finite and every state encodes. It is checked
	// here, not in observeLocked, so a log an earlier binary wrote with a
	// larger count still replays.
	if arrivals > kinds.MaxArrivals {
		return nil, fmt.Errorf("%w: observed arrivals %g outside the service limit: arrivals per interval must be at most %d",
			ErrBadInput, arrivals, kinds.MaxArrivals)
	}
	c, err := m.get(id)
	if err != nil {
		return nil, err
	}
	lockStart := tr.Now()
	st, err := m.observeCampaign(tr, c, arrivals, completed)
	tr.ObserveSince(telemetry.StageLockHold, lockStart)
	return st, err
}

func (m *Manager) observeCampaign(tr *telemetry.Trace, c *campaign, arrivals float64, completed []int) (*State, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	before := c.replans
	if err := c.observeLocked(arrivals, completed); err != nil {
		return nil, err
	}
	// Log after the validate-then-mutate succeeds so rejected observes
	// never reach the log (replay applies every logged event). The append
	// happens under c.mu, so a campaign's events are logged in the order
	// they were applied.
	lsn, err := m.walAppend(tr, WALRecordObserve, walObserveEvent{ID: c.id, Arrivals: arrivals, Completed: completed})
	if err != nil {
		return nil, fmt.Errorf("campaign: logging observe: %w", err)
	}
	if lsn > 0 {
		c.lastLSN = lsn
	}
	c.lastTouched = m.opts.now()
	m.replans.Add(c.replans - before)
	if sink := m.eventSink(); sink != nil {
		sink.CampaignObserved(c.kind, c.adaptive(), arrivals, sumCompleted(completed), c.interval-1)
	}
	return c.stateLocked(), nil
}

// sumCompleted collapses a per-type completion vector for the event
// stream (nil means no completions). The counts are non-negative, and the
// sum saturates at math.MaxInt, as the arrivals sums saturate, so huge
// counts cannot wrap it negative.
func sumCompleted(completed []int) int {
	total := 0
	for _, n := range completed {
		if n > math.MaxInt-total {
			return math.MaxInt
		}
		total += n
	}
	return total
}

// Quote serves the policy's price for the campaign's current state — the
// hot path: one mutex acquisition, one atomic table load, and one lookup
// into the campaign's reusable price buffer — zero heap allocations beyond
// the response envelope. Every table a live campaign can switch to was
// decoded before it went live, so a quote never waits on a solve.
func (m *Manager) Quote(id string) (*Quote, error) {
	return m.QuoteTraced(nil, id)
}

// QuoteTraced is Quote with request-tracing spans: the per-campaign
// mutex (acquisition + critical section) lands on StageLockHold. A nil
// trace records nothing and adds nothing to the hot path beyond two nil
// checks; a live trace adds two atomic operations and zero allocations
// (fenced by TestQuoteTracedAllocationBound). The only error is
// ErrNotFound.
func (m *Manager) QuoteTraced(tr *telemetry.Trace, id string) (*Quote, error) {
	c, err := m.get(id)
	if err != nil {
		return nil, err
	}
	lockStart := tr.Now()
	q := m.quoteCampaign(c)
	tr.ObserveSince(telemetry.StageLockHold, lockStart)
	return q, nil
}

func (m *Manager) quoteCampaign(c *campaign) *Quote {
	c.mu.Lock()
	defer c.mu.Unlock()
	prices := c.quoteLocked(c.active().load())
	c.lastTouched = m.opts.now()
	q := &Quote{
		ID:    c.id,
		Price: prices[0],
		// prices aliases the campaign's scratch buffer, which the next
		// quote overwrites; the response envelope owns its own copy.
		Prices:    append([]int(nil), prices...),
		Interval:  c.interval,
		Remaining: append([]int(nil), c.remaining...),
		Done:      c.doneLocked(),
	}
	if c.adaptive() {
		q.ActiveFactor = c.factors[c.activeIdx]
	}
	if sink := m.eventSink(); sink != nil {
		sink.CampaignQuoted(c.kind, c.adaptive(), q.Price)
	}
	return q
}

// State returns the campaign's current state without advancing anything.
func (m *Manager) State(id string) (*State, error) {
	c, err := m.get(id)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lastTouched = m.opts.now()
	return c.stateLocked(), nil
}

// Finish removes the campaign and returns its terminal accounting.
func (m *Manager) Finish(id string) (*Summary, error) {
	m.mu.Lock()
	c, ok := m.campaigns[id]
	if ok {
		delete(m.campaigns, id)
	}
	var logErr error
	if ok {
		_, logErr = m.walAppend(nil, WALRecordFinish, walRefEvent{ID: id})
	}
	m.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	// The campaign left the table; return its intern references. Shared
	// tables stay resident for their surviving holders.
	m.intern.releaseAll(c.bank)
	if logErr != nil {
		return nil, fmt.Errorf("campaign: logging finish: %w", logErr)
	}
	if sink := m.eventSink(); sink != nil {
		sink.CampaignFinished(c.kind, c.adaptive())
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return &Summary{
		ID:               c.id,
		Kind:             c.kind,
		Intervals:        c.interval,
		Remaining:        append([]int(nil), c.remaining...),
		Done:             c.doneLocked(),
		Quotes:           c.quotes,
		Replans:          c.replans,
		ObservedArrivals: c.observedTotal,
	}, nil
}

// Metrics is a point-in-time read of the manager's observability surface.
type Metrics struct {
	// Active is the number of live campaigns.
	Active int64
	// Replans and Expired are lifetime counters (finished campaigns keep
	// contributing to the totals).
	Replans int64
	Expired int64

	// QuoterInterned is the number of distinct policy tables in the intern
	// table; QuoterResidentBytes the decoded bytes currently resident
	// across them.
	QuoterInterned      int64
	QuoterResidentBytes int64
	// QuoterInternHits / QuoterInternMisses count intern-table lookups
	// that found / created an entry.
	QuoterInternHits   int64
	QuoterInternMisses int64
}

// Metrics returns the current counter and gauge values.
func (m *Manager) Metrics() Metrics {
	m.mu.RLock()
	active := int64(len(m.campaigns))
	m.mu.RUnlock()
	is := m.intern.stats()
	return Metrics{
		Active:              active,
		Replans:             m.replans.Load(),
		Expired:             m.expired.Load(),
		QuoterInterned:      is.interned,
		QuoterResidentBytes: is.residentBytes,
		QuoterInternHits:    is.hits,
		QuoterInternMisses:  is.misses,
	}
}
