package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"

	"crowdpricing/internal/campaign"
	"crowdpricing/internal/core"
	"crowdpricing/internal/engine"
	"crowdpricing/internal/kinds"
	"crowdpricing/internal/server"
)

// instance is one workload's live state against one server. do is the
// timed part of op i; verify checks its outcome afterwards, untimed; check
// runs once after the timed phase.
type instance interface {
	do(ctx context.Context, i int) error
	verify(i int) error
	check(ctx context.Context) error
}

// newInstance sets a workload up against api: the pre-solves of
// solve-warm, nothing for solve-cold, the standing campaign population of
// campaign-live.
func newInstance(ctx context.Context, in *inputs, api campaignAPI) (instance, error) {
	switch in.workload {
	case solveWarm:
		return newWarm(ctx, in, api)
	case solveCold:
		return &coldInstance{in: in, api: api, kept: make(map[int][]byte)}, nil
	default:
		return newLive(ctx, in, api)
	}
}

// campaignAPI is the slice of the service a workload drives. The loopback
// and in-process runs implement it with server.Client; the layer replay
// implements it with direct calls into a benchmark-owned engine and
// campaign.Manager.
type campaignAPI interface {
	solve(ctx context.Context, kind string, spec engine.Spec) (*server.SolveResponse, error)
	create(ctx context.Context, kind string, spec engine.Spec, adaptive *campaign.AdaptiveOptions) (*campaign.State, error)
	observe(ctx context.Context, id string, arrivals float64, completed []int) error
	price(ctx context.Context, id string) (*campaign.Quote, error)
	finish(ctx context.Context, id string) error
}

// clientAPI drives the service over HTTP through its typed client.
type clientAPI struct{ c *server.Client }

func (a clientAPI) solve(ctx context.Context, kind string, spec engine.Spec) (*server.SolveResponse, error) {
	return a.c.Solve(ctx, kind, spec)
}

func (a clientAPI) create(ctx context.Context, kind string, spec engine.Spec, adaptive *campaign.AdaptiveOptions) (*campaign.State, error) {
	return a.c.CreateCampaign(ctx, kind, spec, adaptive)
}

func (a clientAPI) observe(ctx context.Context, id string, arrivals float64, completed []int) error {
	_, err := a.c.ObserveCampaign(ctx, id, arrivals, completed)
	return err
}

func (a clientAPI) price(ctx context.Context, id string) (*campaign.Quote, error) {
	return a.c.CampaignPrice(ctx, id)
}

func (a clientAPI) finish(ctx context.Context, id string) error {
	_, err := a.c.FinishCampaign(ctx, id)
	return err
}

// warmInstance is solve-warm: every op requests one of the 32 pre-solved
// problems and must be a cache hit whose fingerprint and artifact SHA-256
// equal those recorded at setup.
type warmInstance struct {
	in   *inputs
	api  campaignAPI
	fp   []string
	sum  [][sha256.Size]byte
	last *server.SolveResponse
}

func newWarm(ctx context.Context, in *inputs, api campaignAPI) (*warmInstance, error) {
	w := &warmInstance{in: in, api: api}
	for j, p := range in.problems {
		resp, err := api.solve(ctx, kinds.KindDeadline, p)
		if err != nil {
			return nil, fmt.Errorf("pre-solving problem %d: %w", j, err)
		}
		w.fp = append(w.fp, resp.Fingerprint)
		w.sum = append(w.sum, sha256.Sum256(resp.Result))
	}
	return w, nil
}

func (w *warmInstance) do(ctx context.Context, i int) (err error) {
	w.last, err = w.api.solve(ctx, kinds.KindDeadline, w.in.problems[w.in.order[i]])
	return err
}

func (w *warmInstance) verify(i int) error {
	j := w.in.order[i]
	switch {
	case !w.last.CacheHit:
		return fmt.Errorf("op %d: problem %d missed the cache", i, j)
	case w.last.Fingerprint != w.fp[j]:
		return fmt.Errorf("op %d: fingerprint %s, setup recorded %s", i, w.last.Fingerprint, w.fp[j])
	case sha256.Sum256(w.last.Result) != w.sum[j]:
		return fmt.Errorf("op %d: artifact of problem %d differs from the one recorded at setup", i, j)
	}
	return nil
}

func (w *warmInstance) check(context.Context) error { return nil }

// coldInstance is solve-cold: op i requests the distinct problem i, which
// must miss the cache; after timing, the seeded sample of responses is
// re-solved through the kinds spec and compared byte for byte.
type coldInstance struct {
	in   *inputs
	api  campaignAPI
	last *server.SolveResponse
	kept map[int][]byte
}

func (c *coldInstance) do(ctx context.Context, i int) (err error) {
	c.last, err = c.api.solve(ctx, kinds.KindDeadline, c.in.problems[i])
	return err
}

func (c *coldInstance) verify(i int) error {
	if c.last.CacheHit {
		return fmt.Errorf("op %d: distinct problem hit the cache", i)
	}
	fp, err := c.in.problems[i].Fingerprint()
	if err != nil {
		return err
	}
	if c.last.Fingerprint != fp {
		return fmt.Errorf("op %d: fingerprint %s, want %s", i, c.last.Fingerprint, fp)
	}
	if slices.Contains(c.in.sample, i) {
		c.kept[i] = c.last.Result
	}
	return nil
}

// check re-solves the sampled problems; it returns a sampleError naming
// the ops whose artifacts differ.
func (c *coldInstance) check(ctx context.Context) error {
	var bad []int
	for _, i := range c.in.sample {
		if i >= len(c.in.problems) {
			continue
		}
		p := *c.in.problems[i]
		want, err := p.Solve(ctx)
		if err != nil {
			return err
		}
		if got, ok := c.kept[i]; !ok || !bytes.Equal(got, want) {
			bad = append(bad, i)
		}
	}
	if len(bad) > 0 {
		return &sampleError{ops: bad}
	}
	return nil
}

// sampleError marks ops that failed a post-timing check.
type sampleError struct{ ops []int }

func (e *sampleError) Error() string {
	return fmt.Sprintf("ops %v: re-solved artifact differs from the served one", e.ops)
}

// session is one live campaign of campaign-live and the state the
// benchmark tracks for it independently of the service.
type session struct {
	slot      slot
	id        string
	script    script
	step      int
	remaining []int
	interval  int
}

// liveInstance is campaign-live: op i steps the session in slot order[i]
// — observe, then price — after replacing it (finish + create) once its
// script is used up. Static quotes must equal the decoded policy's price
// for the tracked state; adaptive quotes must follow a factor of the grid.
type liveInstance struct {
	in       *inputs
	api      campaignAPI
	sessions []*session
	next     map[string]int

	deadline *core.DeadlinePolicy
	tradeoff *kinds.TradeoffSchedule
	multi    *kinds.MultiSchedule

	cur   *session
	quote *campaign.Quote
}

func newLive(ctx context.Context, in *inputs, api campaignAPI) (*liveInstance, error) {
	l := &liveInstance{in: in, api: api, next: make(map[string]int)}
	for _, s := range liveSlots {
		sess, err := l.start(ctx, s)
		if err != nil {
			return nil, fmt.Errorf("creating the %s population: %w", s.kind, err)
		}
		l.sessions = append(l.sessions, sess)
	}
	// The artifacts the campaigns quote from, decoded independently of
	// the campaign runtime: these solves are engine cache hits.
	for _, a := range []struct {
		kind string
		dst  any
	}{{kinds.KindDeadline, &l.deadline}, {kinds.KindTradeoff, &l.tradeoff}, {kinds.KindMulti, &l.multi}} {
		resp, err := api.solve(ctx, a.kind, in.specs[a.kind])
		if err != nil {
			return nil, fmt.Errorf("fetching the %s artifact: %w", a.kind, err)
		}
		if err := json.Unmarshal(resp.Result, a.dst); err != nil {
			return nil, fmt.Errorf("decoding the %s artifact: %w", a.kind, err)
		}
	}
	return l, nil
}

// start creates a campaign for s running the kind's next script.
func (l *liveInstance) start(ctx context.Context, s slot) (*session, error) {
	var adaptive *campaign.AdaptiveOptions
	if s.adaptive {
		adaptive = &campaign.AdaptiveOptions{}
	}
	st, err := l.api.create(ctx, s.kind, l.in.specs[s.kind], adaptive)
	if err != nil {
		return nil, err
	}
	scripts := l.in.scripts[s.kind]
	n := l.next[s.kind]
	l.next[s.kind] = n + 1
	return &session{slot: s, id: st.ID, script: scripts[n%len(scripts)], remaining: st.Remaining}, nil
}

func (l *liveInstance) do(ctx context.Context, i int) error {
	k := l.in.order[i]
	s := l.sessions[k]
	if s.step == sessionSteps {
		if err := l.api.finish(ctx, s.id); err != nil {
			return fmt.Errorf("op %d: finishing %s: %w", i, s.id, err)
		}
		next, err := l.start(ctx, s.slot)
		if err != nil {
			return fmt.Errorf("op %d: replacing %s: %w", i, s.id, err)
		}
		s = next
		l.sessions[k] = s
	}
	completed := make([]int, len(s.remaining))
	for t, n := range s.remaining {
		completed[t] = int(float64(n) * s.script.Shares[s.step])
		s.remaining[t] -= completed[t]
	}
	if err := l.api.observe(ctx, s.id, s.script.Arrivals[s.step], completed); err != nil {
		return fmt.Errorf("op %d: observe %s: %w", i, s.id, err)
	}
	s.step++
	s.interval++
	q, err := l.api.price(ctx, s.id)
	if err != nil {
		return fmt.Errorf("op %d: price %s: %w", i, s.id, err)
	}
	l.cur, l.quote = s, q
	return nil
}

func (l *liveInstance) verify(i int) error {
	s, q := l.cur, l.quote
	if q.Interval != s.interval || !slices.Equal(q.Remaining, s.remaining) {
		return fmt.Errorf("op %d: quote state (t=%d, remaining %v), tracked (t=%d, remaining %v)",
			i, q.Interval, q.Remaining, s.interval, s.remaining)
	}
	if s.slot.adaptive {
		if !onGrid(q.ActiveFactor) {
			return fmt.Errorf("op %d: adaptive quote follows factor %v, not on the grid", i, q.ActiveFactor)
		}
		return nil
	}
	want := l.expected(s)
	if !slices.Equal(q.Prices, want) {
		return fmt.Errorf("op %d: %s quote %v, policy says %v at t=%d remaining %v",
			i, s.slot.kind, q.Prices, want, s.interval, s.remaining)
	}
	return nil
}

func (l *liveInstance) check(context.Context) error { return nil }

// expected is the decoded policy's price vector for a static session's
// tracked state, with the same clamps as core's PriceAt accessors.
func (l *liveInstance) expected(s *session) []int {
	switch s.slot.kind {
	case kinds.KindDeadline:
		return []int{l.deadline.PriceAt(s.remaining[0], s.interval)}
	case kinds.KindTradeoff:
		return []int{l.tradeoff.Price[clamp(s.remaining[0], 0, len(l.tradeoff.Price)-1)]}
	default:
		m := l.multi
		idx, stride := 0, 1
		for t := len(m.Counts) - 1; t >= 0; t-- {
			idx += clamp(s.remaining[t], 0, m.Counts[t]) * stride
			stride *= m.Counts[t] + 1
		}
		return m.Prices[clamp(s.interval, 0, m.Intervals-1)][idx]
	}
}

func clamp(v, lo, hi int) int { return max(lo, min(v, hi)) }

// onGrid reports whether f is a factor of the default adaptive grid,
// 0.5, 0.6, …, 1.5.
func onGrid(f float64) bool {
	for k := 5; k <= 15; k++ {
		if math.Abs(f-float64(k)/10) < 1e-9 {
			return true
		}
	}
	return false
}

// failedOps maps a post-timing check error onto the ops it condemns; any
// other error condemns none (the caller reports it separately).
func failedOps(err error) []int {
	var se *sampleError
	if errors.As(err, &se) {
		return se.ops
	}
	return nil
}
