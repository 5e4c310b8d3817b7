package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"

	"crowdpricing/internal/analytics"
	"crowdpricing/internal/campaign"
	"crowdpricing/internal/choice"
	"crowdpricing/internal/core"
	"crowdpricing/internal/engine"
	"crowdpricing/internal/kinds"
	"crowdpricing/internal/server"
	"crowdpricing/internal/stats"
	"crowdpricing/internal/telemetry"
	"crowdpricing/internal/wal"
)

// Probe sizes: the benchmark-owned replays that cost the layers the
// server composes privately.
const (
	probeProblems = 16   // deadline problems through a fresh engine and core
	hitRounds     = 8    // warm Engine.Solve passes over them
	probeSteps    = 6000 // campaign steps replayed against an owned Manager
	decodeReps    = 5    // campaign creates on a fresh Manager, warm engine
	extraReps     = 200  // paired decodes of a request body, bare and through tracedSpec
)

// inProcessOps bounds the ops replayed in-process against a server with
// tracing on and one with it off.
var inProcessOps = map[string]int{solveWarm: 300, solveCold: 60, campaignLive: 3000}

// runTraced is the traced run. It runs the untraced run of the same seed
// and op sequence in a fresh process, replays the sequence over loopback
// with spans around the handler (and, on the solve workloads, around the
// kinds spec inside Engine.Solve) and the client's codec re-run on each
// op's captured bodies, then costs the privately composed
// layers — engine, kinds, core, campaign, WAL, analytics, telemetry — by
// replaying the workload's inputs against benchmark-owned instances wired
// the way server.New wires them. Spans are written to the out directory.
func runTraced(ctx context.Context, cfg config, stderr io.Writer) (*result, map[string]any, error) {
	child, untraced, err := runChild(ctx, cfg, stderr)
	if err != nil {
		return nil, nil, err
	}
	rec := newRecorder()
	opts := server.Options{}
	if cfg.workload != campaignLive {
		opts.Registry = tracedRegistry(kinds.Default(), rec)
	}
	var th *tracedHandler
	wrap := func(h http.Handler) http.Handler {
		th = &tracedHandler{next: h, rec: rec}
		return th
	}
	// campaign-live's log syncs are timed on the service's own WAL, at
	// the workload's pace.
	walFS := tracedFS{FS: wal.DirFS{}, rec: rec, sync: "wal.fsync_dirfs"}
	in, lb, inst, err := setUp(ctx, cfg, opts, wrap, walFS)
	if err != nil {
		return nil, nil, err
	}
	capture := &captureTransport{rt: lb.tr}
	lb.client.HTTP = &http.Client{Transport: drainTransport{capture}}
	probe := &codecProbe{instance: inst, capture: capture, rec: rec}
	m0, bytes0, reqs0 := lb.srv.Metrics(), th.bytes.Load(), th.reqs.Load()
	var wal0, wal1 wal.Metrics
	if lb.wal != nil {
		wal0 = lb.wal.Metrics()
	}
	lo := rec.mark()
	res, traced, t, err := measure(ctx, in, lb, probe, rec)
	hi := rec.mark()
	m1, bytes1, reqs1 := lb.srv.Metrics(), th.bytes.Load(), th.reqs.Load()
	if lb.wal != nil {
		wal1 = lb.wal.Metrics()
	}
	if cerr := lb.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, nil, err
	}

	out := map[string]metric{}
	res.Attempted += child.Attempted
	res.Failed += child.Failed
	res.Correct = res.Correct && child.Correct

	// Engine, kinds and core: the workload's deadline problems through a
	// fresh engine, and the same problems through core directly.
	live := in
	if in.workload != campaignLive {
		if live, err = generate(campaignLive, cfg.seed, probeSteps); err != nil {
			return nil, nil, err
		}
	}
	probs := in.problems
	if len(probs) == 0 {
		probs = deadlineProblems(cfg.seed, probeProblems)
	}
	probs = probs[:min(len(probs), probeProblems)]
	kindsSolve, err := engineProbe(ctx, probs, rec, out)
	if err != nil {
		return nil, nil, fmt.Errorf("engine probe: %w", err)
	}
	if err := coreProbe(probs, kindsSolve, live.specs[kinds.KindMulti].(*kinds.MultiRequest), rec, out); err != nil {
		return nil, nil, fmt.Errorf("core probe: %w", err)
	}
	steps := min(live.ops, probeSteps)
	replans, err := campaignProbe(ctx, cfg, live, steps, rec, out)
	if err != nil {
		return nil, nil, fmt.Errorf("campaign probe: %w", err)
	}
	res.Attempted += steps
	if replans == 0 {
		// An input check: the scripts never moved an adaptive campaign off
		// its starting factor, so re-planning went unmeasured.
		res.Failed++
		res.Correct = false
	}
	n, err := inProcessProbe(ctx, cfg, in, rec, out)
	if err != nil {
		return nil, nil, fmt.Errorf("in-process probe: %w", err)
	}
	res.Attempted += 2 * n

	// On the solve workloads the server decodes each request through
	// tracedSpec, which decodes the body twice. The service decodes it
	// once, so the extra, measured on the workload's own request body, is
	// taken off the handler's time and allocation.
	var extraUs, extraKB float64
	if in.workload != campaignLive {
		body, err := json.Marshal(in.problems[0])
		if err != nil {
			return nil, nil, err
		}
		if extraUs, extraKB, err = decodeExtra(body, extraReps); err != nil {
			return nil, nil, fmt.Errorf("decode probe: %w", err)
		}
		a := out["server.alloc_kb_per_request"]
		out["server.alloc_kb_per_request"] = metric{a.Value - extraKB, a.Unit}
	}

	// The server layer and the composition check, from the loopback replay.
	v := rec.view()
	opDur, handler, spec, codec := make([]float64, in.ops), make([]float64, in.ops), make([]float64, in.ops), make([]float64, in.ops)
	for _, s := range v.spans[lo:hi] {
		if s.Op < 0 || s.Op >= in.ops {
			continue
		}
		d := float64(s.End-s.Start) / 1e3
		switch s.Name {
		case "op":
			opDur[s.Op] = d
		case "server.handler":
			handler[s.Op] += d
		case "kinds.validate", "kinds.fingerprint", "kinds.solve":
			spec[s.Op] += d
		case "client.encode", "client.decode":
			codec[s.Op] += d
		}
	}
	var client, handlers, specs, codecs []float64
	for i := range opDur {
		if t.opsFailed[i] {
			continue
		}
		client = append(client, opDur[i]-handler[i])
		handlers = append(handlers, handler[i])
		specs = append(specs, spec[i])
		codecs = append(codecs, codec[i])
	}
	untracedP50 := child.Metrics["op_p50_ms"].Value * 1e3
	floor := num(untraced["floor_rtt_p50_us"])
	rtts := float64(reqs1-reqs0) / float64(in.ops)
	handlerP50, codecP50 := median(handlers)-extraUs, median(codecs)
	// The composition check: the transport floor for each of the op's
	// round trips, the typed client's codec and the server's handler,
	// each measured on its own, against the untraced op_p50.
	unattributed := untracedP50 - floor*rtts - codecP50 - handlerP50
	out["server.handler_p50_us"] = metric{handlerP50, "us"}
	out["server.client_p50_us"] = metric{median(client), "us"}
	out["server.response_kb"] = metric{float64(bytes1-bytes0) / float64(reqs1-reqs0) / 1024, "KiB"}
	out["engine.hit_ratio"] = metric{hitRatio(m0, m1), "ratio"}
	out["runtime.gc_per_kop"] = metric{num(untraced["gc_per_kop"]), "count/kop"}
	out["harness.floor_rtt_p50_us"] = metric{floor, "us"}
	out["harness.spin_ms"] = metric{(num(untraced["spin_start_ms"]) + num(untraced["spin_end_ms"])) / 2, "ms"}
	out["harness.overhead_us"] = metric{num(untraced["overhead_us"]), "us"}
	out["harness.unattributed_us"] = metric{unattributed, "us"}
	out["harness.trace_overhead_us"] = metric{res.Metrics["op_p50_ms"].Value*1e3 - untracedP50, "us"}
	if in.workload == campaignLive {
		// The owned replay runs far faster than the service, so the log's
		// sync cadence is read from the service's own WAL instead.
		out["wal.fsync_dirfs_p50_us"] = metric{v.p50(lo, hi, "wal.fsync_dirfs", 1e3), "us"}
		out["wal.bytes_per_step"] = metric{float64(wal1.Bytes-wal0.Bytes) / float64(in.ops), "B/step"}
		out["wal.fsyncs_per_kstep"] = metric{float64(wal1.Fsyncs-wal0.Fsyncs) / float64(in.ops) * 1000, "count/kstep"}
	}
	// The handler's time split into its own part and the layers below it
	// on the op's path: the kinds spec calls it makes (solve workloads),
	// and the campaign calls, costed in the owned replay (campaign-live).
	layersBelow := median(specs)
	if in.workload == campaignLive {
		layersBelow = out["campaign.observe_p50_us"].Value + out["campaign.quote_p50_us"].Value
	}
	composition := map[string]float64{
		"untraced_op_p50":      untracedP50,
		"requests_per_op":      rtts,
		"floor":                floor * rtts,
		"client_codec":         codecP50,
		"server_handler":       handlerP50,
		"server_handler_self":  handlerP50 - layersBelow,
		"layers_below_handler": layersBelow,
		"unattributed":         unattributed,
		"traced_op_p50":        res.Metrics["op_p50_ms"].Value * 1e3,
		"traced_decode_extra":  extraUs,
	}

	for name, m := range out {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			// No samples reached this metric: report it as zero and the
			// run as incorrect rather than print an invalid number.
			out[name] = metric{0, m.Unit}
			res.Correct = false
		}
	}
	res.Metrics = out

	path := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err := rec.write(path); err != nil {
		return nil, nil, err
	}
	details := map[string]any{
		"untraced": untraced,
		"traced":   traced,
		"spans":    path,
		// The composition check, per op at p50, in µs: the transport
		// floor for each round trip, the typed client's codec and the
		// server's handler (split into its own time and the layers below
		// it), each measured on its own; what they leave of the untraced
		// op_p50 is harness.unattributed_us.
		"composition_us": composition,
		// The heap KiB per request the traced decode adds, taken off
		// server.alloc_kb_per_request.
		"traced_decode_extra_kb": extraKB,
	}
	return res, details, nil
}

// hitRatio is the server engine's cache-hit share over the timed phase.
// campaign-live's timed phase makes no engine call (creates find their
// problem interned), so there it covers the whole run, set-up included.
func hitRatio(m0, m1 server.MetricsSnapshot) float64 {
	hits, misses := m1.CacheHits-m0.CacheHits, m1.CacheMisses-m0.CacheMisses
	if hits+misses == 0 {
		hits, misses = m1.CacheHits, m1.CacheMisses
	}
	return float64(hits) / float64(hits+misses)
}

// median is the median of xs, or NaN when no sample reached it, which
// runTraced reports as 0 on an incorrect run.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return stats.Quantile(xs, 0.5)
}

// num reads a number from decoded JSON details.
func num(v any) float64 {
	if f, ok := v.(float64); ok {
		return f
	}
	return math.NaN()
}

// view is a snapshot of the spans with their self times.
type view struct {
	spans []span
	self  []int64
}

func (r *recorder) view() view {
	s := r.snapshot()
	return view{spans: s, self: selfTimes(s)}
}

// p50 returns the median duration of the spans named name in [lo, hi),
// divided by unit nanoseconds.
func (v view) p50(lo, hi int, name string, unit float64) float64 {
	var ds []float64
	for i := lo; i < hi; i++ {
		if s := v.spans[i]; s.Name == name {
			ds = append(ds, float64(s.End-s.Start)/unit)
		}
	}
	return median(ds)
}

// engineProbe solves probs through a fresh engine wired like the server's
// (zero engine.Options), each spec wrapped so Validate, Fingerprint and
// Solve are spans inside the Engine.Solve span: first cold, then
// hitRounds warm passes. It returns each problem's kinds.solve time in ms.
func engineProbe(ctx context.Context, probs []*kinds.DeadlineRequest, rec *recorder, out map[string]metric) ([]float64, error) {
	eng := engine.New(engine.Options{})
	defer eng.Close()
	lo := rec.mark()
	var misses, hits []int64
	artifactKB := 0.0
	for round := 0; round <= hitRounds; round++ {
		for j, p := range probs {
			q := *p
			spec := &tracedSpec{Spec: &q, rec: rec}
			var res *engine.Result
			var err error
			idx := rec.call("engine.solve", -1, func() { res, err = eng.Solve(ctx, spec) })
			if err != nil {
				return nil, fmt.Errorf("problem %d: %w", j, err)
			}
			if res.CacheHit != (round > 0) {
				return nil, fmt.Errorf("problem %d pass %d: cache hit %v", j, round, res.CacheHit)
			}
			if round == 0 {
				misses = append(misses, idx)
				artifactKB += float64(len(res.Value)) / 1024
			} else {
				hits = append(hits, idx)
			}
		}
	}
	hi := rec.mark()
	v := rec.view()
	var missSelf, hit []float64
	for _, idx := range misses {
		missSelf = append(missSelf, float64(v.self[idx])/1e3)
	}
	for _, idx := range hits {
		hit = append(hit, float64(v.spans[idx].End-v.spans[idx].Start)/1e3)
	}
	solveMs := make([]float64, len(probs))
	for i := lo; i < hi; i++ {
		if s := v.spans[i]; s.Name == "kinds.solve" {
			for j, idx := range misses {
				if int64(s.Parent) == idx {
					solveMs[j] = float64(s.End-s.Start) / 1e6
				}
			}
		}
	}
	out["engine.hit_p50_us"] = metric{stats.Quantile(hit, 0.5), "us"}
	out["engine.miss_self_p50_us"] = metric{stats.Quantile(missSelf, 0.5), "us"}
	out["kinds.fingerprint_p50_us"] = metric{v.p50(lo, hi, "kinds.fingerprint", 1e3), "us"}
	out["kinds.solve_p50_ms"] = metric{v.p50(lo, hi, "kinds.solve", 1e6), "ms"}
	out["kinds.artifact_kb"] = metric{artifactKB / float64(len(probs)), "KiB"}
	return solveMs, nil
}

// coreDeadline builds the core problem a kinds deadline request solves.
func coreDeadline(r *kinds.DeadlineRequest) *core.DeadlineProblem {
	return &core.DeadlineProblem{
		N: r.N, Horizon: r.HorizonHours, Intervals: r.Intervals, Lambdas: r.Lambdas,
		Accept:   choice.Logistic{S: r.Accept.S, B: r.Accept.B, M: r.Accept.M},
		MinPrice: r.MinPrice, MaxPrice: r.MaxPrice,
		Penalty: r.Penalty, Alpha: r.Alpha, TruncEps: r.TruncEps,
	}
}

// coreMulti builds the core problem a kinds multi request solves.
func coreMulti(r *kinds.MultiRequest) *core.MultiProblem {
	accepts := make([]choice.AcceptanceFn, len(r.Accepts))
	for i, a := range r.Accepts {
		accepts[i] = choice.Logistic{S: a.S, B: a.B, M: a.M}
	}
	return &core.MultiProblem{
		Counts: r.Counts, Intervals: r.Intervals, Lambdas: r.Lambdas, Accepts: accepts,
		MinPrice: r.MinPrice, MaxPrice: r.MaxPrice, Penalty: r.Penalty, TruncEps: r.TruncEps,
	}
}

// coreProbe solves the probe problems through core directly — the same
// problems kinds fingerprints, checked by fingerprint — and one paper-scale
// multi problem. The kinds marshal cost is each problem's kinds.solve time
// minus its core solve time.
func coreProbe(probs []*kinds.DeadlineRequest, kindsSolveMs []float64, multi *kinds.MultiRequest, rec *recorder, out map[string]metric) error {
	var solveMs, marshalMs []float64
	var allocs uint64
	for j, p := range probs {
		cp := coreDeadline(p)
		if err := sameProblem(cp.Fingerprint, p.Fingerprint, "deadline/efficient:"); err != nil {
			return fmt.Errorf("problem %d: %w", j, err)
		}
		var err error
		a0 := heapAllocs()
		idx := rec.call("core.deadline_solve", -1, func() { _, err = cp.SolveEfficient() })
		allocs += heapAllocs() - a0
		if err != nil {
			return fmt.Errorf("problem %d: %w", j, err)
		}
		ms := float64(rec.spanDuration(idx)) / 1e6
		solveMs = append(solveMs, ms)
		marshalMs = append(marshalMs, kindsSolveMs[j]-ms)
	}
	mp := coreMulti(multi)
	if err := sameProblem(mp.Fingerprint, multi.Fingerprint, "multi/joint:"); err != nil {
		return fmt.Errorf("multi: %w", err)
	}
	var err error
	idx := rec.call("core.multi_solve", -1, func() { _, err = mp.Solve() })
	if err != nil {
		return fmt.Errorf("multi: %w", err)
	}
	out["core.deadline_solve_p50_ms"] = metric{stats.Quantile(solveMs, 0.5), "ms"}
	out["core.deadline_alloc_kb"] = metric{float64(allocs) / float64(len(probs)) / 1024, "KiB"}
	out["core.multi_solve_ms"] = metric{float64(rec.spanDuration(idx)) / 1e6, "ms"}
	out["kinds.marshal_p50_ms"] = metric{stats.Quantile(marshalMs, 0.5), "ms"}
	return nil
}

// sameProblem checks that the benchmark's core problem fingerprints as the
// kinds request it was built from.
func sameProblem(coreFP, kindsFP func() (string, error), variant string) error {
	c, err := coreFP()
	if err != nil {
		return err
	}
	k, err := kindsFP()
	if err != nil {
		return err
	}
	if variant+c != k {
		return fmt.Errorf("core problem fingerprint %s, kinds request %s", variant+c, k)
	}
	return nil
}

// managerAPI drives a benchmark-owned campaign.Manager directly, each
// call a span; quotes and observes carry a live trace from a Tracer as
// the server's handlers do.
type managerAPI struct {
	mgr    *campaign.Manager
	eng    *engine.Engine
	tracer *telemetry.Tracer
	rec    *recorder
}

func (a *managerAPI) solve(ctx context.Context, kind string, spec engine.Spec) (*server.SolveResponse, error) {
	res, err := a.eng.Solve(ctx, spec)
	if err != nil {
		return nil, err
	}
	return &server.SolveResponse{Kind: kind, Fingerprint: res.Fingerprint, CacheHit: res.CacheHit, Result: res.Value}, nil
}

func (a *managerAPI) create(ctx context.Context, kind string, spec engine.Spec, adaptive *campaign.AdaptiveOptions) (*campaign.State, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	var st *campaign.State
	a.rec.call("campaign.create", a.rec.opSpan.Load(), func() { st, err = a.mgr.Create(ctx, kind, body, adaptive) })
	return st, err
}

func (a *managerAPI) observe(_ context.Context, id string, arrivals float64, completed []int) error {
	tr := a.tracer.Start("POST /v1/campaigns/{id}/observe")
	var err error
	a.rec.call("campaign.observe", a.rec.opSpan.Load(), func() { _, err = a.mgr.ObserveTraced(tr, id, arrivals, completed) })
	a.tracer.Finish(tr, http.StatusOK)
	return err
}

func (a *managerAPI) price(_ context.Context, id string) (*campaign.Quote, error) {
	tr := a.tracer.Start("GET /v1/campaigns/{id}/price")
	var q *campaign.Quote
	var err error
	a.rec.call("campaign.quote", a.rec.opSpan.Load(), func() { q, err = a.mgr.QuoteTraced(tr, id) })
	a.tracer.Finish(tr, http.StatusOK)
	return q, err
}

func (a *managerAPI) finish(_ context.Context, id string) error {
	var err error
	a.rec.call("campaign.finish", a.rec.opSpan.Load(), func() { _, err = a.mgr.Finish(id) })
	return err
}

// campaignProbe replays the first steps ops of campaign-live's sequence
// against a benchmark-owned Manager wired like server.New's (zero
// options, an analytics Aggregator as its sink, the WAL on DirFS at its
// defaults), with a timing Solver, sink and FS around it. It then times
// creates on fresh managers over the warm engine (the policy decode) and
// re-appends the run's own WAL records to fresh logs on DirFS and MemFS.
// It returns the replans counted over the replay.
func campaignProbe(ctx context.Context, cfg config, in *inputs, steps int, rec *recorder, out map[string]metric) (int64, error) {
	dir, err := scratchDir(cfg.out, "probe-wal")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	eng := engine.New(engine.Options{})
	defer eng.Close()
	mgr := campaign.NewManager(tracedSolver{eng: eng, rec: rec}, kinds.Default(), campaign.Options{})
	defer mgr.Close()
	mgr.AttachSink(tracedSink{agg: analytics.New(0), rec: rec})
	l, err := mgr.OpenWAL(dir, wal.Options{FS: tracedFS{FS: wal.DirFS{}, rec: rec, sync: "wal.fsync_dirfs"}})
	if err != nil {
		return 0, err
	}
	if _, err := mgr.ReplayWAL(ctx, l); err != nil {
		return 0, errors.Join(err, l.Close())
	}
	mgr.AttachWAL(l)
	api := &managerAPI{mgr: mgr, eng: eng, tracer: telemetry.NewTracer(0, 0), rec: rec}
	inst, err := newLive(ctx, in, api)
	if err != nil {
		return 0, errors.Join(err, l.Close())
	}
	lo := rec.mark()
	t := runTimed(ctx, inst, steps, rec)
	if t.firstErr != nil {
		return 0, errors.Join(t.firstErr, l.Close())
	}
	wm := l.Metrics()
	replans := mgr.Metrics().Replans
	if err := l.Close(); err != nil {
		return 0, err
	}
	hi := rec.mark()

	body, err := json.Marshal(in.specs[kinds.KindDeadline])
	if err != nil {
		return 0, err
	}
	for rep := 0; rep < decodeReps; rep++ {
		fresh := campaign.NewManager(eng, kinds.Default(), campaign.Options{})
		var st *campaign.State
		rec.call("campaign.decode", -1, func() { st, err = fresh.Create(ctx, kinds.KindDeadline, body, nil) })
		fresh.Close()
		if err != nil {
			return 0, err
		}
		if !st.SolveCacheHit {
			return 0, errors.New("decode probe: the engine did not hold the deadline artifact")
		}
	}
	var records []wal.Record
	err = wal.NewReader(wal.DirFS{}, dir).Replay(func(r wal.Record) error {
		r.Data = append([]byte(nil), r.Data...)
		records = append(records, r)
		return nil
	})
	if err != nil {
		return 0, err
	}
	appendDir, err := scratchDir(cfg.out, "probe-append")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(appendDir)
	if err := reappend(appendDir, wal.DirFS{}, records, rec, "wal.append"); err != nil {
		return 0, err
	}
	memFS := tracedFS{FS: wal.NewMemFS(), rec: rec, sync: "wal.fsync_memfs"}
	if err := reappend("mem", memFS, records, rec, "wal.append_memfs"); err != nil {
		return 0, err
	}

	v := rec.view()
	end := len(v.spans)
	var creates []float64
	for i := lo; i < hi; i++ {
		// Set-up creates solve their problems; the replacement creates
		// inside ops find them interned.
		if s := v.spans[i]; s.Name == "campaign.create" && s.Op >= 0 {
			creates = append(creates, float64(s.End-s.Start)/1e3)
		}
	}
	out["campaign.observe_p50_us"] = metric{v.p50(lo, hi, "campaign.observe", 1e3), "us"}
	out["campaign.quote_p50_us"] = metric{v.p50(lo, hi, "campaign.quote", 1e3), "us"}
	out["campaign.create_p50_us"] = metric{median(creates), "us"}
	out["campaign.finish_p50_us"] = metric{v.p50(lo, hi, "campaign.finish", 1e3), "us"}
	out["campaign.decode_ms"] = metric{v.p50(hi, end, "campaign.decode", 1e6), "ms"}
	out["campaign.replans_per_kstep"] = metric{float64(replans) / float64(steps) * 1000, "count/kstep"}
	out["analytics.event_p50_ns"] = metric{v.p50(lo, hi, "analytics.event", 1), "ns"}
	out["wal.append_p50_us"] = metric{v.p50(hi, end, "wal.append", 1e3), "us"}
	out["wal.fsync_dirfs_p50_us"] = metric{v.p50(0, hi, "wal.fsync_dirfs", 1e3), "us"}
	out["wal.fsync_memfs_p50_us"] = metric{v.p50(hi, end, "wal.fsync_memfs", 1e3), "us"}
	out["wal.bytes_per_step"] = metric{float64(wm.Bytes) / float64(steps), "B/step"}
	out["wal.fsyncs_per_kstep"] = metric{float64(wm.Fsyncs) / float64(steps) * 1000, "count/kstep"}
	return replans, nil
}

// reappend times Log.Append of records into a fresh log at dir on fsys.
func reappend(dir string, fsys wal.FS, records []wal.Record, rec *recorder, name string) error {
	l, err := wal.Open(dir, wal.Options{FS: fsys})
	if err != nil {
		return err
	}
	for _, r := range records {
		start := rec.now()
		if _, err := l.Append(r.Type, r.Data); err != nil {
			return errors.Join(err, l.Close())
		}
		rec.leaf(name, start)
	}
	return l.Close()
}

// probeHandler times each request inside a server's handler as a call
// span, so the kinds spans of a traced registry nest under it, and totals
// the heap bytes allocated while it runs.
type probeHandler struct {
	next   http.Handler
	rec    *recorder
	name   string
	allocs uint64
	reqs   int
}

func (h *probeHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	a0 := heapAllocs()
	h.rec.call(h.name, -1, func() { h.next.ServeHTTP(w, r) })
	h.allocs += heapAllocs() - a0
	h.reqs++
}

// inProcessProbe replays the start of the workload's op sequence
// in-process against two servers — zero options (tracing on) and
// TraceBuffer -1 (tracing off) — alternating op by op and which server
// goes first. telemetry.handler_delta_us is the median over ops of the
// difference in handler self time: on the solve workloads both servers
// run the traced kinds registry, so the spec's solve and marshal (which
// tracing does not touch) drop out of the comparison. From the default
// server it also reports the heap bytes a request allocates with no client
// decoding alongside. It returns the ops replayed per server.
func inProcessProbe(ctx context.Context, cfg config, in *inputs, rec *recorder, out map[string]metric) (int, error) {
	n := min(in.ops, inProcessOps[in.workload])
	type side struct {
		lb   *loopback
		h    *probeHandler
		inst instance
	}
	var sides []*side
	defer func() {
		for _, s := range sides {
			_ = s.lb.close() // scratch state; the probe's outcome is already decided
		}
	}()
	for _, o := range []struct {
		name string
		opts server.Options
	}{{"telemetry.handler_on", server.Options{}}, {"telemetry.handler_off", server.Options{TraceBuffer: -1}}} {
		if in.workload != campaignLive {
			o.opts.Registry = tracedRegistry(kinds.Default(), rec)
		}
		s := &side{lb: &loopback{srv: server.New(o.opts)}}
		sides = append(sides, s)
		if in.workload == campaignLive {
			dir, err := scratchDir(cfg.out, "probe-inproc")
			if err != nil {
				return 0, err
			}
			if err := s.lb.attachWAL(dir, nil); err != nil {
				return 0, err
			}
		}
		s.h = &probeHandler{next: s.lb.srv.Handler(), rec: rec, name: o.name}
		client := &server.Client{BaseURL: "http://in-process", HTTP: &http.Client{Transport: handlerTransport{s.h}}}
		inst, err := newInstance(ctx, in, clientAPI{client})
		if err != nil {
			return 0, err
		}
		s.inst = inst
		s.h.allocs, s.h.reqs = 0, 0
	}
	lo := rec.mark()
	for i := 0; i < n; i++ {
		rec.op.Store(int64(i))
		for k := range sides {
			s := sides[(i+k)%len(sides)]
			err := s.inst.do(ctx, i)
			if err == nil {
				err = s.inst.verify(i)
			}
			if err != nil {
				rec.op.Store(-1)
				return 0, err
			}
		}
	}
	rec.op.Store(-1)
	hi := rec.mark()
	v := rec.view()
	self := map[string][]float64{}
	for _, name := range []string{"telemetry.handler_on", "telemetry.handler_off"} {
		self[name] = make([]float64, n)
	}
	for i := lo; i < hi; i++ {
		if s := v.spans[i]; self[s.Name] != nil && s.Op >= 0 && s.Op < n {
			self[s.Name][s.Op] += float64(v.self[i]) / 1e3
		}
	}
	deltas := make([]float64, n)
	for i := range deltas {
		deltas[i] = self["telemetry.handler_on"][i] - self["telemetry.handler_off"][i]
	}
	out["telemetry.handler_delta_us"] = metric{stats.Quantile(deltas, 0.5), "us"}
	out["server.alloc_kb_per_request"] = metric{float64(sides[0].h.allocs) / float64(sides[0].h.reqs) / 1024, "KiB"}
	return n, nil
}
