package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"crowdpricing/internal/analytics"
	"crowdpricing/internal/engine"
	"crowdpricing/internal/kinds"
	"crowdpricing/internal/server"
	"crowdpricing/internal/stats"
	"crowdpricing/internal/wal"
)

// span is one timed call into a layer. Times are nanoseconds since the
// recorder's base; Parent is the index of the enclosing span (-1 = none)
// and Op the op being replayed when the span opened (-1 = none).
type span struct {
	Name   string
	Start  int64
	End    int64
	Parent int
	Op     int
}

// recorder keeps spans in memory for the traced run and writes them out at
// exit. Every span comes from the benchmark's own wrappers around public
// calls; the program under test is not modified.
//
// Parents follow the closed loop: at most one op is in flight, so the
// enclosing span of a call is whichever op span (opSpan) or synchronous
// call span (callSpan) is open when it starts. Calls that may run
// concurrently (spec solves on engine workers, bank pre-solves, fsyncs on
// the WAL committer) are recorded as leaves and never become a parent.
type recorder struct {
	base time.Time

	mu    sync.Mutex
	spans []span

	op       atomic.Int64
	opSpan   atomic.Int64
	callSpan atomic.Int64
}

func newRecorder() *recorder {
	r := &recorder{base: time.Now()}
	r.op.Store(-1)
	r.opSpan.Store(-1)
	r.callSpan.Store(-1)
	return r
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// open starts a span under parent and returns its index; close ends it.
func (r *recorder) open(name string, parent int64) int64 {
	start := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: start, End: -1, Parent: int(parent), Op: int(r.op.Load())})
	return int64(len(r.spans) - 1)
}

func (r *recorder) close(idx int64) {
	end := r.now()
	r.mu.Lock()
	r.spans[idx].End = end
	r.mu.Unlock()
}

// leaf records a span from start to now under the open call span.
func (r *recorder) leaf(name string, start int64) {
	r.add(name, r.callSpan.Load(), r.op.Load(), start)
}

// add records a span from start to now.
func (r *recorder) add(name string, parent, op, start int64) {
	end := r.now()
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Start: start, End: end, Parent: int(parent), Op: int(op)})
	r.mu.Unlock()
}

// call runs fn inside a synchronous span that encloses the leaves fn's
// callees record.
func (r *recorder) call(name string, parent int64, fn func()) int64 {
	idx := r.open(name, parent)
	r.callSpan.Store(idx)
	fn()
	r.close(idx)
	r.callSpan.CompareAndSwap(idx, -1)
	return idx
}

// spanDuration returns the duration of the span at idx.
func (r *recorder) spanDuration(idx int64) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans[idx].End - r.spans[idx].Start
}

// mark returns the current span count; spans[mark:] are later phases.
func (r *recorder) mark() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// snapshot returns the recorded spans.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write stores the spans as JSON lines at path.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's duration minus the part of its interval
// its children cover.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		kids := children[i]
		if len(kids) == 0 {
			continue
		}
		type iv struct{ a, b int64 }
		ivs := make([]iv, 0, len(kids))
		for _, k := range kids {
			a, b := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, curA, curB int64 = 0, -1, -1
		for _, v := range ivs {
			if v.a > curB {
				covered += curB - curA
				curA, curB = v.a, v.b
			} else if v.b > curB {
				curB = v.b
			}
		}
		covered += curB - curA
		self[i] -= covered
	}
	return self
}

// tracedHandler wraps the server's handler: one server.handler span per
// request under the open op span, plus the response bytes written.
type tracedHandler struct {
	next  http.Handler
	rec   *recorder
	bytes atomic.Int64
	reqs  atomic.Int64
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	cw := &countingWriter{ResponseWriter: w}
	h.rec.call("server.handler", h.rec.opSpan.Load(), func() { h.next.ServeHTTP(cw, r) })
	h.bytes.Add(cw.n)
	h.reqs.Add(1)
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += int64(n)
	return n, err
}

// tracedSpec wraps a kinds spec so Engine.Solve's calls into it become
// kinds.validate, kinds.fingerprint and kinds.solve spans. It decodes the
// wire body into the wrapped spec exactly as the server's strict decoder
// would.
type tracedSpec struct {
	engine.Spec
	rec *recorder
}

func (s *tracedSpec) UnmarshalJSON(b []byte) error {
	return strictDecode(b, s.Spec)
}

// strictDecode decodes body into v the way the server's handlers do.
func strictDecode(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// decodeExtra is what tracedSpec adds to the server's decode of a request
// body: the outer decoder skips over the body, and UnmarshalJSON decodes
// it again with a decoder of its own. The service pays neither. It decodes
// body into a bare deadline spec and into one wrapped in tracedSpec, reps
// times each, and returns the median paired difference in µs (alternating
// which goes first) and the extra heap KiB per decode (from a batch of
// each, read with runtime.ReadMemStats, which counts every allocation).
func decodeExtra(body []byte, reps int) (us, kb float64, err error) {
	decodes := []func() error{
		func() error { return strictDecode(body, &kinds.DeadlineRequest{}) },
		func() error { return strictDecode(body, &tracedSpec{Spec: &kinds.DeadlineRequest{}}) },
	}
	var ns [2]time.Duration
	diffs := make([]float64, reps)
	for i := range diffs {
		for k := range decodes {
			j := (i + k) % 2
			start := time.Now()
			if err := decodes[j](); err != nil {
				return 0, 0, err
			}
			ns[j] = time.Since(start)
		}
		diffs[i] = float64(ns[1]-ns[0]) / 1e3
	}
	var ms runtime.MemStats
	var allocs [2]float64
	for j, decode := range decodes {
		runtime.ReadMemStats(&ms)
		a0 := ms.TotalAlloc
		for range reps {
			if err := decode(); err != nil {
				return 0, 0, err
			}
		}
		runtime.ReadMemStats(&ms)
		allocs[j] = float64(ms.TotalAlloc - a0)
	}
	return stats.Quantile(diffs, 0.5), (allocs[1] - allocs[0]) / float64(reps) / 1024, nil
}

func (s *tracedSpec) Validate() error {
	defer s.rec.leaf("kinds.validate", s.rec.now())
	return s.Spec.Validate()
}

func (s *tracedSpec) Fingerprint() (string, error) {
	defer s.rec.leaf("kinds.fingerprint", s.rec.now())
	return s.Spec.Fingerprint()
}

func (s *tracedSpec) Solve(ctx context.Context) ([]byte, error) {
	defer s.rec.leaf("kinds.solve", s.rec.now())
	return s.Spec.Solve(ctx)
}

// SetSolverParallelism forwards the engine's hint to specs that take it.
func (s *tracedSpec) SetSolverParallelism(workers int) {
	if t, ok := s.Spec.(engine.Tunable); ok {
		t.SetSolverParallelism(workers)
	}
}

// tracedRegistry is the default kind registry with the deadline kind's
// specs wrapped in tracedSpec.
func tracedRegistry(base *engine.Registry, rec *recorder) *engine.Registry {
	reg := engine.NewRegistry()
	for _, kind := range base.Kinds() {
		def, _ := base.Lookup(kind)
		if kind == "deadline" {
			inner := def.New
			def.New = func() engine.Spec { return &tracedSpec{Spec: inner(), rec: rec} }
		}
		reg.Register(def)
	}
	return reg
}

// tracedSolver is the campaign.Solver handed to a benchmark-owned
// campaign.Manager: it times each engine call as a leaf under the open
// campaign call. SolveBatch is forwarded so bank pre-solves keep the
// engine's background lane.
type tracedSolver struct {
	eng *engine.Engine
	rec *recorder
}

func (s tracedSolver) Solve(ctx context.Context, spec engine.Spec) (*engine.Result, error) {
	defer s.rec.leaf("campaign.engine_solve", s.rec.now())
	return s.eng.Solve(ctx, spec)
}

func (s tracedSolver) SolveBatch(ctx context.Context, spec engine.Spec) (*engine.Result, error) {
	defer s.rec.leaf("campaign.engine_solve_batch", s.rec.now())
	return s.eng.SolveBatch(ctx, spec)
}

// tracedFS wraps a wal.FS so every File.Sync of the log's segments is a
// span named sync (wal.fsync_dirfs or wal.fsync_memfs). Syncs run on the
// WAL committer, off the request path, so they are recorded without a
// parent.
type tracedFS struct {
	wal.FS
	rec  *recorder
	sync string
}

func (f tracedFS) Create(name string) (wal.File, error) {
	file, err := f.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: file, fs: f}, nil
}

type tracedFile struct {
	wal.File
	fs tracedFS
}

func (f *tracedFile) Sync() error {
	defer f.fs.rec.add(f.fs.sync, -1, -1, f.fs.rec.now())
	return f.File.Sync()
}

// tracedSink forwards the campaign event stream to an analytics
// Aggregator, timing each call as an analytics.event leaf.
type tracedSink struct {
	agg *analytics.Aggregator
	rec *recorder
}

func (s tracedSink) CampaignCreated(kind string, adaptive bool) {
	defer s.rec.leaf("analytics.event", s.rec.now())
	s.agg.CampaignCreated(kind, adaptive)
}

func (s tracedSink) CampaignObserved(kind string, adaptive bool, arrivals float64, completed int, interval int) {
	defer s.rec.leaf("analytics.event", s.rec.now())
	s.agg.CampaignObserved(kind, adaptive, arrivals, completed, interval)
}

func (s tracedSink) CampaignQuoted(kind string, adaptive bool, price int) {
	defer s.rec.leaf("analytics.event", s.rec.now())
	s.agg.CampaignQuoted(kind, adaptive, price)
}

func (s tracedSink) CampaignFinished(kind string, adaptive bool) {
	defer s.rec.leaf("analytics.event", s.rec.now())
	s.agg.CampaignFinished(kind, adaptive)
}

func (s tracedSink) CampaignExpired(kind string, adaptive bool) {
	defer s.rec.leaf("analytics.event", s.rec.now())
	s.agg.CampaignExpired(kind, adaptive)
}

// roundTrip is one request of an op as the client sent and received it.
type roundTrip struct {
	method, path string
	req, resp    []byte
}

// captureTransport records the request and response bodies of every round
// trip since the last reset.
type captureTransport struct {
	rt    http.RoundTripper
	trips []*roundTrip
}

func (t *captureTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	trip := &roundTrip{method: req.Method, path: req.URL.Path}
	if req.GetBody != nil {
		body, err := req.GetBody()
		if err != nil {
			return nil, err
		}
		if trip.req, err = io.ReadAll(body); err != nil {
			return nil, err
		}
	}
	res, err := t.rt.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	t.trips = append(t.trips, trip)
	res.Body = teeBody{ReadCloser: res.Body, trip: trip}
	return res, nil
}

type teeBody struct {
	io.ReadCloser
	trip *roundTrip
}

func (b teeBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.trip.resp = append(b.trip.resp, p[:n]...)
	return n, err
}

// codecProbe wraps the traced loopback replay's instance. After each op
// it runs server.Client's codec again on the op's captured bodies: the
// request's json.Marshal and the response's json.Decoder decode, timed as
// client.encode and client.decode spans outside the op span. This costs
// the client's codec apart from the transport it interleaves with.
type codecProbe struct {
	instance
	capture *captureTransport
	rec     *recorder
}

func (p *codecProbe) do(ctx context.Context, i int) error {
	p.capture.trips = p.capture.trips[:0]
	return p.instance.do(ctx, i)
}

func (p *codecProbe) verify(i int) error {
	for _, trip := range p.capture.trips {
		if err := p.timeCodec(trip, int64(i)); err != nil {
			return fmt.Errorf("op %d: re-running the client codec on %s %s: %w", i, trip.method, trip.path, err)
		}
	}
	return p.instance.verify(i)
}

func (p *codecProbe) timeCodec(trip *roundTrip, op int64) error {
	req, resp := wireTypes(trip.method, trip.path)
	if resp == nil {
		return fmt.Errorf("no wire type for the route")
	}
	if req != nil {
		if err := json.Unmarshal(trip.req, req); err != nil {
			return err
		}
		start := p.rec.now()
		_, err := json.Marshal(req)
		p.rec.add("client.encode", -1, op, start)
		if err != nil {
			return err
		}
	}
	start := p.rec.now()
	err := json.NewDecoder(bytes.NewReader(trip.resp)).Decode(resp)
	p.rec.add("client.decode", -1, op, start)
	return err
}

// wireTypes returns fresh values of the request body (nil when the route
// takes none) and the response body server.Client uses on a route the
// workloads call.
func wireTypes(method, path string) (req, resp any) {
	switch {
	case path == "/v1/solve/"+kinds.KindDeadline:
		return new(kinds.DeadlineRequest), new(server.SolveResponse)
	case path == "/v1/campaigns":
		return new(server.CreateCampaignRequest), new(server.CampaignState)
	case strings.HasSuffix(path, "/observe"):
		return new(server.CampaignObserveRequest), new(server.CampaignState)
	case strings.HasSuffix(path, "/price"):
		return nil, new(server.CampaignQuote)
	case method == http.MethodDelete:
		return nil, new(server.CampaignSummary)
	}
	return nil, nil
}
