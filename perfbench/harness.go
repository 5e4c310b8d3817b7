package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"crowdpricing/internal/server"
	"crowdpricing/internal/stats"
	"crowdpricing/internal/wal"
)

// loopback is one service instance as a workload run sees it: server.New
// behind a loopback TCP listener, driven by server.Client over a single
// keep-alive connection, with the campaign WAL on DirFS in a fresh
// directory for campaign-live.
type loopback struct {
	srv    *server.Server
	hs     *http.Server
	ln     *countingListener
	served chan struct{}
	tr     *http.Transport
	client *server.Client
	wal    *wal.Log
	walDir string
}

// startLoopback serves opts' server on 127.0.0.1; wrap, when non-nil,
// wraps its handler. walDir non-empty opens and attaches the campaign WAL
// there, on walFS (nil = DirFS), in cmd/priced's boot order (open, replay,
// attach).
func startLoopback(opts server.Options, wrap func(http.Handler) http.Handler, walDir string, walFS wal.FS) (*loopback, error) {
	lb := &loopback{srv: server.New(opts), served: make(chan struct{})}
	if walDir != "" {
		if err := lb.attachWAL(walDir, walFS); err != nil {
			lb.srv.Close()
			return nil, err
		}
	}
	var h http.Handler = lb.srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	if err := lb.serve(h); err != nil {
		lb.close()
		return nil, err
	}
	return lb, nil
}

func (lb *loopback) attachWAL(dir string, fsys wal.FS) error {
	l, err := lb.srv.Campaigns().OpenWAL(dir, wal.Options{FS: fsys})
	if err != nil {
		return fmt.Errorf("opening the campaign WAL: %w", err)
	}
	lb.wal, lb.walDir = l, dir
	if _, err := lb.srv.Campaigns().ReplayWAL(context.Background(), l); err != nil {
		return fmt.Errorf("replaying the campaign WAL: %w", err)
	}
	lb.srv.AttachWAL(l)
	return nil
}

// serve starts the HTTP server on a fresh loopback listener and points a
// client at it.
func (lb *loopback) serve(h http.Handler) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	lb.ln = &countingListener{Listener: ln}
	lb.hs = &http.Server{Handler: h}
	go func() {
		defer close(lb.served)
		_ = lb.hs.Serve(lb.ln) // returns http.ErrServerClosed on close
	}()
	lb.tr = &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	lb.client = &server.Client{
		BaseURL: "http://" + ln.Addr().String(),
		HTTP:    &http.Client{Transport: drainTransport{lb.tr}},
	}
	return nil
}

// close stops the HTTP server and waits for it, then closes the service
// and its WAL and removes the WAL directory.
func (lb *loopback) close() error {
	var errs []error
	if lb.hs != nil {
		errs = append(errs, lb.hs.Close())
		<-lb.served
		lb.tr.CloseIdleConnections()
	}
	lb.srv.Close()
	if lb.wal != nil {
		errs = append(errs, lb.wal.Close())
	}
	if lb.walDir != "" {
		errs = append(errs, os.RemoveAll(lb.walDir))
	}
	return errors.Join(errs...)
}

// countingListener counts accepted connections, so a run can show that the
// client kept one connection alive.
type countingListener struct {
	net.Listener
	accepted atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
	}
	return c, err
}

// drainTransport reads each response body to its end before closing it.
// The client's JSON decoder stops at the end of the value, before the
// encoder's trailing newline and the final chunk of a chunked body; a body
// closed unread would cost the keep-alive connection.
type drainTransport struct{ rt http.RoundTripper }

func (t drainTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	res, err := t.rt.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	res.Body = drainBody{res.Body}
	return res, nil
}

type drainBody struct{ io.ReadCloser }

func (b drainBody) Close() error {
	_, _ = io.Copy(io.Discard, b.ReadCloser) // the body's outcome is already decoded
	return b.ReadCloser.Close()
}

// handlerTransport serves requests by calling a handler in-process, for
// the layer probes that compare two servers without a socket between.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// measureFloor returns the p50 round trip, in microseconds, of the
// workload's HTTP client through server.Client against a handler that
// answers "{}" to anything: the transport floor under every op.
func measureFloor(ctx context.Context, hc *http.Client, trips int) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	hs := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = io.WriteString(w, "{}\n")
	})}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	defer func() {
		_ = hs.Close()
		<-served
	}()
	client := &server.Client{BaseURL: "http://" + ln.Addr().String(), HTTP: hc}
	lat := make([]float64, 0, trips)
	for i := 0; i < trips; i++ {
		start := time.Now()
		if _, err := client.CampaignState(ctx, "floor"); err != nil {
			return 0, fmt.Errorf("floor round trip: %w", err)
		}
		lat = append(lat, float64(time.Since(start).Nanoseconds())/1e3)
	}
	return stats.Quantile(lat, 0.5), nil
}

// timed is the outcome of one timed phase: each op's start and end (from
// the phase's start; the end includes the op's verification) and latency,
// and the machine's CPU tick counters at every block boundary.
type timed struct {
	bounds     []int
	ticks      []cpuTicks
	start      []time.Duration
	end        []time.Duration
	dur        []time.Duration
	opsFailed  []bool
	firstErr   error
	wall       time.Duration
	allocBytes uint64
	gcCycles   uint64
}

// blockOps is the least number of ops in a block; maxBlocks caps how many
// blocks a timed phase is cut into.
const (
	blockOps  = 100
	maxBlocks = 20
)

// blockBounds cuts n ops into equal contiguous blocks: block b is
// [bounds[b], bounds[b+1]).
func blockBounds(n int) []int {
	blocks := max(1, min(maxBlocks, n/blockOps))
	bounds := make([]int, blocks+1)
	for b := range bounds {
		bounds[b] = b * n / blocks
	}
	return bounds
}

// runTimed replays ops 0..n-1 in a closed loop: each op starts when the
// previous one has been answered and verified. With rec non-nil every op
// is an "op" span enclosing the spans its calls record.
func runTimed(ctx context.Context, inst instance, n int, rec *recorder) *timed {
	t := &timed{
		bounds: blockBounds(n),
		start:  make([]time.Duration, n), end: make([]time.Duration, n), dur: make([]time.Duration, n),
		opsFailed: make([]bool, n),
	}
	allocs0, gc0 := heapAllocs(), gcCycles()
	begin := time.Now()
	for i := 0; i < n; i++ {
		if i == t.bounds[len(t.ticks)] {
			t.ticks = append(t.ticks, readCPUTicks())
		}
		var err error
		start := time.Now()
		t.start[i] = start.Sub(begin)
		if rec != nil {
			rec.op.Store(int64(i))
			idx := rec.open("op", -1)
			rec.opSpan.Store(idx)
			err = inst.do(ctx, i)
			rec.close(idx)
			rec.opSpan.Store(-1)
		} else {
			err = inst.do(ctx, i)
		}
		t.dur[i] = time.Since(start)
		if err == nil {
			err = inst.verify(i)
		}
		if err != nil {
			t.fail(i, err)
		}
		t.end[i] = time.Since(begin)
	}
	t.ticks = append(t.ticks, readCPUTicks())
	t.wall = time.Since(begin)
	t.allocBytes, t.gcCycles = heapAllocs()-allocs0, gcCycles()-gc0
	if rec != nil {
		rec.op.Store(-1)
	}
	return t
}

func (t *timed) fail(i int, err error) {
	if i >= 0 && i < len(t.opsFailed) {
		t.opsFailed[i] = true
	}
	if t.firstErr == nil {
		t.firstErr = err
	}
}

func (t *timed) failed() int {
	n := 0
	for _, f := range t.opsFailed {
		if f {
			n++
		}
	}
	return n
}

// latencies returns the latencies in ms of the successful ops in [lo, hi).
func (t *timed) latencies(lo, hi int) []float64 {
	var out []float64
	for i := lo; i < hi; i++ {
		if !t.opsFailed[i] {
			out = append(out, float64(t.dur[i].Nanoseconds())/1e6)
		}
	}
	return out
}

// overhead is the closed loop's own time per op, in µs: the time from an
// op's start to the end of its verification not spent inside the op.
func (t *timed) overhead() float64 {
	var own time.Duration
	for i := range t.dur {
		own += t.end[i] - t.start[i] - t.dur[i]
	}
	return float64(own.Nanoseconds()) / 1e3 / float64(len(t.dur))
}

// block is one block's figures: its p50 and p90 latency, its completed
// ops per second from its first op's start to its last op's end, and the
// share of the machine's CPU time the hypervisor gave to other guests
// meanwhile (the steal column of /proc/stat).
type block struct {
	P50   float64 `json:"p50_ms"`
	P90   float64 `json:"p90_ms"`
	Rate  float64 `json:"ops_s"`
	Steal float64 `json:"steal_pct"`
}

// blocks returns the figures of every block with a successful op. Every
// block holds at least blockOps ops, so its p90 has ten samples beyond it.
func (t *timed) blocks() []block {
	var out []block
	for b := 0; b+1 < len(t.bounds); b++ {
		lo, hi := t.bounds[b], t.bounds[b+1]
		lat := t.latencies(lo, hi)
		if len(lat) == 0 {
			continue
		}
		out = append(out, block{
			P50:   stats.Quantile(lat, 0.5),
			P90:   stats.Quantile(lat, 0.9),
			Rate:  float64(len(lat)) / (t.end[hi-1] - t.start[lo]).Seconds(),
			Steal: t.ticks[b+1].stealShare(t.ticks[b]) * 100,
		})
	}
	return out
}

func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapAllocs is the cumulative Go heap bytes allocated by the process.
func heapAllocs() uint64 { return readMetric("/gc/heap/allocs:bytes") }

// gcCycles is the number of completed GC cycles.
func gcCycles() uint64 { return readMetric("/gc/cycles/total:gc-cycles") }

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM line in /proc/self/status")
}

// cpuTicks is the aggregate line of /proc/stat: total ticks and the steal
// ticks among them. Both are zero where /proc/stat is unreadable.
type cpuTicks struct{ total, steal uint64 }

func readCPUTicks() cpuTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTicks{}
	}
	var t cpuTicks
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return cpuTicks{}
		}
		// Fields: user nice system idle iowait irq softirq steal guest
		// guest_nice; guest time is already counted in user.
		if i < 8 {
			t.total += v
		}
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// stealShare is the steal share of the ticks elapsed since before.
func (t cpuTicks) stealShare(before cpuTicks) float64 {
	if t.total <= before.total {
		return 0
	}
	return float64(t.steal-before.steal) / float64(t.total-before.total)
}

// spinSink keeps the calibration loop's result alive.
var spinSink uint64

// spin times a fixed CPU loop of known cost, in milliseconds. Run at the
// start and the end of the timed phase, it shows machine drift as drift in
// its own reading.
func spin() float64 {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 20_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	spinSink += x
	return float64(time.Since(start).Nanoseconds()) / 1e6
}

// scratchDir returns a fresh directory under base for one WAL.
func scratchDir(base, name string) (string, error) {
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, name+"-")
}
