// Command priced runs the pricing daemon: a long-lived HTTP service that
// solves the paper's pricing problems on demand and serves repeated or
// concurrent identical problems from a shared policy cache. Every problem
// kind in the engine registry is served from one generic endpoint family —
// POST /v1/solve/{kind} for deadline, budget, tradeoff, and multi — with
// admission control: cold solves run on a bounded worker pool behind a
// bounded queue, and overload is shed with HTTP 429 instead of unbounded
// goroutines. Warm requests return in microseconds; N simultaneous
// identical requests cost exactly one solve. Each solve runs serially on
// one pool worker, so -concurrency is the daemon's only solve parallelism.
//
// Start it, then POST problems as JSON:
//
//	priced -addr :8080 &
//	curl -s localhost:8080/v1/solve/budget -d '{
//	        "n": 100, "budget": 2500,
//	        "accept": {"s": 15, "b": -0.39, "m": 2000},
//	        "min_price": 1, "max_price": 50}'
//
// The daemon also runs stateful campaigns — the paper's online loop:
// POST /v1/campaigns registers a batch under a solved policy (optionally
// with §5.2.5 adaptive re-planning), POST /v1/campaigns/{id}/observe
// records each interval's arrivals and completions, and
// GET /v1/campaigns/{id}/price quotes the policy's current price in O(1).
// Idle campaigns expire after -campaign-ttl.
//
// Campaigns survive restarts and crashes through one mechanism, the event
// log under -wal-dir: every campaign mutation is appended to a checksummed
// log, group committed within -wal-sync-interval off the quote hot path,
// and replayed at boot (tolerating torn trailing writes from a crash), so
// a restarted daemon resumes quoting identical prices. A graceful shutdown
// (SIGINT or SIGTERM) drains in-flight requests, then flushes and fsyncs
// the log. Without -wal-dir campaigns live in memory only. Inspect a log
// with cmd/wal (wal list, wal verify) and regenerate rate fits from
// recorded traffic with wal stats.
//
// A campaign's policy tables — every factor of an adaptive bank included —
// are solved and decoded before it goes live and stay resident until the
// last campaign sharing them ends, so a quote never waits on a solve.
//
// Observability: every request is traced through the pipeline stages
// (decode, engine queue, solve, quoter decode, campaign lock, WAL append);
// GET /debug/requests serves the slowest recent traces of each route and
// GET /v1/analytics the live analytics plane — fleet λ̂ re-fit over the
// last 256 observes (the window wal stats folds a log with, so the two
// agree), per-cohort campaign/quote summaries, per-stage latency. Trace IDs
// come from a generator with one fixed seed, so every daemon mints the
// same sequence. The same numbers are scraped from /metrics as
// crowdpricing_stage_duration_seconds and the crowdpricing_lambda_hat /
// crowdpricing_cohort_* families.
// -debug-addr starts a second, private listener serving net/http/pprof —
// off by default, and deliberately never on the public address.
//
// Endpoints: POST /v1/solve/{kind} (deadline | budget | tradeoff | multi);
// POST /v1/campaigns, POST /v1/campaigns/{id}/observe, GET
// /v1/campaigns/{id}[/price], DELETE /v1/campaigns/{id}; GET
// /v1/analytics, /debug/requests, /healthz,
// /metrics (Prometheus text format, including queue-depth/in-flight/
// campaign gauges, per-kind solve and rejection counters, per-stage
// duration histograms, and live λ̂/cohort analytics).
//
// Flags:
//
//	-addr string
//	      listen address (default ":8080")
//	-cache int
//	      maximum number of cached policies (default 1024)
//	-concurrency int
//	      engine solve worker pool — how many cold solves run at once;
//	      0 means all CPUs (default 0)
//	-queue int
//	      admission queue depth; cold solves beyond it are shed with
//	      HTTP 429 (default 4096)
//	-timeout duration
//	      per-request solve timeout; timed-out solves keep running and warm
//	      the cache for the retry (default 2m0s)
//	-campaign-ttl duration
//	      expire campaigns idle for this long; negative never expires
//	      (default 30m0s)
//	-wal-dir string
//	      campaign event-log directory: replayed at boot, appended while
//	      serving ("" disables durability)
//	-wal-sync-interval duration
//	      group-commit fsync window: a crash loses at most this much
//	      acknowledged campaign history (default 5ms)
//	-trace-requests int
//	      how many of the slowest recent request traces /debug/requests
//	      retains per route (default 64; 0 disables request tracing)
//	-log-format string
//	      log output format, "text" or "json" (default "text")
//	-debug-addr string
//	      private listen address for net/http/pprof, e.g. "localhost:6060"
//	      ("" disables; never expose this address publicly)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"crowdpricing/internal/campaign"
	"crowdpricing/internal/kinds"
	"crowdpricing/internal/server"
	"crowdpricing/internal/telemetry"
	"crowdpricing/internal/wal"
)

func main() {
	flag.Usage = func() {
		o := flag.CommandLine.Output()
		fmt.Fprintf(o, "usage: priced [flags]\n\n")
		fmt.Fprintf(o, "Run the crowd-pricing policy daemon (HTTP/JSON, cached solves, admission control).\n")
		fmt.Fprintf(o, "Problem kinds served: %s.\n\nflags:\n", strings.Join(kinds.Default().Kinds(), ", "))
		flag.PrintDefaults()
	}
	addr := flag.String("addr", ":8080", "listen address")
	cacheSize := flag.Int("cache", server.DefaultCacheSize, "maximum number of cached policies")
	concurrency := flag.Int("concurrency", 0, "engine solve worker pool; 0 means all CPUs")
	queueDepth := flag.Int("queue", server.DefaultQueueDepth, "admission queue depth; overflow is shed with HTTP 429")
	timeout := flag.Duration("timeout", server.DefaultRequestTimeout, "per-request solve timeout")
	campaignTTL := flag.Duration("campaign-ttl", campaign.DefaultTTL, "expire campaigns idle for this long; negative never expires")
	walDir := flag.String("wal-dir", "", `campaign event-log directory: replayed at boot, appended while serving ("" disables durability)`)
	walSync := flag.Duration("wal-sync-interval", wal.DefaultSyncInterval, "group-commit fsync window for the campaign event log")
	traceRequests := flag.Int("trace-requests", telemetry.DefaultKeep, "slowest recent request traces retained per route on /debug/requests; 0 disables tracing")
	logFormat := flag.String("log-format", "text", `log output format: "text" or "json"`)
	debugAddr := flag.String("debug-addr", "", `private listen address for net/http/pprof ("" disables)`)
	flag.Parse()

	var handler slog.Handler
	switch *logFormat {
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	default:
		fmt.Fprintf(os.Stderr, "priced: unknown -log-format %q (want text or json)\n", *logFormat)
		os.Exit(2)
	}
	logger := slog.New(handler)
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}
	if flag.NArg() > 0 {
		fatal("unexpected arguments; priced takes flags only", "args", flag.Args())
	}

	// The tracing plane distinguishes "default ring" from "off" by sign:
	// the wire flag reads naturally (0 = off), Options reads negative = off.
	traceBuffer := *traceRequests
	if traceBuffer <= 0 {
		traceBuffer = -1
	}
	srv := server.New(server.Options{
		CacheSize:      *cacheSize,
		RequestTimeout: *timeout,
		Workers:        *concurrency,
		QueueDepth:     *queueDepth,
		CampaignTTL:    *campaignTTL,
		TraceBuffer:    traceBuffer,
		Logger:         logger,
	})
	defer srv.Close()

	// Campaign durability, in boot order: recover and open the event log,
	// replay it into the table (the same pass streams its recorded history
	// into the analytics plane), then attach it so every later mutation is
	// logged.
	if *walDir != "" {
		wlog, err := srv.Campaigns().OpenWAL(*walDir, wal.Options{SyncInterval: *walSync})
		if err != nil {
			fatal("wal open failed", "dir", *walDir, "error", err)
		}
		defer func() {
			if err := wlog.Close(); err != nil {
				logger.Error("wal close failed", "error", err)
			}
		}()
		begin := time.Now()
		stats, err := srv.Campaigns().ReplayWAL(context.Background(), wlog)
		if err != nil {
			// Recovery already tolerated any torn tail; failing here means
			// real corruption or an unsolvable event. Refuse to serve an
			// empty table over live state.
			fatal("wal replay failed", "dir", *walDir, "error", err)
		}
		wlog.SetReplayDuration(time.Since(begin))
		if wm := wlog.Metrics(); wm.TruncatedBytes > 0 {
			logger.Warn("wal recovery truncated torn bytes left by a crash mid-write",
				"bytes", wm.TruncatedBytes)
		}
		logger.Info("wal replayed",
			"dir", *walDir, "records", stats.Records, "snapshots", stats.Snapshots,
			"campaigns", stats.Campaigns, "elapsed", time.Since(begin).Round(time.Millisecond))
		srv.AttachWAL(wlog)
	}

	// The pprof surface is a second, private listener — profiling endpoints
	// leak heap contents and symbol names, so they never share the public
	// mux. The bind happens eagerly so a typo'd -debug-addr (or a taken
	// port) fails fast, before the daemon serves traffic; once serving, an
	// asynchronous error on this listener must not exit the process — that
	// would skip the deferred WAL close — so the serve goroutine logs and
	// the daemon carries on without profiling.
	if *debugAddr != "" {
		debugMux := http.NewServeMux()
		debugMux.HandleFunc("/debug/pprof/", pprof.Index)
		debugMux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		debugMux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		debugMux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		debugMux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fatal("pprof listen failed", "addr", *debugAddr, "error", err)
		}
		ds := &http.Server{Handler: debugMux, ReadHeaderTimeout: 10 * time.Second}
		go func() {
			logger.Info("pprof listening", "addr", *debugAddr)
			if err := ds.Serve(dln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("pprof listener failed; profiling unavailable", "addr", *debugAddr, "error", err)
			}
		}()
		defer ds.Close()
	}

	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		<-ctx.Done()
		logger.Info("shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(shutdownCtx); err != nil {
			logger.Error("shutdown failed", "error", err)
		}
	}()

	logger.Info("listening",
		"addr", *addr, "kinds", strings.Join(kinds.Default().Kinds(), "|"),
		"cache", *cacheSize, "queue", *queueDepth, "timeout", *timeout,
		"tracing", traceBuffer > 0)
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal("listen failed", "addr", *addr, "error", err)
	}
	// ListenAndServe returns as soon as the listener closes; wait for
	// Shutdown to finish draining in-flight requests before exiting.
	stop()
	<-shutdownDone
}
