// Command loadbench is the open-loop load generator and continuous
// benchmark for the pricing daemon. It replays an NHPP-scheduled,
// fixed-seed mix of problems — any kinds the engine registry serves:
// deadline, budget, tradeoff, multi, and whatever is registered next —
// against either an in-process server (hermetic, the CI mode) or a running
// daemon over HTTP, measures coordinated-omission-safe latency, and writes
// a machine-readable JSON report next to a human summary. Backpressure
// (HTTP 429 from the daemon's admission queue) is reported in its own
// `rejected` bucket, separate from errors.
//
// Two scenarios are supported. The default (-scenario solve) fires
// stateless solve requests. -scenario campaign replays the stateful
// lifecycle instead: every scheduled arrival starts a campaign session —
// create, then -campaign-steps observe+quote pairs from a seed-determined
// observation script, then finish — so the run exercises the campaign
// table, the O(1) quote path, and (with -campaign-adaptive) the §5.2.5
// re-planning controller; latency is measured per session.
//
// Examples:
//
//	loadbench -duration 10s -seed 1 -out BENCH_loadbench.json
//	loadbench -url http://localhost:8080 -rate 200 -size paper -cardinality 64
//	loadbench -mix "deadline=5,budget=3,tradeoff=2,multi=1" -duration 10s
//	loadbench -scenario campaign -campaign-steps 6 -rate 10 -duration 10s
//	loadbench -duration 10s -baseline BENCH_old.json -threshold 0.10
//
// Exit codes: 0 success; 1 usage or run failure (an interrupted run that
// measured anything still prints and writes its partial report); 2 a
// metric regressed past -threshold against -baseline; 3 the -max-p99 /
// -max-error-rate sanity ceiling was exceeded (the CI smoke gate).
//
// In-process, each solve runs serially on one engine worker, so
// -solve-concurrency is the only solve parallelism.
//
// Flags:
//
//	-duration duration    measurement window (default 10s)
//	-warmup duration      cache warm-up excluded from stats (default 2s)
//	-rate float           mean arrival rate, requests/second (default 50)
//	-seed int             RNG seed; equal seeds replay identical schedules (default 1)
//	-mix string           kind weights over registered kinds, e.g. "deadline=5,budget=3,multi=1"
//	-cardinality int      distinct problems per kind — the cache hit-rate dial (default 16)
//	-size string          problem scale: small, medium, or paper (default "small")
//	-shape string         arrival profile: constant or diurnal (default "constant")
//	-scenario string      workload: solve or campaign (default "solve")
//	-campaign-steps int   campaign scenario: observe/quote pairs per session (default 8)
//	-campaign-adaptive    campaign scenario: run sessions in adaptive re-planning mode
//	-campaign-dedup float campaign scenario: fraction of sessions redirected onto one
//	                      shared problem per kind — models many tenants pricing the
//	                      same batch, the intern-table sharing regime (default 0)
//	-url string           target daemon base URL; empty runs in-process
//	-campaign-wal-dir string  in-process mode: attach a campaign event log at
//	                      this directory — the durability leg, for measuring
//	                      WAL overhead against a log-less baseline run
//	-cache int            in-process mode: policy cache capacity (default 1024)
//	-solve-concurrency int  in-process mode: engine solve worker pool, how many solves run at once (default 0 = all CPUs)
//	-queue int            in-process mode: admission queue depth; overflow sheds 429 (default 4096)
//	-concurrency int      cap on in-flight requests (default 4096)
//	-out string           write the JSON report here (default "BENCH_loadbench.json"; "" skips)
//	-baseline string      compare against a previous JSON report
//	-threshold float      relative regression threshold for -baseline (default 0.1)
//	-max-p99 duration     fail (exit 3) if overall p99 exceeds this (0 disables)
//	-max-error-rate float fail (exit 3) if the error rate exceeds this (-1 disables; 429 rejections excluded)
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"crowdpricing/internal/bench"
	"crowdpricing/internal/server"
	"crowdpricing/internal/wal"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("loadbench: ")
	flag.Usage = func() {
		o := flag.CommandLine.Output()
		fmt.Fprintf(o, "usage: loadbench [flags]\n\n")
		fmt.Fprintf(o, "Replay an NHPP-scheduled pricing workload and report latency/throughput.\n")
		fmt.Fprintf(o, "Registered problem kinds: %s.\n\nflags:\n", strings.Join(bench.Kinds, ", "))
		flag.PrintDefaults()
	}
	var (
		duration    = flag.Duration("duration", 10*time.Second, "measurement window")
		warmup      = flag.Duration("warmup", 2*time.Second, "cache warm-up excluded from stats")
		rateRPS     = flag.Float64("rate", 50, "mean arrival rate, requests/second")
		seed        = flag.Int64("seed", 1, "RNG seed; equal seeds replay identical schedules")
		mixSpec     = flag.String("mix", "", `kind weights, e.g. "deadline=5,budget=3,multi=1" (default the built-in mix)`)
		cardinality = flag.Int("cardinality", 16, "distinct problems per kind — the cache hit-rate dial")
		size        = flag.String("size", "small", "problem scale: small, medium, or paper")
		shape       = flag.String("shape", "constant", "arrival profile: constant or diurnal")
		scenario    = flag.String("scenario", "solve", "workload: stateless solve requests or stateful campaign sessions (solve | campaign)")
		campSteps   = flag.Int("campaign-steps", 0, "campaign scenario: observe/quote pairs per session (0 = default 8)")
		campAdapt   = flag.Bool("campaign-adaptive", false, "campaign scenario: run every session in adaptive re-planning mode")
		campDedup   = flag.Float64("campaign-dedup", 0, "campaign scenario: fraction of sessions redirected onto one shared problem per kind")
		url         = flag.String("url", "", "target daemon base URL; empty runs in-process")
		walDir      = flag.String("campaign-wal-dir", "", `in-process mode: attach a campaign event log at this directory ("" disables)`)
		cacheSize   = flag.Int("cache", server.DefaultCacheSize, "in-process mode: policy cache capacity")
		solveConc   = flag.Int("solve-concurrency", 0, "in-process mode: engine solve worker pool (0 = all CPUs)")
		queueDepth  = flag.Int("queue", server.DefaultQueueDepth, "in-process mode: admission queue depth; overflow sheds 429")
		concurrency = flag.Int("concurrency", 4096, "cap on in-flight requests")
		out         = flag.String("out", "BENCH_loadbench.json", `write the JSON report here ("" skips)`)
		baseline    = flag.String("baseline", "", "compare against a previous JSON report")
		threshold   = flag.Float64("threshold", 0.10, "relative regression threshold for -baseline")
		maxP99      = flag.Duration("max-p99", 0, "fail (exit 3) if overall p99 exceeds this (0 disables)")
		maxErrRate  = flag.Float64("max-error-rate", -1, "fail (exit 3) if the error rate exceeds this (-1 disables; 429 rejections excluded)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		log.Fatalf("unexpected arguments %q; loadbench takes flags only", flag.Args())
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	mix, err := parseMix(*mixSpec)
	if err != nil {
		log.Fatal(err)
	}
	cfg := bench.Config{
		Seed:             *seed,
		Rate:             *rateRPS,
		Duration:         *duration,
		Warmup:           *warmup,
		Mix:              mix,
		Cardinality:      *cardinality,
		Size:             bench.Size(*size),
		Shape:            bench.Shape(*shape),
		Scenario:         bench.Scenario(*scenario),
		CampaignSteps:    *campSteps,
		CampaignAdaptive: *campAdapt,
		CampaignDedup:    *campDedup,
	}
	sched, err := bench.GenerateSchedule(cfg)
	if err != nil {
		log.Fatal(err)
	}

	os.Exit(runSingle(ctx, sched, singleFlags{
		url:         *url,
		walDir:      *walDir,
		cacheSize:   *cacheSize,
		solveConc:   *solveConc,
		queueDepth:  *queueDepth,
		concurrency: *concurrency,
	}, gateFlags{out: *out, baseline: *baseline, threshold: *threshold, maxP99: *maxP99, maxErrRate: *maxErrRate}))
}

type singleFlags struct {
	url, walDir                                   string
	cacheSize, solveConc, queueDepth, concurrency int
}

type gateFlags struct {
	out, baseline string
	threshold     float64
	maxP99        time.Duration
	maxErrRate    float64
}

// runSingle builds the target, replays the whole schedule against it, and
// reports.
func runSingle(ctx context.Context, sched *bench.Schedule, f singleFlags, gates gateFlags) int {
	targetName := "in-process"
	var base *bench.ClientTarget
	closeWAL := func() {}
	if f.url != "" {
		if f.walDir != "" {
			log.Fatal("-campaign-wal-dir applies to the in-process target only; the daemon behind -url owns its own -wal-dir")
		}
		targetName = f.url
		base = bench.NewHTTPTarget(f.url)
	} else {
		var srv *server.Server
		base, srv = bench.NewInProcessTarget(server.Options{
			CacheSize:  f.cacheSize,
			Workers:    f.solveConc,
			QueueDepth: f.queueDepth,
		})
		if f.walDir != "" {
			// The durability leg: same schedule, every campaign mutation
			// group committed to a real on-disk log. Compare against a
			// log-less baseline run to price the WAL's overhead.
			wlog, err := srv.Campaigns().OpenWAL(f.walDir, wal.Options{})
			if err != nil {
				log.Fatal(err)
			}
			if _, err := srv.Campaigns().ReplayWAL(context.Background(), wlog); err != nil {
				log.Fatal(err)
			}
			srv.AttachWAL(wlog)
			targetName = "in-process+wal"
			// main exits through os.Exit, which skips defers: close the log
			// explicitly before every exit path below.
			closeWAL = func() {
				if err := wlog.Close(); err != nil {
					log.Printf("wal close: %v", err)
				}
			}
		}
	}
	target := bench.NewTargetFor(sched, base.Client)

	log.Printf("replaying %d requests (%s warmup + %s measured) against %s, schedule %.12s…",
		len(sched.Requests), sched.Config.Warmup, sched.Config.Duration, targetName, sched.Hash)
	res, runErr := bench.Run(ctx, sched, bench.RunOptions{Target: target, MaxConcurrent: f.concurrency})
	if runErr != nil {
		if res == nil || res.Overall.Requests == 0 {
			log.Fatal(runErr)
		}
		// An interrupted run still measured something: report the partial
		// data before exiting non-zero rather than discarding minutes of
		// load.
		log.Printf("%v — reporting the partial run", runErr)
	}

	closeWAL()
	rep := bench.BuildReport(sched.Config, targetName, res, time.Now())
	if f.url != "" {
		// A live daemon can say where the time went server-side: attach its
		// per-stage breakdown from /v1/analytics. Best-effort — the daemon
		// may run with tracing off or predate the analytics plane.
		actx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if an, err := server.NewClient(f.url).Analytics(actx); err != nil {
			log.Printf("server stage breakdown unavailable: %v", err)
		} else {
			rep.ServerStages = an.Stages
		}
		cancel()
	}
	exit := reportAndGate(rep, gates)
	if runErr != nil && exit == 0 {
		exit = 1
	}
	return exit
}

// reportAndGate prints the report, writes -out, compares -baseline, and
// applies the sanity ceilings.
func reportAndGate(rep *bench.Report, gates gateFlags) int {
	fmt.Print(rep.Table())
	if gates.out != "" {
		if err := rep.WriteJSON(gates.out); err != nil {
			log.Fatal(err)
		}
		log.Printf("report written to %s", gates.out)
	}

	exit := 0
	if gates.baseline != "" {
		base, err := bench.ReadReport(gates.baseline)
		if err != nil {
			log.Fatal(err)
		}
		cmp := bench.Compare(base, rep, gates.threshold)
		fmt.Print(cmp.Format())
		if len(cmp.Regressions()) > 0 {
			exit = 2
		}
	}
	if gates.maxErrRate >= 0 && rep.ErrorRate > gates.maxErrRate {
		log.Printf("SANITY FAIL: error rate %.4f exceeds -max-error-rate %.4f", rep.ErrorRate, gates.maxErrRate)
		exit = 3
	}
	if gates.maxP99 > 0 {
		p99 := time.Duration(rep.Latency.P99Millis * float64(time.Millisecond))
		if p99 > gates.maxP99 {
			log.Printf("SANITY FAIL: p99 %v exceeds -max-p99 %v", p99, gates.maxP99)
			exit = 3
		}
	}
	return exit
}

// parseMix parses "deadline=5,budget=3,multi=1" into a Mix (missing kinds
// weigh 0; empty string selects the built-in default mix). Only the syntax
// is checked here — kind names, weight signs, and the positive-sum rule
// are validated once, by bench.GenerateSchedule, with the same errors.
func parseMix(spec string) (bench.Mix, error) {
	if spec == "" {
		return nil, nil
	}
	m := bench.Mix{}
	for _, part := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf(`bad -mix component %q (want "kind=weight")`, part)
		}
		w, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("bad -mix weight %q for %q", val, key)
		}
		m[key] = w
	}
	return m, nil
}
