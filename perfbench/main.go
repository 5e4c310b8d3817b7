// Command perfbench is the pricing service's benchmark: a closed-loop
// client drives the real server.Server handler over a loopback TCP socket
// with one of three workloads, checks every answer, and prints the
// end-to-end metrics; a traced run costs each layer from outside.
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	perfbench --workload solve-warm|solve-cold|campaign-live --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the bounded end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. The line before it
// carries the run's details: the unbounded end-to-end metrics, sample
// count, per-block figures, calibration and input hash.
// See README.md for the workloads and the layer-to-metric map.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"time"

	"crowdpricing/internal/server"
	"crowdpricing/internal/stats"
	"crowdpricing/internal/wal"
)

// processStart is when package main was initialized, after the runtime
// and every imported package. The run's first set-up is timed from here;
// the time before it is not measured.
var processStart = time.Now()

const (
	// floorTrips is how many empty round trips calibrate the transport
	// floor.
	floorTrips = 2000
	// setupReps is how many set-ups a run makes: setup_s is their median,
	// and the last one is kept for the timed phase.
	setupReps = 5
	// outDir holds the runs' WAL directories and span files, relative to
	// the working directory.
	outDir = ".bench_build/perfbench"
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	ops      int    // fixed op count; 0 sizes it from seconds
	reps     int    // set-ups per run
	out      string // directory for WAL directories and span files
}

// opCount is the run's fixed op count: ops when set (tests), else sized
// from seconds.
func (c config) opCount() int {
	if c.ops > 0 {
		return c.ops
	}
	return opsFor(c.workload, c.seconds)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	ctx := context.Background()
	var res *result
	var details map[string]any
	if cfg.trace {
		res, details, err = runTraced(ctx, cfg, stderr)
	} else {
		res, details, err = runPlain(ctx, cfg)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"details": details}); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	var cfg config
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: solve-warm, solve-cold or campaign-live")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.IntVar(&cfg.seconds, "seconds", 10, "nominal length of the timed phase; sizes the fixed op sequence")
	trace := fs.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	switch {
	case !slices.Contains(workloadNames, cfg.workload):
		return cfg, fmt.Errorf("-workload %q: want one of %v", cfg.workload, workloadNames)
	case cfg.seconds < 1:
		return cfg, fmt.Errorf("-seconds %d: want at least 1", cfg.seconds)
	case *trace != 0 && *trace != 1:
		return cfg, fmt.Errorf("-trace %d: want 0 or 1", *trace)
	}
	cfg.trace, cfg.reps, cfg.out = *trace == 1, setupReps, outDir
	return cfg, nil
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setUp generates the inputs and brings one service instance to the point
// where the first timed op can go: server, listener, WAL, pre-solves,
// campaign population.
func setUp(ctx context.Context, cfg config, opts server.Options, wrap func(http.Handler) http.Handler, walFS wal.FS) (*inputs, *loopback, instance, error) {
	in, err := generate(cfg.workload, cfg.seed, cfg.opCount())
	if err != nil {
		return nil, nil, nil, err
	}
	walDir := ""
	if in.workload == campaignLive {
		if walDir, err = scratchDir(cfg.out, "wal"); err != nil {
			return nil, nil, nil, err
		}
	}
	lb, err := startLoopback(opts, wrap, walDir, walFS)
	if err != nil {
		return nil, nil, nil, err
	}
	// The first round trip opens the keep-alive connection every op uses.
	if _, err := lb.client.Healthz(ctx); err != nil {
		return nil, nil, nil, errors.Join(fmt.Errorf("connecting: %w", err), lb.close())
	}
	inst, err := newInstance(ctx, in, clientAPI{lb.client})
	if err != nil {
		return nil, nil, nil, errors.Join(fmt.Errorf("setting up %s: %w", in.workload, err), lb.close())
	}
	return in, lb, inst, nil
}

// runPlain is the untraced run: set up cfg.reps times (timing each, keeping
// the last), calibrate, force a GC, replay the op sequence, check.
func runPlain(ctx context.Context, cfg config) (*result, map[string]any, error) {
	var (
		setups []float64
		in     *inputs
		lb     *loopback
		inst   instance
	)
	for rep := 0; rep < cfg.reps; rep++ {
		start := time.Now()
		if rep == 0 {
			start = processStart
		}
		var err error
		if in, lb, inst, err = setUp(ctx, cfg, server.Options{}, nil, nil); err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		if rep < cfg.reps-1 {
			if err := lb.close(); err != nil {
				return nil, nil, err
			}
		}
	}
	res, details, _, err := measure(ctx, in, lb, inst, nil)
	if cerr := lb.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, nil, err
	}
	med := stats.Quantile(setups, 0.5)
	res.Metrics["setup_s"] = metric{med, "s"}
	details["setup_reps_s"] = setups
	// The first set-up also pays the process's first use of its code and
	// heap; the median leaves that out, so it is reported here.
	details["setup_first_excess_s"] = setups[0] - med
	return res, details, nil
}

// measure runs the calibrated, timed phase of one run against lb and
// returns the end-to-end metrics (setup_s aside) and the run's details.
func measure(ctx context.Context, in *inputs, lb *loopback, inst instance, rec *recorder) (*result, map[string]any, *timed, error) {
	floor, err := measureFloor(ctx, lb.client.HTTP, floorTrips)
	if err != nil {
		return nil, nil, nil, err
	}
	conns := lb.ln.accepted.Load()
	runtime.GC()
	spinStart := spin()
	t := runTimed(ctx, inst, in.ops, rec)
	spinEnd := spin()
	if err := inst.check(ctx); err != nil {
		ops := failedOps(err)
		if len(ops) == 0 {
			return nil, nil, nil, fmt.Errorf("post-run check: %w", err)
		}
		for _, i := range ops {
			t.fail(i, err)
		}
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, nil, nil, err
	}
	res := &result{Attempted: in.ops, Failed: t.failed()}
	res.Correct = res.Failed == 0
	lat := t.latencies(0, in.ops)
	blocks := t.blocks()
	var p50s, p90s, rates []float64
	for _, b := range blocks {
		p50s, p90s, rates = append(p50s, b.P50), append(p90s, b.P90), append(rates, b.Rate)
	}
	if len(lat) == 0 {
		p50s, p90s, rates, res.Correct = []float64{0}, []float64{0}, []float64{0}, false
	}
	res.Metrics = map[string]metric{
		"op_p50_ms":       {stats.Quantile(p50s, 0.5), "ms"},
		"alloc_kb_per_op": {float64(t.allocBytes) / float64(in.ops) / 1024, "KiB"},
		"rss_peak_mb":     {rss, "MiB"},
	}
	details := map[string]any{
		"workload": in.workload,
		"seed":     in.seed,
		"ops":      in.ops,
		"samples":  len(lat),
		// Measured and printed on every run, but kept out of the bounded
		// end-to-end set: both follow the host's CPU steal too closely to
		// hold a bound between run sets (see STEADINESS.md).
		"unbounded": map[string]metric{
			"op_p90_ms": {stats.Quantile(p90s, 0.5), "ms"},
			"ops_s":     {stats.Quantile(rates, 0.5), "1/s"},
		},
		"blocks":           blocks,
		"input_sha256":     in.hash,
		"gomaxprocs":       runtime.GOMAXPROCS(0),
		"spin_start_ms":    spinStart,
		"spin_end_ms":      spinEnd,
		"steal_pct":        t.ticks[len(t.ticks)-1].stealShare(t.ticks[0]) * 100,
		"floor_rtt_p50_us": floor,
		"overhead_us":      t.overhead(),
		"gc_per_kop":       float64(t.gcCycles) / float64(in.ops) * 1000,
		"timed_s":          t.wall.Seconds(),
		// Connections the service accepted before timing and in total:
		// equal means the timed phase kept one keep-alive connection.
		"connections_before_timing": conns,
		"connections":               lb.ln.accepted.Load(),
	}
	if len(lat) > 0 {
		// Quantiles over the whole timed phase, for reading the latency
		// modes; the metrics are medians across blocks.
		details["op_ms_quantiles"] = map[string]float64{
			"p10": stats.Quantile(lat, 0.1), "p25": stats.Quantile(lat, 0.25), "p50": stats.Quantile(lat, 0.5),
			"p75": stats.Quantile(lat, 0.75), "p90": stats.Quantile(lat, 0.9), "p95": stats.Quantile(lat, 0.95),
			"p99": stats.Quantile(lat, 0.99),
		}
	}
	if t.firstErr != nil {
		details["first_error"] = t.firstErr.Error()
	}
	return res, details, t, nil
}

// runChild runs the untraced run of cfg in a fresh process and returns its
// result and details.
func runChild(ctx context.Context, cfg config, stderr io.Writer) (*result, map[string]any, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	args := []string{
		"--workload", cfg.workload, "--seed", strconv.FormatInt(cfg.seed, 10),
		"--seconds", strconv.Itoa(cfg.seconds), "--trace", "0",
	}
	var out bytes.Buffer
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stdout, cmd.Stderr = &out, stderr
	if err := cmd.Run(); err != nil {
		return nil, nil, fmt.Errorf("untraced run: %w", err)
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	if len(lines) < 2 {
		return nil, nil, fmt.Errorf("untraced run printed %d lines, want details and result", len(lines))
	}
	var res result
	var det struct {
		Details map[string]any `json:"details"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, nil, fmt.Errorf("untraced run result: %w", err)
	}
	if err := json.Unmarshal(lines[len(lines)-2], &det); err != nil {
		return nil, nil, fmt.Errorf("untraced run details: %w", err)
	}
	return &res, det.Details, nil
}
