package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"crowdpricing/internal/hdr"
	"crowdpricing/internal/kinds"
	"crowdpricing/internal/server"
)

func smallConfig() Config {
	return Config{
		Seed:        1,
		Rate:        150,
		Duration:    400 * time.Millisecond,
		Warmup:      100 * time.Millisecond,
		Cardinality: 3,
		Size:        SizeSmall,
	}
}

func TestGenerateScheduleDeterministic(t *testing.T) {
	a, err := GenerateSchedule(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateSchedule(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.Hash != b.Hash {
		t.Fatalf("same config, different schedule hashes: %s vs %s", a.Hash, b.Hash)
	}
	if !reflect.DeepEqual(a.Requests, b.Requests) {
		t.Fatal("same config produced different request slices")
	}
	if len(a.Requests) == 0 {
		t.Fatal("empty schedule for a 0.5s window at 150 rps")
	}

	other := smallConfig()
	other.Seed = 2
	c, err := GenerateSchedule(other)
	if err != nil {
		t.Fatal(err)
	}
	if c.Hash == a.Hash {
		t.Fatal("different seeds produced identical schedules")
	}

	// Size changes only the problem bodies, never an arrival tuple — the
	// hash must still differ, or A/B compares would silently diff runs of
	// different workloads.
	sized := smallConfig()
	sized.Size = SizePaper
	d, err := GenerateSchedule(sized)
	if err != nil {
		t.Fatal(err)
	}
	if d.Hash == a.Hash {
		t.Fatal("different problem sizes produced identical schedule hashes")
	}
}

// TestScheduleShapeAndBodies checks structural invariants: sorted arrival
// times inside the window, problem ids within cardinality, bodies shared by
// id, and all three kinds present under the default mix.
func TestScheduleShapeAndBodies(t *testing.T) {
	cfg := smallConfig()
	cfg.Shape = ShapeDiurnal
	cfg.Rate = 400
	// Every registered kind in the mix, including multi — the registry is
	// the only per-kind source the generator has.
	cfg.Mix = Mix{kinds.KindDeadline: 4, kinds.KindBudget: 3, kinds.KindTradeoff: 2, kinds.KindMulti: 1}
	sched, err := GenerateSchedule(cfg)
	if err != nil {
		t.Fatal(err)
	}
	window := cfg.Warmup + cfg.Duration
	seen := map[string]map[int]any{}
	kinds := map[string]int{}
	var prev time.Duration
	for i, q := range sched.Requests {
		if q.At < prev {
			t.Fatalf("request %d at %v precedes request %d at %v", i, q.At, i-1, prev)
		}
		prev = q.At
		if q.At < 0 || q.At >= window {
			t.Fatalf("request %d scheduled at %v, outside [0, %v)", i, q.At, window)
		}
		if q.ProblemID < 0 || q.ProblemID >= cfg.Cardinality {
			t.Fatalf("request %d has problem id %d, cardinality %d", i, q.ProblemID, cfg.Cardinality)
		}
		kinds[q.Kind]++
		if kindByte(q.Kind) == 0xff {
			t.Fatalf("request %d has unknown kind %q", i, q.Kind)
		}
		if q.Spec == nil {
			t.Fatalf("request %d (%s) has no body", i, q.Kind)
		}
		if q.Spec.Kind() != q.Kind {
			t.Fatalf("request %d kind %q carries a %q spec", i, q.Kind, q.Spec.Kind())
		}
		if err := q.Spec.Validate(); err != nil {
			t.Fatalf("request %d (%s) body invalid: %v", i, q.Kind, err)
		}
		if seen[q.Kind] == nil {
			seen[q.Kind] = map[int]any{}
		}
		if prior, ok := seen[q.Kind][q.ProblemID]; ok && prior != q.Spec {
			t.Fatalf("kind %s id %d bound to two distinct bodies", q.Kind, q.ProblemID)
		}
		seen[q.Kind][q.ProblemID] = q.Spec
	}
	for kind, w := range sched.Config.Mix {
		if w > 0 && kinds[kind] == 0 {
			t.Errorf("no %s requests in a %d-request schedule despite weight %g", kind, len(sched.Requests), w)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Rate = 0 },
		func(c *Config) { c.Duration = 0 },
		func(c *Config) { c.Warmup = -time.Second },
		func(c *Config) { c.Size = "gigantic" },
		func(c *Config) { c.Shape = "square" },
		func(c *Config) { c.Mix = Mix{kinds.KindDeadline: -1, kinds.KindBudget: 2} },
		func(c *Config) { c.Mix = Mix{"astrology": 1} },
		func(c *Config) { c.Mix = Mix{kinds.KindDeadline: 0} },
	}
	for i, mutate := range bad {
		cfg := smallConfig()
		mutate(&cfg)
		if _, err := GenerateSchedule(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

// TestRunInProcessSmoke is the end-to-end harness test: generate, run
// against a fresh in-process server, and check the report invariants the CI
// smoke job relies on (zero errors, sane quantiles, cache hits from the
// cardinality dial).
func TestRunInProcessSmoke(t *testing.T) {
	cfg := smallConfig()
	sched, err := GenerateSchedule(cfg)
	if err != nil {
		t.Fatal(err)
	}
	target, srv := NewInProcessTarget(server.Options{})
	res, err := Run(context.Background(), sched, RunOptions{Target: target})
	if err != nil {
		t.Fatal(err)
	}
	if res.Overall.Errors != 0 {
		t.Fatalf("smoke run produced %d errors; samples: %v", res.Overall.Errors, res.ErrorSamples)
	}
	if res.Overall.Requests == 0 {
		t.Fatal("no measured requests")
	}
	if res.Warmed == 0 {
		t.Error("no warmup requests fired before the measurement window")
	}
	if int(res.Overall.Requests)+int(res.Warmed) != len(sched.Requests) {
		t.Errorf("measured %d + warmed %d != scheduled %d",
			res.Overall.Requests, res.Warmed, len(sched.Requests))
	}
	// Cardinality 3 over ~60+ measured requests ⇒ nearly everything after
	// the first few solves is a cache hit.
	hitRatio := float64(res.Overall.CacheHits) / float64(res.Overall.Requests)
	if hitRatio < 0.5 {
		t.Errorf("cache hit ratio %.2f below 0.5 despite cardinality %d", hitRatio, cfg.Cardinality)
	}
	if m := srv.Metrics(); m.Solves == 0 || m.Solves > 3*int64(cfg.Cardinality) {
		t.Errorf("server performed %d solves, want within (0, %d]", m.Solves, 3*cfg.Cardinality)
	}

	rep := BuildReport(sched.Config, "in-process", res, time.Time{})
	if rep.Latency.P50Millis <= 0 || rep.Latency.P99Millis < rep.Latency.P50Millis {
		t.Errorf("implausible latency summary %+v", rep.Latency)
	}
	if rep.ThroughputRPS <= 0 {
		t.Errorf("throughput %v not positive", rep.ThroughputRPS)
	}
	if rep.ScheduleSHA256 != sched.Hash {
		t.Error("report lost the schedule hash")
	}

	// Report round-trips through JSON with the schema version intact.
	path := filepath.Join(t.TempDir(), "report.json")
	if err := rep.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, back) {
		t.Error("report did not round-trip through JSON")
	}
	if !strings.Contains(rep.Table(), "endpoint") {
		t.Error("table output missing header")
	}

	// With a daemon-side stage breakdown attached (the -url path), the
	// table renders the stages in pipeline order and the block round-trips.
	rep.ServerStages = map[string]server.StageSummary{
		"engine_solve":  {Count: 4, MeanMS: 2.1, P50MS: 1.9, P99MS: 3.4, MaxMS: 3.4},
		"server_decode": {Count: 40, MeanMS: 0.02, P50MS: 0.01, P99MS: 0.08, MaxMS: 0.2},
	}
	staged := rep.Table()
	if !strings.Contains(staged, "server stages") || !strings.Contains(staged, "engine_solve") {
		t.Errorf("table output missing server-stage block:\n%s", staged)
	}
	if strings.Index(staged, "server_decode") > strings.Index(staged, "engine_solve") {
		t.Error("server-stage block not in pipeline order")
	}

	// The JSON document exposes the fields the ISSUE's schema names.
	var raw map[string]any
	data, _ := json.Marshal(rep)
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"schema_version", "config", "environment", "schedule_sha256",
		"latency", "throughput_rps", "cache_hit_ratio", "error_rate",
		"rejected", "rejected_rate", "endpoints"} {
		if _, ok := raw[key]; !ok {
			t.Errorf("report JSON missing %q", key)
		}
	}
}

// TestRunMultiKindSmoke drives a mix containing the multi kind end to end
// through the in-process server: the registry is the only per-kind source,
// so this passing is the "new kinds are load-testable with zero generator
// edits" claim.
func TestRunMultiKindSmoke(t *testing.T) {
	cfg := smallConfig()
	cfg.Mix = Mix{kinds.KindMulti: 1, kinds.KindBudget: 1}
	sched, err := GenerateSchedule(cfg)
	if err != nil {
		t.Fatal(err)
	}
	target, srv := NewInProcessTarget(server.Options{})
	defer srv.Close()
	res, err := Run(context.Background(), sched, RunOptions{Target: target})
	if err != nil {
		t.Fatal(err)
	}
	if res.Overall.Errors != 0 || res.Overall.Rejected != 0 {
		t.Fatalf("multi smoke: %d errors, %d rejected; samples: %v",
			res.Overall.Errors, res.Overall.Rejected, res.ErrorSamples)
	}
	if res.ByKind[kinds.KindMulti].Requests == 0 {
		t.Fatal("no multi requests measured")
	}
	if m := srv.Metrics(); m.SolvesByKind[kinds.KindMulti] == 0 {
		t.Error("server performed no multi solves")
	}
	rep := BuildReport(sched.Config, "in-process", res, time.Time{})
	if _, ok := rep.Endpoints[kinds.KindMulti]; !ok {
		t.Error("report has no multi endpoint breakdown")
	}
}

// rejectingTarget sheds every odd request with the daemon's 429 APIError
// and serves the rest, to exercise the rejected bucket.
type rejectingTarget struct {
	n atomic.Int64
}

func (rt *rejectingTarget) Do(ctx context.Context, req *Request) (bool, error) {
	if rt.n.Add(1)%2 == 0 {
		return false, &server.APIError{StatusCode: 429, Status: "429 Too Many Requests", Message: "queue full"}
	}
	return true, nil
}

// TestRejectionAccounting: 429 backpressure lands in the rejected bucket —
// not the error rate, not the latency histogram — overall and per kind,
// and never gates the baseline comparison.
func TestRejectionAccounting(t *testing.T) {
	cfg := smallConfig()
	cfg.Warmup = 0
	sched, err := GenerateSchedule(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var rt rejectingTarget
	res, err := Run(context.Background(), sched, RunOptions{Target: &rt})
	if err != nil {
		t.Fatal(err)
	}
	if res.Overall.Errors != 0 {
		t.Fatalf("rejections were counted as errors: %d (%v)", res.Overall.Errors, res.ErrorSamples)
	}
	if res.Overall.Rejected == 0 {
		t.Fatal("no rejections recorded")
	}
	if got := res.Overall.Rejected + res.Overall.Latency.Count(); got != res.Overall.Requests {
		t.Errorf("rejected (%d) + timed (%d) = %d, want every measured request (%d)",
			res.Overall.Rejected, res.Overall.Latency.Count(), got, res.Overall.Requests)
	}
	var perKind int64
	for _, ks := range res.ByKind {
		perKind += ks.Rejected
	}
	if perKind != res.Overall.Rejected {
		t.Errorf("per-kind rejections sum to %d, overall %d", perKind, res.Overall.Rejected)
	}

	rep := BuildReport(sched.Config, "in-process", res, time.Time{})
	if rep.ErrorRate != 0 {
		t.Errorf("error rate %v, want 0 under pure shedding", rep.ErrorRate)
	}
	if rep.RejectedRate <= 0.4 || rep.RejectedRate >= 0.6 {
		t.Errorf("rejected rate %v, want ≈0.5", rep.RejectedRate)
	}
	for kind, ep := range rep.Endpoints {
		if ep.Rejected == 0 && ep.Requests > 1 {
			t.Errorf("endpoint %s reports no rejections over %d requests", kind, ep.Requests)
		}
	}

	// A clean baseline vs. a shedding run: rejected_rate is Worse but must
	// never be a Regression (shedding is intentional admission control).
	clean := *rep
	clean.Rejected, clean.RejectedRate = 0, 0
	cmp := Compare(&clean, rep, 0.10)
	sawRejected := false
	for _, d := range cmp.Deltas {
		if d.Metric == "rejected_rate" {
			sawRejected = true
			if !d.Worse || d.Regression {
				t.Errorf("rejected_rate delta worse=%v regression=%v, want worse, non-gating", d.Worse, d.Regression)
			}
		}
	}
	if !sawRejected {
		t.Error("comparison omits rejected_rate")
	}
}

func TestRunCanceled(t *testing.T) {
	cfg := smallConfig()
	cfg.Duration = 10 * time.Second
	sched, err := GenerateSchedule(cfg)
	if err != nil {
		t.Fatal(err)
	}
	target, _ := NewInProcessTarget(server.Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	if _, err := Run(ctx, sched, RunOptions{Target: target}); err == nil {
		t.Fatal("canceled run returned nil error")
	}
}

func reportPair() (*Report, *Report) {
	base := &Report{
		SchemaVersion:  SchemaVersion,
		ScheduleSHA256: "abc",
		Requests:       10_000,
		ThroughputRPS:  100,
		ErrorRate:      0,
		CacheHitRatio:  0.9,
		Latency:        LatencySummary{P50Millis: 1, P90Millis: 2, P95Millis: 3, P99Millis: 10, P999Millis: 20, MaxMillis: 30},
		Endpoints: map[string]EndpointReport{
			kinds.KindDeadline: {Requests: 50, Latency: LatencySummary{P99Millis: 10}},
		},
	}
	cur := *base
	cur.Endpoints = map[string]EndpointReport{
		kinds.KindDeadline: {Requests: 50, Latency: LatencySummary{P99Millis: 10}},
	}
	return base, &cur
}

func TestCompareNoRegression(t *testing.T) {
	base, cur := reportPair()
	cmp := Compare(base, cur, 0.10)
	if regs := cmp.Regressions(); len(regs) != 0 {
		t.Fatalf("identical reports flagged regressions: %+v", regs)
	}
	if len(cmp.Warnings) != 0 {
		t.Fatalf("identical reports produced warnings: %v", cmp.Warnings)
	}
}

func TestCompareFlagsRegressions(t *testing.T) {
	base, cur := reportPair()
	cur.Latency.P99Millis = 12.5 // +25% and > grace ⇒ regression
	cur.ThroughputRPS = 80       // −20% ⇒ regression
	cur.ErrorRate = 0.05         // from zero ⇒ regression
	cmp := Compare(base, cur, 0.10)
	want := map[string]bool{"latency.p99_ms": true, "throughput_rps": true, "error_rate": true}
	got := map[string]bool{}
	for _, d := range cmp.Regressions() {
		got[d.Metric] = true
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("regressions = %v, want %v", got, want)
	}
	if !strings.Contains(cmp.Format(), "REGRESSION") {
		t.Error("Format output missing REGRESSION marker")
	}
}

// TestCompareGrace checks the noise guards: a large relative move of a
// tiny latency stays inside the absolute grace, a hit-ratio drop never
// gates, max never gates, and tail percentiles without enough samples
// beyond them (p99.9 of a 200-request run) report Worse but don't gate.
func TestCompareGrace(t *testing.T) {
	base, cur := reportPair()
	base.Latency.P50Millis = 0.003 // 3µs
	cur.Latency.P50Millis = 0.010  // 10µs: +233% but within 0.25ms grace
	cur.CacheHitRatio = 0.2
	cur.Latency.MaxMillis = base.Latency.MaxMillis * 10
	base.Requests, cur.Requests = 200, 200
	cur.Latency.P999Millis = base.Latency.P999Millis * 2 // 0.2 tail samples: noise
	cmp := Compare(base, cur, 0.10)
	for _, d := range cmp.Regressions() {
		switch d.Metric {
		case "latency.p50_ms", "cache_hit_ratio", "latency.max_ms", "latency.p999_ms":
			t.Errorf("%s should not gate (delta %+.1f%%)", d.Metric, d.DeltaPct)
		}
	}
}

// TestCompareTailGuardIgnoresRejected: rejected requests never record a
// latency sample, so they must not count toward the tail-sample guard — an
// overload run with thousands of 429s and a handful of timed requests has
// no p99 signal to gate on.
func TestCompareTailGuardIgnoresRejected(t *testing.T) {
	base, cur := reportPair()
	base.Requests, cur.Requests = 10_200, 10_200
	base.Rejected, cur.Rejected = 10_000, 10_000 // 200 timed: 2 samples beyond p99
	cur.Latency.P99Millis = base.Latency.P99Millis * 3
	cmp := Compare(base, cur, 0.10)
	for _, d := range cmp.Regressions() {
		if d.Metric == "latency.p99_ms" {
			t.Errorf("p99 gated on %d timed requests (the rest were rejections)", 200)
		}
	}
}

func TestCompareWarnsOnScheduleMismatch(t *testing.T) {
	base, cur := reportPair()
	cur.ScheduleSHA256 = "different"
	cmp := Compare(base, cur, 0.10)
	if len(cmp.Warnings) == 0 {
		t.Fatal("schedule mismatch produced no warning")
	}
}

func TestReadReportRejectsSchemaMismatch(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "old.json")
	var buf bytes.Buffer
	rep := &Report{SchemaVersion: SchemaVersion + 1}
	if err := rep.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadReport(path); err == nil {
		t.Fatal("schema mismatch accepted")
	}
}

// TestCommittedBaselineSchedule pins the workload behind the committed
// baseline that bench-smoke gates against: the report's config must still
// generate the schedule it was measured on. Compare only warns on a
// schedule mismatch, so without this a generator drift would silently
// gate every run against a different workload.
func TestCommittedBaselineSchedule(t *testing.T) {
	rep, err := ReadReport("../../BENCH_loadbench.json")
	if err != nil {
		t.Fatal(err)
	}
	sched, err := GenerateSchedule(rep.Config.Config)
	if err != nil {
		t.Fatal(err)
	}
	if sched.Hash != rep.ScheduleSHA256 {
		t.Fatalf("baseline config generates schedule %s, but the baseline was measured on %s", sched.Hash, rep.ScheduleSHA256)
	}
	if got, want := int64(len(sched.Requests)), rep.WarmupRequests+rep.Requests; got != want {
		t.Fatalf("schedule has %d requests, the baseline replayed %d", got, want)
	}
}

// TestNewHTTPTargetShape: the HTTP target constructor normalizes its base
// URL and yields a usable client.
func TestNewHTTPTargetShape(t *testing.T) {
	ct := NewHTTPTarget("http://example.invalid/")
	if ct == nil || ct.Client == nil {
		t.Fatal("NewHTTPTarget returned an unusable target")
	}
}

// TestWriteJSONErrorPath: an unwritable path is an error, not a panic.
func TestWriteJSONErrorPath(t *testing.T) {
	rep, _ := reportPair()
	if err := rep.WriteJSON("/nonexistent-dir-for-test/report.json"); err == nil {
		t.Fatal("writing into a missing directory succeeded")
	}
}

// TestReportOmitsWorkersBlockWhenSingle: a single-process report carries no
// workers key and its table no "distributed:" block, so reports written
// now keep the shape of the committed schema-5 baseline.
func TestReportOmitsWorkersBlockWhenSingle(t *testing.T) {
	sched, err := GenerateSchedule(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	var rt rejectingTarget
	res, err := Run(context.Background(), sched, RunOptions{Target: &rt})
	if err != nil {
		t.Fatal(err)
	}
	rep := BuildReport(sched.Config, "in-process", res, time.Time{})
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), `"workers"`) {
		t.Fatal("single-process report contains a workers block")
	}
	if strings.Contains(rep.Table(), "distributed:") {
		t.Fatal("single-process table contains a distributed block")
	}
}

// TestMergedPercentilesMatchSingleProcess: a run records every timed
// request once into its kind's histogram and once into the overall one, so
// merging the per-kind histograms must reproduce the overall histogram —
// the same count, sum, extremes and every percentile. The report's
// endpoint rows and its headline row then describe the same samples.
func TestMergedPercentilesMatchSingleProcess(t *testing.T) {
	sched, err := GenerateSchedule(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	target, srv := NewInProcessTarget(server.Options{})
	defer srv.Close()
	res, err := Run(context.Background(), sched, RunOptions{Target: target})
	if err != nil {
		t.Fatal(err)
	}

	merged := hdr.New()
	timedKinds := 0
	for _, ks := range res.ByKind {
		if ks.Latency.Count() > 0 {
			timedKinds++
		}
		merged.Merge(ks.Latency)
	}
	if timedKinds < 2 {
		t.Fatalf("only %d kinds recorded latencies; the check needs at least two", timedKinds)
	}
	overall := res.Overall.Latency
	if merged.Count() != overall.Count() || merged.Sum() != overall.Sum() ||
		merged.Min() != overall.Min() || merged.Max() != overall.Max() {
		t.Fatalf("merged per-kind histograms differ from the overall one: count %d/%d sum %d/%d min %d/%d max %d/%d",
			merged.Count(), overall.Count(), merged.Sum(), overall.Sum(),
			merged.Min(), overall.Min(), merged.Max(), overall.Max())
	}
	for i := 0; i <= 1000; i++ {
		q := float64(i) / 1000
		if a, b := merged.Quantile(q), overall.Quantile(q); a != b {
			t.Fatalf("merged p%g = %d, overall = %d", q*100, a, b)
		}
	}
}
