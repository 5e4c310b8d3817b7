package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"crowdpricing/internal/hdr"
	"crowdpricing/internal/server"
	"crowdpricing/internal/telemetry"
)

// SchemaVersion identifies the BENCH_loadbench.json layout; bump it on any
// incompatible change so compare can refuse mismatched baselines.
//
// v2: Mix became a map keyed by registry kind name, and 429 backpressure
// rejections moved out of the error totals into their own rejected /
// rejected_rate bucket (overall and per endpoint) so gates don't flap
// under intentional shedding.
//
// v3: the config gained scenario / campaign_steps / campaign_adaptive for
// the stateful campaign workload; on the campaign scenario a "request" is
// one whole session (create → observe/quote steps → finish) and its
// latency is the session wall time, so v2 latency baselines are not
// comparable.
//
// v4: distributed runs — the report gained an optional `workers` block (one
// entry per worker process of a coordinator/worker run). Single-process
// reports never carried it and were otherwise identical to v3. The block
// was later removed with the coordinator/worker mode, without a version
// bump, because no single-process report changes.
//
// v5: the report gains an optional `server_stages` block — the daemon's
// server-side per-stage latency summaries (decode, engine queue, solve,
// quoter decode, campaign lock, WAL append) fetched from /v1/analytics
// after the run when the target is a live daemon (-url). In-process runs
// and daemons without tracing carry no block; every client-side metric is
// unchanged from v4.
const SchemaVersion = 5

// LatencySummary is the percentile digest of one latency histogram, in
// milliseconds. Successful requests only — errors are counted, not timed.
type LatencySummary struct {
	P50Millis  float64 `json:"p50_ms"`
	P90Millis  float64 `json:"p90_ms"`
	P95Millis  float64 `json:"p95_ms"`
	P99Millis  float64 `json:"p99_ms"`
	P999Millis float64 `json:"p999_ms"`
	MaxMillis  float64 `json:"max_ms"`
	MeanMillis float64 `json:"mean_ms"`
}

func summarize(h *hdr.Histogram) LatencySummary {
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	return LatencySummary{
		P50Millis:  ms(h.Quantile(0.50)),
		P90Millis:  ms(h.Quantile(0.90)),
		P95Millis:  ms(h.Quantile(0.95)),
		P99Millis:  ms(h.Quantile(0.99)),
		P999Millis: ms(h.Quantile(0.999)),
		MaxMillis:  ms(h.Max()),
		MeanMillis: h.Mean() / 1e6,
	}
}

// EndpointReport is the per-kind slice of the run.
type EndpointReport struct {
	Requests  int64   `json:"requests"`
	Errors    int64   `json:"errors"`
	ErrorRate float64 `json:"error_rate"`
	// Rejected counts 429 backpressure shedding — intentional, disjoint
	// from Errors.
	Rejected      int64          `json:"rejected"`
	RejectedRate  float64        `json:"rejected_rate"`
	CacheHits     int64          `json:"cache_hits"`
	CacheHitRatio float64        `json:"cache_hit_ratio"`
	Latency       LatencySummary `json:"latency"`
}

func endpointReport(ks *KindStats) EndpointReport {
	rep := EndpointReport{
		Requests:  ks.Requests,
		Errors:    ks.Errors,
		Rejected:  ks.Rejected,
		CacheHits: ks.CacheHits,
		Latency:   summarize(ks.Latency),
	}
	if ks.Requests > 0 {
		rep.ErrorRate = float64(ks.Errors) / float64(ks.Requests)
		rep.RejectedRate = float64(ks.Rejected) / float64(ks.Requests)
	}
	if ok := ks.Requests - ks.Errors - ks.Rejected; ok > 0 {
		rep.CacheHitRatio = float64(ks.CacheHits) / float64(ok)
	}
	return rep
}

// Environment records where the numbers were taken; comparisons across
// differing environments are apples-to-oranges and compare warns on them.
type Environment struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Timestamp  string `json:"timestamp,omitempty"`
}

func captureEnvironment(now time.Time) Environment {
	env := Environment{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	if !now.IsZero() {
		env.Timestamp = now.UTC().Format(time.RFC3339)
	}
	return env
}

// ReportConfig echoes the workload configuration plus the target it ran
// against.
type ReportConfig struct {
	Config
	// Target is "in-process" or the daemon URL.
	Target string `json:"target"`
}

// Report is the machine-readable benchmark artifact (BENCH_loadbench.json).
type Report struct {
	SchemaVersion  int          `json:"schema_version"`
	Config         ReportConfig `json:"config"`
	Environment    Environment  `json:"environment"`
	ScheduleSHA256 string       `json:"schedule_sha256"`

	// Totals over the measurement window (warmup excluded).
	DurationSeconds float64 `json:"duration_seconds"`
	WarmupRequests  int64   `json:"warmup_requests"`
	Requests        int64   `json:"requests"`
	Errors          int64   `json:"errors"`
	ErrorRate       float64 `json:"error_rate"`
	// Rejected counts 429 backpressure shedding (the daemon's admission
	// queue was full) — intentional behavior under overload, reported
	// separately from Errors so error-rate gates don't flap.
	Rejected      int64   `json:"rejected"`
	RejectedRate  float64 `json:"rejected_rate"`
	CacheHits     int64   `json:"cache_hits"`
	CacheHitRatio float64 `json:"cache_hit_ratio"`
	ThroughputRPS float64 `json:"throughput_rps"`

	Latency   LatencySummary            `json:"latency"`
	Endpoints map[string]EndpointReport `json:"endpoints"`

	// ServerStages is present when the target was a live daemon (-url)
	// with tracing on: the daemon's per-stage latency summaries from
	// /v1/analytics, keyed by stage name — where the request time went
	// server-side, complementing the client-side latency above.
	ServerStages map[string]server.StageSummary `json:"server_stages,omitempty"`

	ErrorSamples []string `json:"error_samples,omitempty"`
}

// BuildReport digests a run into the serializable report. now stamps the
// environment (pass time.Now() from main; tests may pass the zero time for
// byte-stable output).
func BuildReport(cfg Config, target string, res *Result, now time.Time) *Report {
	rep := &Report{
		SchemaVersion:  SchemaVersion,
		Config:         ReportConfig{Config: cfg, Target: target},
		Environment:    captureEnvironment(now),
		ScheduleSHA256: res.ScheduleHash,

		DurationSeconds: res.Elapsed.Seconds(),
		WarmupRequests:  res.Warmed,
		Requests:        res.Overall.Requests,
		Errors:          res.Overall.Errors,
		Rejected:        res.Overall.Rejected,
		CacheHits:       res.Overall.CacheHits,
		Latency:         summarize(res.Overall.Latency),
		Endpoints:       make(map[string]EndpointReport, len(res.ByKind)),
		ErrorSamples:    res.ErrorSamples,
	}
	if rep.Requests > 0 {
		rep.ErrorRate = float64(rep.Errors) / float64(rep.Requests)
		rep.RejectedRate = float64(rep.Rejected) / float64(rep.Requests)
	}
	if ok := rep.Requests - rep.Errors - rep.Rejected; ok > 0 {
		rep.CacheHitRatio = float64(rep.CacheHits) / float64(ok)
	}
	if res.Elapsed > 0 {
		rep.ThroughputRPS = float64(rep.Requests-rep.Errors-rep.Rejected) / res.Elapsed.Seconds()
	}
	byKind := make([]string, 0, len(res.ByKind))
	for kind := range res.ByKind {
		byKind = append(byKind, kind)
	}
	sort.Strings(byKind)
	for _, kind := range byKind {
		ks := res.ByKind[kind]
		if ks.Requests == 0 {
			continue
		}
		rep.Endpoints[kind] = endpointReport(ks)
	}
	return rep
}

// WriteJSON writes the report, indented, to path.
func (r *Report) WriteJSON(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.Encode(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Encode writes the report as indented JSON.
func (r *Report) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadReport loads a report written by WriteJSON and checks its schema
// version.
func ReadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	if rep.SchemaVersion != SchemaVersion {
		// A silent miscompare across schema versions would gate CI on
		// metrics whose meaning changed; name the fix instead.
		return nil, fmt.Errorf("bench: %s has schema version %d, this binary expects %d — metrics are not comparable across versions; regenerate the baseline with this binary (the bench.SchemaVersion doc lists what changed)", path, rep.SchemaVersion, SchemaVersion)
	}
	return &rep, nil
}

// Table renders the human-readable summary the CLI prints.
func (r *Report) Table() string {
	var b strings.Builder
	scenario := string(r.Config.Scenario)
	if r.Config.Scenario == ScenarioCampaign {
		scenario = fmt.Sprintf("%s (%d steps", r.Config.Scenario, r.Config.CampaignSteps)
		if r.Config.CampaignAdaptive {
			scenario += ", adaptive"
		}
		scenario += ")"
	}
	fmt.Fprintf(&b, "target %s · scenario %s · seed %d · %s problems · mix %s · cardinality %d · shape %s\n",
		r.Config.Target, scenario, r.Config.Seed, r.Config.Size,
		formatMix(r.Config.Mix), r.Config.Cardinality, r.Config.Shape)
	fmt.Fprintf(&b, "measured %.1fs · %d requests (%d warmup excluded) · %.1f req/s · errors %d (%.2f%%) · rejected %d (%.2f%%) · cache hit %.1f%%\n",
		r.DurationSeconds, r.Requests, r.WarmupRequests, r.ThroughputRPS,
		r.Errors, 100*r.ErrorRate, r.Rejected, 100*r.RejectedRate, 100*r.CacheHitRatio)

	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "endpoint\treqs\terr\trej\thit%\tp50\tp90\tp95\tp99\tp99.9\tmax")
	row := func(name string, reqs, errs, rej int64, hitRatio float64, l LatencySummary) {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%.1f\t%s\t%s\t%s\t%s\t%s\t%s\n",
			name, reqs, errs, rej, 100*hitRatio,
			fmtMillis(l.P50Millis), fmtMillis(l.P90Millis), fmtMillis(l.P95Millis),
			fmtMillis(l.P99Millis), fmtMillis(l.P999Millis), fmtMillis(l.MaxMillis))
	}
	row("all", r.Requests, r.Errors, r.Rejected, r.CacheHitRatio, r.Latency)
	for _, kind := range Kinds {
		ep, ok := r.Endpoints[kind]
		if !ok {
			continue
		}
		row(kind, ep.Requests, ep.Errors, ep.Rejected, ep.CacheHitRatio, ep.Latency)
	}
	w.Flush()
	if len(r.ServerStages) > 0 {
		fmt.Fprintln(&b, "server stages (daemon-side, all traced requests):")
		sw := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
		fmt.Fprintln(sw, "  stage\tcount\tmean\tp50\tp99\tmax")
		for _, stage := range telemetry.StageNames() {
			ss, ok := r.ServerStages[stage]
			if !ok {
				continue
			}
			fmt.Fprintf(sw, "  %s\t%d\t%s\t%s\t%s\t%s\n", stage, ss.Count,
				fmtMillis(ss.MeanMS), fmtMillis(ss.P50MS), fmtMillis(ss.P99MS), fmtMillis(ss.MaxMS))
		}
		sw.Flush()
	}
	if len(r.ErrorSamples) > 0 {
		fmt.Fprintf(&b, "error samples:\n")
		for _, s := range r.ErrorSamples {
			fmt.Fprintf(&b, "  %s\n", s)
		}
	}
	return b.String()
}

// formatMix renders mix weights in canonical kind order, e.g.
// "deadline=5 budget=3 multi=1".
func formatMix(m Mix) string {
	parts := make([]string, 0, len(m))
	for _, kind := range Kinds {
		if w, ok := m[kind]; ok {
			parts = append(parts, fmt.Sprintf("%s=%g", kind, w))
		}
	}
	// Mix entries for kinds outside the registry order (shouldn't happen
	// post-validation, but reports may be replayed across versions).
	extra := make([]string, 0)
	//crowdlint:allow determinism -- collected entries are sorted two lines down
	for kind, w := range m {
		if kindByte(kind) == 0xff {
			extra = append(extra, fmt.Sprintf("%s=%g", kind, w))
		}
	}
	sort.Strings(extra)
	return strings.Join(append(parts, extra...), " ")
}

// fmtMillis renders a millisecond value at a precision matched to its
// magnitude (3.1µs, 4.20ms, 1.3s).
func fmtMillis(ms float64) string {
	switch {
	case ms <= 0:
		return "0"
	case ms < 1:
		return fmt.Sprintf("%.1fµs", ms*1000)
	case ms < 1000:
		return fmt.Sprintf("%.2fms", ms)
	default:
		return fmt.Sprintf("%.2fs", ms/1000)
	}
}

// sortedEndpointNames returns the report's endpoint keys in canonical
// order, for deterministic iteration in compare.
func (r *Report) sortedEndpointNames() []string {
	names := make([]string, 0, len(r.Endpoints))
	for k := range r.Endpoints {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
