package server

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"crowdpricing/internal/kinds"
	"crowdpricing/internal/wal"
)

// scrapeMetrics drives one solve and one client error through a fresh
// server, then fetches and returns the /metrics body.
func scrapeMetrics(t *testing.T) string {
	t.Helper()
	_, ts := newTestServer(t, Options{})
	client := NewClient(ts.URL)
	if _, err := client.Solve(context.Background(), kinds.KindBudget, testBudgetRequest()); err != nil {
		t.Fatal(err)
	}
	// One 400 so the error counter is non-zero.
	res, err := http.Post(ts.URL+"/v1/solve/budget", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, res.Body)
	res.Body.Close()

	res, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

var metricNameRE = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

// family strips the histogram series suffixes so `_bucket`/`_sum`/`_count`
// samples resolve to their declared metric family.
func family(name string, histograms map[string]bool) string {
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suffix)
		if base != name && histograms[base] {
			return base
		}
	}
	return name
}

// TestMetricsPrometheusConventions verifies the exposition format against
// the Prometheus naming rules the satellite task calls out: every sample
// preceded by HELP and TYPE for its family, counters suffixed `_total`,
// gauges not, histograms in base units with an explicit unit suffix, names
// lowercase with the application prefix.
func TestMetricsPrometheusConventions(t *testing.T) {
	body := scrapeMetrics(t)
	types := validateMetricsConventions(t, body)
	for _, want := range []string{
		"crowdpricing_requests_total",
		"crowdpricing_errors_total",
		"crowdpricing_cache_entries",
		"crowdpricing_request_duration_seconds",
		"crowdpricing_solves_total",
		"crowdpricing_rejections_total",
		"crowdpricing_queue_depth",
		"crowdpricing_inflight_solves",
		"crowdpricing_quoter_interned",
		"crowdpricing_quoter_resident_bytes",
		"crowdpricing_quoter_intern_hits_total",
		"crowdpricing_quoter_intern_misses_total",
		"crowdpricing_stage_duration_seconds",
		"crowdpricing_lambda_hat",
		"crowdpricing_lambda_hat_lifetime",
		"crowdpricing_cohort_campaigns_total",
		"crowdpricing_cohort_observes_total",
		"crowdpricing_cohort_arrivals_total",
		"crowdpricing_cohort_completions_total",
		"crowdpricing_cohort_quotes_total",
		"crowdpricing_cohort_finished_total",
		"crowdpricing_cohort_expired_total",
	} {
		if _, ok := types[want]; !ok {
			t.Errorf("expected metric family %q absent from /metrics", want)
		}
	}
	// A daemon running without durability must not expose always-zero
	// event-log series.
	if strings.Contains(body, "crowdpricing_wal_") {
		t.Error("wal metric families rendered with no log attached")
	}
}

// validateMetricsConventions parses one /metrics body against the
// Prometheus exposition rules and returns the family → TYPE map.
func validateMetricsConventions(t *testing.T, body string) map[string]string {
	t.Helper()
	types := map[string]string{} // family -> TYPE
	helps := map[string]bool{}
	histograms := map[string]bool{}

	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			parts := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			if len(parts) != 2 || strings.TrimSpace(parts[1]) == "" {
				t.Errorf("HELP line without help text: %q", line)
			}
			helps[parts[0]] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(parts) != 2 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			name, typ := parts[0], parts[1]
			if _, dup := types[name]; dup {
				t.Errorf("duplicate TYPE declaration for %s", name)
			}
			types[name] = typ
			if typ == "histogram" {
				histograms[name] = true
			}
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		// Sample line: name{labels} value  |  name value
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		fam := family(name, histograms)
		if !metricNameRE.MatchString(name) {
			t.Errorf("metric name %q violates naming charset", name)
		}
		if !strings.HasPrefix(fam, "crowdpricing_") {
			t.Errorf("metric %q lacks the application prefix", fam)
		}
		typ, ok := types[fam]
		if !ok {
			t.Errorf("sample %q has no preceding TYPE declaration", name)
			continue
		}
		if !helps[fam] {
			t.Errorf("sample %q has no preceding HELP declaration", name)
		}
		switch typ {
		case "counter":
			if !strings.HasSuffix(fam, "_total") {
				t.Errorf("counter %q missing the _total suffix", fam)
			}
		case "gauge":
			if strings.HasSuffix(fam, "_total") {
				t.Errorf("gauge %q must not carry the _total suffix", fam)
			}
		case "histogram":
			if !strings.HasSuffix(fam, "_seconds") {
				t.Errorf("duration histogram %q should use the base unit suffix _seconds", fam)
			}
		default:
			t.Errorf("metric %q has unexpected type %q", fam, typ)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return types
}

// familyName is a snake_case family name in the crowdpricing_ namespace:
// lowercase letters and digits in words joined by single underscores.
var familyName = regexp.MustCompile(`^crowdpricing_[a-z0-9]+(_[a-z0-9]+)*$`)

// familyLabels is the closed label set of the families table, "" being an
// unlabelled family. Each key is bounded by construction: kinds are
// registered, endpoints are routes, stages are a compiled enum and cohorts
// are kind × adaptive. Growing the set is a deliberate act, with review of
// the cardinality.
var familyLabels = []string{"", "kind", "endpoint", "stage", "cohort"}

// familyProblems lists the Prometheus rules one row of the families table
// breaks.
func familyProblems(m metric) []string {
	var out []string
	if !familyName.MatchString(m.name) {
		out = append(out, "name is not snake_case in the crowdpricing_ namespace")
	}
	switch m.typ {
	case "counter", "gauge", "histogram":
	default:
		out = append(out, fmt.Sprintf("type %q is not counter, gauge or histogram", m.typ))
	}
	if (m.typ == "counter") != strings.HasSuffix(m.name, "_total") {
		out = append(out, "_total ends a counter's name and no other's")
	}
	if m.typ == "histogram" {
		if !strings.HasSuffix(m.name, "_seconds") {
			out = append(out, "a histogram's name ends in _seconds")
		}
		// writeFamily would render an unlabelled histogram's buckets as
		// {,le=…}.
		if m.label == "" {
			out = append(out, "a histogram needs a label")
		}
		if len(m.buckets) == 0 {
			out = append(out, "a histogram needs buckets")
		}
		for i := 1; i < len(m.buckets); i++ {
			if m.buckets[i] <= m.buckets[i-1] {
				out = append(out, fmt.Sprintf("bucket %g does not rise above %g", m.buckets[i], m.buckets[i-1]))
			}
		}
	}
	if strings.TrimSpace(m.help) == "" || !strings.HasSuffix(m.help, ".") {
		out = append(out, "HELP is not a sentence ending in a period")
	}
	if !slices.Contains(familyLabels, m.label) {
		out = append(out, fmt.Sprintf("label %q is not in the closed set %q", m.label, familyLabels[1:]))
	}
	return out
}

// TestMetricFamilies checks the Prometheus naming rules on the families
// table, the one declaration of every /metrics family: unique snake_case
// crowdpricing_ names; a counter, gauge or histogram type; _total on
// counters only; histograms in seconds, labelled, with strictly ascending
// buckets; a HELP sentence ending in a period; and a label from the closed
// set. It also requires each rule to catch a row that breaks only it.
func TestMetricFamilies(t *testing.T) {
	seen := make(map[string]bool, len(families))
	for _, m := range families {
		if seen[m.name] {
			t.Errorf("%s: declared twice", m.name)
		}
		seen[m.name] = true
		for _, p := range familyProblems(m) {
			t.Errorf("%s: %s", m.name, p)
		}
	}

	ascending := []float64{0.001, 0.01}
	for _, bad := range []metric{
		{name: "crowdpricing_Requests_total", typ: "counter", help: "Requests."},
		{name: "crowdpricing__requests_total", typ: "counter", help: "Requests."},
		{name: "requests_total", typ: "counter", help: "Requests."},
		{name: "crowdpricing_requests", typ: "summary", help: "Requests."},
		{name: "crowdpricing_requests", typ: "counter", help: "Requests."},
		{name: "crowdpricing_entries_total", typ: "gauge", help: "Entries."},
		{name: "crowdpricing_wait", typ: "histogram", help: "Wait.", label: "stage", buckets: ascending},
		{name: "crowdpricing_wait_seconds", typ: "histogram", help: "Wait.", buckets: ascending},
		{name: "crowdpricing_wait_seconds", typ: "histogram", help: "Wait.", label: "stage"},
		{name: "crowdpricing_wait_seconds", typ: "histogram", help: "Wait.", label: "stage", buckets: []float64{0.01, 0.01}},
		{name: "crowdpricing_wait_seconds", typ: "histogram", help: "Wait.", label: "stage", buckets: []float64{0.01, 0.001}},
		{name: "crowdpricing_entries", typ: "gauge", help: "Entries"},
		{name: "crowdpricing_entries", typ: "gauge", help: " "},
		{name: "crowdpricing_requests_total", typ: "counter", help: "Requests.", label: "tenant"},
		{name: "crowdpricing_requests_total", typ: "counter", help: "Requests.", label: "le"},
	} {
		if got := familyProblems(bad); len(got) != 1 {
			t.Errorf("row %s %s help %q label %q buckets %v: problems %q, want exactly one", bad.name, bad.typ, bad.help, bad.label, bad.buckets, got)
		}
	}
}

// TestWALMetricsExposition attaches a campaign event log and checks its
// families appear on /metrics, carry real values, and pass the same
// Prometheus conventions as every other family.
func TestWALMetricsExposition(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	wlog, err := s.Campaigns().OpenWAL("wal", wal.Options{FS: wal.NewMemFS(), SyncInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { wlog.Close() })
	wlog.SetReplayDuration(125 * time.Millisecond)
	s.AttachWAL(wlog)

	client := NewClient(ts.URL)
	ctx := context.Background()
	st, err := client.CreateCampaign(ctx, kinds.KindDeadline, campaignDeadlineRequest(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.ObserveCampaign(ctx, st.ID, 5, []int{1}); err != nil {
		t.Fatal(err)
	}
	if err := wlog.Sync(); err != nil {
		t.Fatal(err)
	}

	res, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	raw, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)

	types := validateMetricsConventions(t, body)
	for family, typ := range map[string]string{
		"crowdpricing_wal_appends_total":                     "counter",
		"crowdpricing_wal_fsyncs_total":                      "counter",
		"crowdpricing_wal_bytes_total":                       "counter",
		"crowdpricing_wal_compactions_total":                 "counter",
		"crowdpricing_wal_segments":                          "gauge",
		"crowdpricing_wal_replay_seconds":                    "gauge",
		"crowdpricing_wal_last_compaction_timestamp_seconds": "gauge",
	} {
		if got := types[family]; got != typ {
			t.Errorf("family %s has type %q, want %q", family, got, typ)
		}
	}
	// The create and the observe were appended and group committed.
	if !strings.Contains(body, "crowdpricing_wal_appends_total 2") {
		t.Error("wal append counter did not count the create and observe events")
	}
	for _, positive := range []string{"crowdpricing_wal_fsyncs_total", "crowdpricing_wal_bytes_total", "crowdpricing_wal_segments"} {
		re := regexp.MustCompile(`(?m)^` + positive + ` ([0-9]+)$`)
		m := re.FindStringSubmatch(body)
		if m == nil {
			t.Errorf("family %s has no sample line", positive)
			continue
		}
		if n, _ := strconv.ParseInt(m[1], 10, 64); n <= 0 {
			t.Errorf("%s = %s, want > 0", positive, m[1])
		}
	}
	if !strings.Contains(body, "crowdpricing_wal_replay_seconds 0.125") {
		t.Error("replay-duration gauge does not carry the recorded value")
	}
}

// TestKindLabeledCounters verifies the per-kind scheduler counters: every
// registered kind appears as a series on both families (zero until
// touched), and the solve driven by scrapeMetrics lands on its kind.
func TestKindLabeledCounters(t *testing.T) {
	body := scrapeMetrics(t)
	for _, family := range []string{"crowdpricing_solves_total", "crowdpricing_rejections_total"} {
		for _, kind := range []string{"deadline", "budget", "tradeoff", "multi"} {
			series := fmt.Sprintf("%s{kind=%q}", family, kind)
			if !strings.Contains(body, series) {
				t.Errorf("metrics output missing series %s", series)
			}
		}
	}
	if !strings.Contains(body, `crowdpricing_solves_total{kind="budget"} 1`) {
		t.Error("budget solve not counted on its kind label")
	}
	if !strings.Contains(body, `crowdpricing_rejections_total{kind="budget"} 0`) {
		t.Error("untouched rejection counter missing its zero series")
	}
}

// TestLatencyHistogramExposition checks the histogram series semantics:
// buckets are cumulative and monotone in le, the +Inf bucket equals
// _count, and the endpoint that served a request has a non-zero count.
func TestLatencyHistogramExposition(t *testing.T) {
	body := scrapeMetrics(t)
	const name = "crowdpricing_request_duration_seconds"
	bucketRE := regexp.MustCompile(name + `_bucket\{endpoint="([^"]+)",le="([^"]+)"\} (\d+)`)
	countRE := regexp.MustCompile(name + `_count\{endpoint="([^"]+)"\} (\d+)`)
	sumRE := regexp.MustCompile(name + `_sum\{endpoint="([^"]+)"\} ([0-9.e+-]+)`)

	counts := map[string]int64{}
	for _, m := range countRE.FindAllStringSubmatch(body, -1) {
		n, _ := strconv.ParseInt(m[2], 10, 64)
		counts[m[1]] = n
	}
	sums := map[string]float64{}
	for _, m := range sumRE.FindAllStringSubmatch(body, -1) {
		v, _ := strconv.ParseFloat(m[2], 64)
		sums[m[1]] = v
	}
	lastPerEndpoint := map[string]int64{}
	infPerEndpoint := map[string]int64{}
	for _, m := range bucketRE.FindAllStringSubmatch(body, -1) {
		endpoint, le := m[1], m[2]
		n, _ := strconv.ParseInt(m[3], 10, 64)
		if n < lastPerEndpoint[endpoint] {
			t.Errorf("endpoint %s: bucket le=%s count %d below a smaller bound's count %d (not cumulative)",
				endpoint, le, n, lastPerEndpoint[endpoint])
		}
		lastPerEndpoint[endpoint] = n
		if le == "+Inf" {
			infPerEndpoint[endpoint] = n
		}
	}
	if len(counts) == 0 {
		t.Fatal("no histogram _count series found")
	}
	for endpoint, want := range counts {
		if got, ok := infPerEndpoint[endpoint]; !ok || got != want {
			t.Errorf("endpoint %s: +Inf bucket %d != _count %d", endpoint, got, want)
		}
	}
	// The solve and the bad request both hit /v1/solve/budget.
	if counts["/v1/solve/budget"] < 2 {
		t.Errorf("budget endpoint histogram count = %d, want ≥ 2", counts["/v1/solve/budget"])
	}
	if sums["/v1/solve/budget"] <= 0 {
		t.Errorf("budget endpoint histogram sum = %v, want > 0", sums["/v1/solve/budget"])
	}
	// /metrics itself is instrumented; the scrape we parsed was its first
	// request, so its own count may still be zero — just require the series
	// to exist.
	if _, ok := counts["/metrics"]; !ok {
		t.Error("/metrics endpoint missing from the histogram")
	}
}
