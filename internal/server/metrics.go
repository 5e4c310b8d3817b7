package server

import (
	"fmt"
	"io"
	"maps"
	"net/http"
	"slices"
	"strconv"

	"crowdpricing/internal/analytics"
	"crowdpricing/internal/hdr"
	"crowdpricing/internal/telemetry"
	"crowdpricing/internal/wal"
)

// metric declares one /metrics family. The families table holds every
// family the daemon exposes, in exposition order, and writeFamily renders
// each row the same way; TestMetricFamilies checks each row's name, type,
// help, label and buckets.
type metric struct {
	name, typ, help string
	// label is the key of the family's one label; "" for an unlabelled
	// family. Histogram families are labelled.
	label string
	// buckets are a histogram family's `le` bounds, in seconds.
	buckets []float64
	// series reads the family's samples from one scrape. A nil result
	// leaves the family out (the event log's families without a log, the
	// stage histogram without tracing); an empty one declares it with no
	// series yet.
	series func(*scrape) []sample
}

// sample is one series of a family: its label value ("" in an unlabelled
// family) and its reading, an int64 (printed as %d), a float64 (printed
// as %g) or, in a histogram family, the *hdr.Histogram.
type sample struct {
	label string
	value any
}

// scrape is what one /metrics request reads, each source once.
type scrape struct {
	MetricsSnapshot
	srv       *Server
	wal       *wal.Metrics // nil when no log is attached
	analytics *analytics.Snapshot
	cohorts   []string // analytics.Cohorts keys, sorted
}

// latencyBuckets are the `le` bounds (seconds) of the request-duration
// histogram, spanning warm cache hits (microseconds) through paper-scale
// cold solves (seconds). Cumulative counts are resolved at the underlying
// hdr bucket granularity (≤3.1% relative error).
var latencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// stageBuckets are the `le` bounds (seconds) of the per-stage duration
// histogram. Stages run finer than whole requests — a warm quote decode
// is sub-microsecond, a WAL append tens of microseconds — so the ladder
// starts three decades below latencyBuckets.
var stageBuckets = []float64{
	0.000001, 0.0000025, 0.000005, 0.00001, 0.000025, 0.00005,
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5,
}

var families = []metric{
	{name: "crowdpricing_requests_total", typ: "counter", help: "HTTP requests accepted.",
		series: one(func(x *scrape) any { return x.Requests })},
	{name: "crowdpricing_cache_hits_total", typ: "counter", help: "Solve requests served from the warm policy cache.",
		series: one(func(x *scrape) any { return x.CacheHits })},
	{name: "crowdpricing_cache_misses_total", typ: "counter", help: "Solve requests that consulted the solver layer.",
		series: one(func(x *scrape) any { return x.CacheMisses })},
	{name: "crowdpricing_singleflight_shared_total", typ: "counter", help: "Requests deduplicated onto another request's in-flight solve.",
		series: one(func(x *scrape) any { return x.FlightShared })},
	{name: "crowdpricing_errors_total", typ: "counter", help: "Non-2xx responses.",
		series: one(func(x *scrape) any { return x.Errors })},
	{name: "crowdpricing_cache_entries", typ: "gauge", help: "Policies currently cached.",
		series: one(func(x *scrape) any { return x.CacheEntries })},
	{name: "crowdpricing_queue_depth", typ: "gauge", help: "Cold solves admitted and waiting for a worker.",
		series: one(func(x *scrape) any { return x.QueueDepth })},
	{name: "crowdpricing_inflight_solves", typ: "gauge", help: "Solves currently occupying an engine worker.",
		series: one(func(x *scrape) any { return x.InFlight })},
	{name: "crowdpricing_campaigns_active", typ: "gauge", help: "Live campaigns in the table.",
		series: one(func(x *scrape) any { return x.Campaigns.Active })},
	{name: "crowdpricing_campaign_replans_total", typ: "counter", help: "Adaptive policy switches across all campaigns.",
		series: one(func(x *scrape) any { return x.Campaigns.Replans })},
	{name: "crowdpricing_campaigns_expired_total", typ: "counter", help: "Campaigns expired by the idle TTL sweeper.",
		series: one(func(x *scrape) any { return x.Campaigns.Expired })},
	{name: "crowdpricing_quoter_interned", typ: "gauge", help: "Distinct policy tables in the campaign quoter intern table.",
		series: one(func(x *scrape) any { return x.Campaigns.QuoterInterned })},
	{name: "crowdpricing_quoter_resident_bytes", typ: "gauge", help: "Decoded policy-table bytes currently resident across interned quoters.",
		series: one(func(x *scrape) any { return x.Campaigns.QuoterResidentBytes })},
	{name: "crowdpricing_quoter_intern_hits_total", typ: "counter", help: "Campaign policy lookups served by an already-interned table.",
		series: one(func(x *scrape) any { return x.Campaigns.QuoterInternHits })},
	{name: "crowdpricing_quoter_intern_misses_total", typ: "counter", help: "Campaign policy lookups that interned a new table.",
		series: one(func(x *scrape) any { return x.Campaigns.QuoterInternMisses })},
	{name: "crowdpricing_solves_total", typ: "counter", help: "Solver executions actually performed, by problem kind.", label: "kind",
		series: func(x *scrape) []sample { return perKind(x.srv.registry.Kinds(), x.SolvesByKind) }},
	{name: "crowdpricing_rejections_total", typ: "counter", help: "Cold solves shed with 429 because the admission queue was full, by problem kind.", label: "kind",
		series: func(x *scrape) []sample { return perKind(x.srv.registry.Kinds(), x.RejectedByKind) }},
	{name: "crowdpricing_wal_appends_total", typ: "counter", help: "Records appended to the campaign event log.",
		series: fromWAL(func(m *wal.Metrics) any { return m.Appends })},
	{name: "crowdpricing_wal_fsyncs_total", typ: "counter", help: "Group-commit flushes fsynced to the event log.",
		series: fromWAL(func(m *wal.Metrics) any { return m.Fsyncs })},
	{name: "crowdpricing_wal_bytes_total", typ: "counter", help: "Framed bytes appended to the event log.",
		series: fromWAL(func(m *wal.Metrics) any { return m.Bytes })},
	{name: "crowdpricing_wal_compactions_total", typ: "counter", help: "Event-log compactions into a snapshot record.",
		series: fromWAL(func(m *wal.Metrics) any { return m.Compactions })},
	{name: "crowdpricing_wal_segments", typ: "gauge", help: "Event-log segment files currently on disk.",
		series: fromWAL(func(m *wal.Metrics) any { return m.Segments })},
	{name: "crowdpricing_wal_replay_seconds", typ: "gauge", help: "Wall time of the boot-time event-log replay.",
		series: fromWAL(func(m *wal.Metrics) any { return m.ReplaySeconds })},
	{name: "crowdpricing_wal_last_compaction_timestamp_seconds", typ: "gauge", help: "Unix time of the last event-log compaction (0 = never).",
		series: fromWAL(func(m *wal.Metrics) any { return m.LastCompactionUnixSeconds })},
	{name: "crowdpricing_lambda_hat", typ: "gauge", help: "Trailing-window mean worker arrivals per interval across all campaigns.",
		series: one(func(x *scrape) any { return x.analytics.LambdaHat })},
	{name: "crowdpricing_lambda_hat_lifetime", typ: "gauge", help: "Lifetime mean worker arrivals per interval across all campaigns.",
		series: one(func(x *scrape) any { return x.analytics.LambdaHatLifetime })},
	// Every cohort counter prints as %g, like the float arrivals sum.
	{name: "crowdpricing_cohort_campaigns_total", typ: "counter", help: "Campaigns created, by cohort (kind, with /adaptive for re-planning campaigns).", label: "cohort",
		series: perCohort(func(c analytics.CohortSnapshot) any { return float64(c.Campaigns) })},
	{name: "crowdpricing_cohort_finished_total", typ: "counter", help: "Campaigns explicitly finished, by cohort.", label: "cohort",
		series: perCohort(func(c analytics.CohortSnapshot) any { return float64(c.Finished) })},
	{name: "crowdpricing_cohort_expired_total", typ: "counter", help: "Campaigns removed by the idle-TTL sweeper, by cohort.", label: "cohort",
		series: perCohort(func(c analytics.CohortSnapshot) any { return float64(c.Expired) })},
	{name: "crowdpricing_cohort_observes_total", typ: "counter", help: "Intervals observed, by cohort.", label: "cohort",
		series: perCohort(func(c analytics.CohortSnapshot) any { return float64(c.Observes) })},
	{name: "crowdpricing_cohort_arrivals_total", typ: "counter", help: "Worker arrivals observed, by cohort.", label: "cohort",
		series: perCohort(func(c analytics.CohortSnapshot) any { return c.Arrivals })},
	{name: "crowdpricing_cohort_completions_total", typ: "counter", help: "Task completions observed, by cohort.", label: "cohort",
		series: perCohort(func(c analytics.CohortSnapshot) any { return float64(c.Completions) })},
	{name: "crowdpricing_cohort_quotes_total", typ: "counter", help: "Prices quoted, by cohort.", label: "cohort",
		series: perCohort(func(c analytics.CohortSnapshot) any { return float64(c.Quotes) })},
	{name: "crowdpricing_request_duration_seconds", typ: "histogram", help: "Wall time per HTTP request, by endpoint.", label: "endpoint",
		buckets: latencyBuckets, series: perEndpoint},
	{name: "crowdpricing_stage_duration_seconds", typ: "histogram", help: "Wall time per request-pipeline stage, across all traced requests.", label: "stage",
		buckets: stageBuckets, series: perStage},
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	x := &scrape{MetricsSnapshot: s.Metrics(), srv: s, analytics: s.analytics.Snapshot()}
	if l := s.wal.Load(); l != nil {
		wm := l.Metrics()
		x.wal = &wm
	}
	x.cohorts = slices.Sorted(maps.Keys(x.analytics.Cohorts))
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	for i := range families {
		writeFamily(w, &families[i], x)
	}
}

// writeFamily renders one family in Prometheus text format: HELP, TYPE,
// then each series — one sample line, or for a histogram its cumulative
// `_bucket` series per `le` bound plus `+Inf` and the `_sum`/`_count`
// pair, in base seconds.
func writeFamily(w io.Writer, m *metric, x *scrape) {
	samples := m.series(x)
	if samples == nil {
		return
	}
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", m.name, m.help, m.name, m.typ)
	for _, s := range samples {
		labels := ""
		if m.label != "" {
			labels = fmt.Sprintf("%s=%q", m.label, s.label)
		}
		h, ok := s.value.(*hdr.Histogram)
		if !ok {
			if labels != "" {
				labels = "{" + labels + "}"
			}
			fmt.Fprintf(w, "%s%s %v\n", m.name, labels, s.value)
			continue
		}
		// Read the total once so +Inf and _count agree even while requests
		// are recording concurrently; cap the per-bound cumulative counts
		// at it so the series stays monotone under the same races.
		total := h.Count()
		for _, le := range m.buckets {
			n := min(h.CountAtOrBelow(int64(le*1e9)), total)
			fmt.Fprintf(w, "%s_bucket{%s,le=%q} %d\n", m.name, labels, strconv.FormatFloat(le, 'g', -1, 64), n)
		}
		fmt.Fprintf(w, "%s_bucket{%s,le=\"+Inf\"} %d\n", m.name, labels, total)
		fmt.Fprintf(w, "%s_sum{%s} %g\n", m.name, labels, float64(h.Sum())/1e9)
		fmt.Fprintf(w, "%s_count{%s} %d\n", m.name, labels, total)
	}
}

// one is the series of an unlabelled family that reads one value.
func one(read func(*scrape) any) func(*scrape) []sample {
	return func(x *scrape) []sample { return []sample{{value: read(x)}} }
}

// fromWAL is one for an event-log family: absent when no log is attached,
// so a daemon running without durability exposes no always-zero series.
func fromWAL(read func(*wal.Metrics) any) func(*scrape) []sample {
	return func(x *scrape) []sample {
		if x.wal == nil {
			return nil
		}
		return []sample{{value: read(x.wal)}}
	}
}

// perKind gives every registered kind a series (zero until touched) so
// dashboards see a stable label set; kinds the engine counted that are
// absent from the registry (embedded custom specs) follow, sorted.
func perKind(known []string, byKind map[string]int64) []sample {
	out := make([]sample, 0, len(known))
	seen := make(map[string]bool, len(known))
	for _, kind := range known {
		seen[kind] = true
		out = append(out, sample{kind, byKind[kind]})
	}
	for _, kind := range slices.Sorted(maps.Keys(byKind)) {
		if !seen[kind] {
			out = append(out, sample{kind, byKind[kind]})
		}
	}
	return out
}

// perCohort is the series of a cohort family: one per cohort traffic has
// created, in sorted order; the family is declared before any exists.
func perCohort(read func(analytics.CohortSnapshot) any) func(*scrape) []sample {
	return func(x *scrape) []sample {
		out := make([]sample, 0, len(x.cohorts))
		for _, key := range x.cohorts {
			out = append(out, sample{key, read(x.analytics.Cohorts[key])})
		}
		return out
	}
}

// perEndpoint is the request-duration histogram of every route, sorted.
func perEndpoint(x *scrape) []sample {
	out := make([]sample, 0, len(x.srv.latency))
	for _, p := range slices.Sorted(maps.Keys(x.srv.latency)) {
		out = append(out, sample{p, x.srv.latency[p]})
	}
	return out
}

// perStage is the duration histogram of every pipeline stage, in pipeline
// order; absent when tracing is off (the histograms live in the tracer).
func perStage(x *scrape) []sample {
	if x.srv.tracer == nil {
		return nil
	}
	out := make([]sample, 0, telemetry.NumStages)
	for st := telemetry.Stage(0); st < telemetry.NumStages; st++ {
		out = append(out, sample{st.String(), x.srv.tracer.StageHistogram(st)})
	}
	return out
}
