// Package server is golden input for the metriclint analyzer: the module
// path claims crowdpricing/internal/server, the metrics-rendering
// package.
package server

import "fmt"

type row struct {
	name, typ, help string
	value           int64
}

var goodRows = []row{
	{"crowdpricing_requests_total", "counter", "HTTP requests accepted.", 1},
	{"crowdpricing_queue_depth", "gauge", "Solves waiting for a worker.", 2},
	{name: "crowdpricing_cache_hits_total", typ: "counter", help: "Policy cache hits.", value: 3},
}

var badRows = []row{
	{"crowdpricing_cache_hits", "counter", "Policy cache hits.", 1},          // want `counter "crowdpricing_cache_hits" must end in _total`
	{"crowdpricing_uptime_seconds_total", "gauge", "Process uptime.", 2},     // want `gauge "crowdpricing_uptime_seconds_total" must not end in _total`
	{"crowdpricing_solves_total", "count", "Solves completed.", 3},           // want `unknown metric type "count"`
	{"crowdpricing_errors_total", "counter", "errors without a period", 4},   // want `needs a non-empty HELP sentence ending in a period`
	{name: "crowdpricing_rejects", typ: "counter", help: "Sheds.", value: 5}, // want `counter "crowdpricing_rejects" must end in _total`
}

const badName = "crowdpricing_Queue_Depth" // want `metric name "crowdpricing_Queue_Depth" is not snake_case`

const doubledUnderscore = "crowdpricing__depth" // want `not snake_case`

const goodFormat = "crowdpricing_solve_latency_bucket{endpoint=%q,le=%q} %d\n"

const badLabel = "crowdpricing_requests_total{shard=%q} %d\n" // want `label "shard" is not in the closed label set`

// The observability labels are in the closed set; any other newcomer
// still fails.
const goodStageFormat = "crowdpricing_stage_duration_seconds_bucket{stage=%q,le=%q} %d\n"

const goodCohortFormat = "crowdpricing_cohort_quotes_total{cohort=%q} %d\n"

const badTenantLabel = "crowdpricing_cohort_quotes_total{tenant=%q} %d\n" // want `label "tenant" is not in the closed label set`

// A row that declares its label key in a field, not a format string,
// draws from the same closed set.
type labelledRow struct {
	name, typ, help, label string
}

var goodLabelledRow = labelledRow{name: "crowdpricing_solves_total", typ: "counter", help: "Solves by problem kind.", label: "kind"}

var badLabelledRow = labelledRow{name: "crowdpricing_quotes_total", typ: "counter", help: "Quotes by tenant.", label: "tenant"} // want `label "tenant" is not in the closed label set`

func writeKindCounter(name, help string, v int64) string {
	return fmt.Sprintf("%s{kind=%q} %d\n", name, "deadline", v)
}

func render() string {
	out := writeKindCounter("crowdpricing_kind_requests_total", "Requests by problem kind.", 1)
	out += writeKindCounter("crowdpricing_kind_hits", "Cache hits by problem kind.", 2)           // want `counter "crowdpricing_kind_hits" must end in _total`
	out += writeKindCounter("crowdpricing_kind_errors_total", "errors by kind without period", 3) // want `needs a non-empty HELP sentence ending in a period`
	return out
}
