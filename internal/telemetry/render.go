package telemetry

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// TraceSummary is one retained trace rendered for /debug/requests: the
// JSON body is a list of these, slowest first.
type TraceSummary struct {
	// ID is the seeded-RNG trace ID, the correlation key error logs carry.
	ID string `json:"id"`
	// Route is the mux pattern the request hit.
	Route string `json:"route"`
	// Start is the request's wall-clock start.
	Start time.Time `json:"start"`
	// Status is the HTTP status the request answered with.
	Status int `json:"status"`
	// TotalMS is the full handler duration in milliseconds.
	TotalMS float64 `json:"total_ms"`
	// StagesMS maps every observed stage to its span in milliseconds; a
	// stage present with 0 was crossed but measured under a microsecond.
	StagesMS map[string]float64 `json:"stages_ms"`
	// UnattributedMS is TotalMS minus the sum of spans: encode time,
	// scheduling, and anything between instrumented stages.
	UnattributedMS float64 `json:"unattributed_ms"`
}

// Snapshot renders the retained traces of every route, slowest first. The
// traces stay retained; /debug/requests is a read, not a drain.
//
// Summaries are built while holding tr.mu: a retained *Trace is only
// immutable as long as it stays in the keep table, because a concurrent
// Finish may evict it under tr.mu and recycle it through the pool into a
// new request that rewrites its fields. Copying the fields under the same
// lock that eviction takes is what makes the read safe.
func (tr *Tracer) Snapshot() []TraceSummary {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	out := []TraceSummary{}
	for _, slow := range tr.slow {
		for _, t := range slow {
			out = append(out, t.summarize())
		}
	}
	tr.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].TotalMS != out[j].TotalMS {
			return out[i].TotalMS > out[j].TotalMS
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// summarize copies one trace into its immutable rendering. Callers must
// hold the owning Tracer's mu (see Snapshot); the returned summary shares
// no memory with the trace and stays valid after the trace is recycled.
func (t *Trace) summarize() TraceSummary {
	s := TraceSummary{
		ID:       t.ID(),
		Route:    t.route,
		Start:    t.wall,
		Status:   t.status,
		TotalMS:  float64(t.total) / 1e6,
		StagesMS: make(map[string]float64, NumStages),
	}
	seen := t.seen.Load()
	var attributed int64
	for st := Stage(0); st < NumStages; st++ {
		if seen&(1<<uint(st)) == 0 {
			continue
		}
		ns := t.spans[st].Load()
		attributed += ns
		s.StagesMS[st.String()] = float64(ns) / 1e6
	}
	if un := t.total - attributed; un > 0 {
		s.UnattributedMS = float64(un) / 1e6
	}
	return s
}

// WriteText renders summaries as the human view of /debug/requests: one
// block per trace, slowest first, spans in pipeline order.
func WriteText(w io.Writer, summaries []TraceSummary) {
	if len(summaries) == 0 {
		fmt.Fprintln(w, "no retained traces")
		return
	}
	fmt.Fprintf(w, "%d slowest recent requests\n", len(summaries))
	for i, s := range summaries {
		fmt.Fprintf(w, "\n#%d %s %s  status=%d  total=%.3fms  start=%s\n",
			i+1, s.ID, s.Route, s.Status, s.TotalMS, s.Start.Format(time.RFC3339Nano))
		for _, name := range stageNames {
			ms, ok := s.StagesMS[name]
			if !ok {
				continue
			}
			fmt.Fprintf(w, "  %-18s %10.3fms\n", name, ms)
		}
		if s.UnattributedMS > 0 {
			fmt.Fprintf(w, "  %-18s %10.3fms\n", "(unattributed)", s.UnattributedMS)
		}
	}
}
