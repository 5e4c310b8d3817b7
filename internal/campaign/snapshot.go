package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"time"
)

// snapshotSchemaVersion identifies the compaction record layout; replay
// refuses mismatched records rather than guessing at field semantics.
const snapshotSchemaVersion = 1

// snapshotFile is the payload of a WAL compaction record: the whole
// campaign table.
type snapshotFile struct {
	SchemaVersion int                `json:"schema_version"`
	TakenAt       string             `json:"taken_at,omitempty"`
	NextSeq       int64              `json:"next_seq"`
	Campaigns     []campaignSnapshot `json:"campaigns"`
}

// campaignSnapshot stores one campaign as (original request, dynamic
// state). Policies are deliberately NOT stored: replay re-solves the
// request through the engine, which is deterministic — the rebuilt
// campaign quotes bit-identical prices — and keeps records small (a
// paper-scale deadline artifact is ~45 KB; its request is ~1 KB).
type campaignSnapshot struct {
	ID       string           `json:"id"`
	Kind     string           `json:"kind"`
	Request  json.RawMessage  `json:"request"`
	Adaptive *AdaptiveOptions `json:"adaptive,omitempty"`

	Remaining []int `json:"remaining"`
	Interval  int   `json:"interval"`
	// Observed is the trailing window of per-interval arrivals (adaptive
	// campaigns only, at most the adaptive window length — all the
	// estimator ever reads); ObservedTotal is the running sum across the
	// whole campaign.
	Observed        []float64 `json:"observed,omitempty"`
	ObservedTotal   float64   `json:"observed_arrivals_total"`
	ActiveIdx       int       `json:"active_factor_index"`
	Factor          float64   `json:"factor"`
	Replans         int64     `json:"replans"`
	CreatedUnixNano int64     `json:"created_unix_nano"`
	TouchedUnixNano int64     `json:"last_touched_unix_nano"`
	// LastLSN is the event-log high-water mark folded into this entry.
	// ReplayWAL skips events at or below it.
	LastLSN uint64 `json:"last_lsn,omitempty"`
}

// snapshotPayload renders the compaction record (the log's SnapshotFn):
// each campaign's original request plus its dynamic state, as indented
// JSON. Safe to call while campaigns are being observed and quoted — each
// campaign is serialized under its own lock.
func (m *Manager) snapshotPayload() ([]byte, error) {
	m.mu.RLock()
	live := make([]*campaign, 0, len(m.campaigns))
	for _, c := range m.campaigns {
		live = append(live, c)
	}
	seq := m.seq.Load()
	m.mu.RUnlock()
	// The campaign table is a map; sort by ID so identical state renders
	// identical bytes (records are diffed and fingerprinted).
	sort.Slice(live, func(i, j int) bool { return live[i].id < live[j].id })

	file := snapshotFile{
		SchemaVersion: snapshotSchemaVersion,
		TakenAt:       m.opts.now().UTC().Format(time.RFC3339),
		NextSeq:       seq,
		Campaigns:     make([]campaignSnapshot, 0, len(live)),
	}
	for _, c := range live {
		c.mu.Lock()
		cs := campaignSnapshot{
			ID:              c.id,
			Kind:            c.kind,
			Request:         append(json.RawMessage(nil), c.request...),
			Remaining:       append([]int(nil), c.remaining...),
			Interval:        c.interval,
			Observed:        append([]float64(nil), c.observed...),
			ObservedTotal:   c.observedTotal,
			ActiveIdx:       c.activeIdx,
			Factor:          c.factor,
			Replans:         c.replans,
			CreatedUnixNano: c.created.UnixNano(),
			TouchedUnixNano: c.lastTouched.UnixNano(),
			LastLSN:         c.lastLSN,
		}
		if c.adaptive() {
			cs.Adaptive = &AdaptiveOptions{
				Factors:         append([]float64(nil), c.factors...),
				WindowIntervals: c.window,
			}
		}
		c.mu.Unlock()
		file.Campaigns = append(file.Campaigns, cs)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(file); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// restore applies a snapshot entry's recorded state to c, which newCampaign
// built from the same entry's request, checking its shape against the
// fresh policy rather than trusting the log.
func (c *campaign) restore(cs *campaignSnapshot) error {
	if len(cs.Remaining) != len(c.remaining) {
		return fmt.Errorf("%d remaining counts for %d task types", len(cs.Remaining), len(c.remaining))
	}
	for i, n := range cs.Remaining {
		if n < 0 || n > c.remaining[i] {
			return fmt.Errorf("remaining[%d]=%d outside [0, %d]", i, n, c.remaining[i])
		}
	}
	if cs.Interval < 0 || len(cs.Observed) > cs.Interval {
		return fmt.Errorf("%d observed-window entries recorded for interval %d", len(cs.Observed), cs.Interval)
	}
	if cs.ObservedTotal < 0 || cs.ObservedTotal != cs.ObservedTotal {
		return fmt.Errorf("invalid observed arrivals total %v", cs.ObservedTotal)
	}
	c.remaining = append([]int(nil), cs.Remaining...)
	c.interval = cs.Interval
	c.observed = append([]float64(nil), cs.Observed...)
	c.observedTotal = cs.ObservedTotal
	c.factor = cs.Factor
	if c.adaptive() {
		if cs.ActiveIdx < 0 || cs.ActiveIdx >= len(c.bank) {
			return fmt.Errorf("active factor index %d outside the %d-policy bank", cs.ActiveIdx, len(c.bank))
		}
		if len(cs.Observed) > c.window {
			return fmt.Errorf("observed window has %d entries, adaptive window is %d", len(cs.Observed), c.window)
		}
		c.activeIdx = cs.ActiveIdx
	}
	c.replans = cs.Replans
	return nil
}
