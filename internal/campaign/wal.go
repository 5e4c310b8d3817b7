package campaign

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"crowdpricing/internal/telemetry"
	"crowdpricing/internal/wal"
)

// WAL record types: the campaign event schema layered on internal/wal's
// opaque (type, payload) records. Payloads are JSON (the wire format the
// requests already use); the expensive artifacts — solved policies — are
// deliberately NOT logged. A campaign's dynamic state is a pure fold over
// its create/observe events, and the engine re-solves policies
// deterministically, so replay rebuilds bit-identical quote state from
// requests alone and the log stays small.
const (
	// WALRecordCreate registers a campaign (walCreateEvent payload).
	WALRecordCreate byte = 1
	// WALRecordObserve advances one interval (walObserveEvent payload).
	WALRecordObserve byte = 2
	// WALRecordFinish removes a finished campaign (walRefEvent payload).
	WALRecordFinish byte = 3
	// WALRecordExpire removes a TTL-expired campaign (walRefEvent
	// payload) — logged so a replay cannot resurrect it.
	WALRecordExpire byte = 4
	// WALRecordSnapshot is a compaction snapshot: the whole table as
	// snapshotFile JSON, with per-campaign LSN high-water marks.
	WALRecordSnapshot byte = 5
)

// WALRecordName renders a record type for inspection tools.
func WALRecordName(t byte) string {
	switch t {
	case WALRecordCreate:
		return "create"
	case WALRecordObserve:
		return "observe"
	case WALRecordFinish:
		return "finish"
	case WALRecordExpire:
		return "expire"
	case WALRecordSnapshot:
		return "snapshot"
	}
	return fmt.Sprintf("unknown(%d)", t)
}

// walCreateEvent logs a campaign registration: everything Create needs to
// reproduce the campaign exactly, including the ID's sequence number so
// the ID allocator resumes past replayed campaigns.
type walCreateEvent struct {
	ID              string           `json:"id"`
	Seq             int64            `json:"seq"`
	Kind            string           `json:"kind"`
	Request         json.RawMessage  `json:"request"`
	Adaptive        *AdaptiveOptions `json:"adaptive,omitempty"`
	CreatedUnixNano int64            `json:"created_unix_nano"`
}

// walObserveEvent logs one observed interval.
type walObserveEvent struct {
	ID        string  `json:"id"`
	Arrivals  float64 `json:"arrivals"`
	Completed []int   `json:"completed,omitempty"`
}

// walRefEvent logs a removal (finish or expire).
type walRefEvent struct {
	ID string `json:"id"`
}

// OpenWAL opens (and crash-recovers) the campaign event log at dir with
// the campaign record schema bound: compaction snapshots are taken from
// this manager's table. Boot order is OpenWAL → ReplayWAL → AttachWAL.
func (m *Manager) OpenWAL(dir string, opts wal.Options) (*wal.Log, error) {
	opts.SnapshotType = WALRecordSnapshot
	opts.SnapshotFn = m.snapshotPayload
	return wal.Open(dir, opts)
}

// AttachWAL starts emitting events to l. Call it after ReplayWAL (replay
// must not observe its own writes) and before serving mutations.
func (m *Manager) AttachWAL(l *wal.Log) { m.wlog.Store(l) }

// walAppend emits one event (no-op without an attached log). The append
// is asynchronous — group commit makes it durable within the fsync
// window — but an error (the log is fail-stopped) is surfaced so callers
// stop acknowledging mutations that can never be made durable. The
// marshal-plus-append lands on tr's StageWALAppend span (nil records
// nothing); the fsync itself is off-path and never traced.
func (m *Manager) walAppend(tr *telemetry.Trace, typ byte, event any) (uint64, error) {
	l := m.wlog.Load()
	if l == nil {
		return 0, nil
	}
	start := tr.Now()
	body, err := json.Marshal(event)
	if err != nil {
		return 0, err
	}
	lsn, err := l.Append(typ, body)
	tr.ObserveSince(telemetry.StageWALAppend, start)
	return lsn, err
}

// WALSource is the slice of *wal.Log that ReplayWAL needs; wal.NewReader
// implements it too, so inspection tools can replay read-only.
type WALSource interface {
	Replay(fn func(wal.Record) error) error
}

// WALReplayStats summarizes one ReplayWAL.
type WALReplayStats struct {
	// Records is the number of intact log records folded; Snapshots how
	// many of them were compaction snapshots.
	Records   int64
	Snapshots int64
	// Campaigns is the number of live campaigns restored; Removed counts
	// campaigns that appeared in the log but were finished or expired
	// before its end.
	Campaigns int
	Removed   int
}

// walFold accumulates one campaign's replayed history: a base (either a
// snapshot entry or a create event) plus ordered observe events. kind,
// adaptive and interval (the intervals observed so far) label the events
// the pass streams to a sink.
type walFold struct {
	base     *campaignSnapshot
	create   *walCreateEvent
	observes []walObserveEvent
	lastLSN  uint64
	kind     string
	adaptive bool
	interval int
}

// readWAL is the one interpreter of the campaign record schema: it decodes
// each of src's records once, in log order, into the folds of the
// campaigns live at the log's end (keyed by ID), the highest ID sequence
// number recorded, and the record counts of stats. Events with LSNs at or
// below a fold's high-water mark are already folded into a snapshot entry
// and are skipped — the rule that makes compaction's physical reordering
// (snapshot record ahead of buffered older events) harmless. A malformed
// record, an unknown record type, a create without an ID or for a live
// one, and a snapshot entry without an ID or repeating one are errors.
//
// The same pass streams every applied record to sink (nil streams
// nowhere) as the lifecycle events the live Manager emits. A snapshot
// entry whose history was compacted away streams approximately: one
// create plus its recorded arrival total spread uniformly across its
// recorded interval count (exact totals, smoothed profile). Campaigns
// folded earlier but absent from a snapshot were removed in the
// compacted-away history, whose removal records are gone: they close out
// as finished, in sorted ID order, keeping the stream (and any float fold
// downstream) deterministic. Quotes are never logged, so none stream.
func readWAL(src WALSource, sink EventSink) (folds map[string]*walFold, nextSeq int64, stats *WALReplayStats, err error) {
	if sink == nil {
		sink = nopSink{}
	}
	folds = make(map[string]*walFold)
	stats = &WALReplayStats{}
	removed := make(map[string]bool)
	err = src.Replay(func(rec wal.Record) error {
		stats.Records++
		switch rec.Type {
		case WALRecordCreate:
			var ev walCreateEvent
			if err := json.Unmarshal(rec.Data, &ev); err != nil {
				return fmt.Errorf("campaign: bad create record (lsn %d): %w", rec.LSN, err)
			}
			if ev.ID == "" {
				return fmt.Errorf("campaign: create record without id (lsn %d)", rec.LSN)
			}
			if f, ok := folds[ev.ID]; ok {
				if rec.LSN <= f.lastLSN {
					return nil // folded into an earlier snapshot entry
				}
				return fmt.Errorf("campaign: duplicate create for %q (lsn %d)", ev.ID, rec.LSN)
			}
			ev.Request = append(json.RawMessage(nil), ev.Request...)
			folds[ev.ID] = &walFold{create: &ev, lastLSN: rec.LSN, kind: ev.Kind, adaptive: ev.Adaptive != nil}
			nextSeq = max(nextSeq, ev.Seq)
			sink.CampaignCreated(ev.Kind, ev.Adaptive != nil)
		case WALRecordObserve:
			var ev walObserveEvent
			if err := json.Unmarshal(rec.Data, &ev); err != nil {
				return fmt.Errorf("campaign: bad observe record (lsn %d): %w", rec.LSN, err)
			}
			f, ok := folds[ev.ID]
			if !ok || rec.LSN <= f.lastLSN {
				return nil // campaign already removed, or event pre-dates its snapshot entry
			}
			f.observes = append(f.observes, ev)
			f.lastLSN = rec.LSN
			sink.CampaignObserved(f.kind, f.adaptive, ev.Arrivals, sumCompleted(ev.Completed), f.interval)
			f.interval++
		case WALRecordFinish, WALRecordExpire:
			var ev walRefEvent
			if err := json.Unmarshal(rec.Data, &ev); err != nil {
				return fmt.Errorf("campaign: bad removal record (lsn %d): %w", rec.LSN, err)
			}
			f, ok := folds[ev.ID]
			if !ok || rec.LSN <= f.lastLSN {
				return nil
			}
			delete(folds, ev.ID)
			removed[ev.ID] = true
			if rec.Type == WALRecordFinish {
				sink.CampaignFinished(f.kind, f.adaptive)
			} else {
				sink.CampaignExpired(f.kind, f.adaptive)
			}
		case WALRecordSnapshot:
			var file snapshotFile
			if err := json.Unmarshal(rec.Data, &file); err != nil {
				return fmt.Errorf("campaign: bad snapshot record (lsn %d): %w", rec.LSN, err)
			}
			if file.SchemaVersion != snapshotSchemaVersion {
				return fmt.Errorf("campaign: snapshot record schema version %d, this binary expects %d",
					file.SchemaVersion, snapshotSchemaVersion)
			}
			stats.Snapshots++
			// A snapshot record supersedes everything before it.
			next := make(map[string]*walFold, len(file.Campaigns))
			for i := range file.Campaigns {
				cs := &file.Campaigns[i]
				if cs.ID == "" {
					return fmt.Errorf("campaign: snapshot record (lsn %d) has an entry without id", rec.LSN)
				}
				if _, dup := next[cs.ID]; dup {
					return fmt.Errorf("campaign: snapshot record (lsn %d) contains ID %q twice", rec.LSN, cs.ID)
				}
				f := &walFold{base: cs, lastLSN: cs.LastLSN, kind: cs.Kind, adaptive: cs.Adaptive != nil, interval: cs.Interval}
				next[cs.ID] = f
				if folds[cs.ID] != nil {
					continue // streamed from its own records already
				}
				sink.CampaignCreated(f.kind, f.adaptive)
				for t := 0; t < cs.Interval; t++ {
					sink.CampaignObserved(f.kind, f.adaptive, cs.ObservedTotal/float64(cs.Interval), 0, t)
				}
			}
			var gone []string
			for id := range folds {
				if next[id] == nil {
					gone = append(gone, id)
				}
			}
			sort.Strings(gone)
			for _, id := range gone {
				sink.CampaignFinished(folds[id].kind, folds[id].adaptive)
			}
			folds = next
			nextSeq = max(nextSeq, file.NextSeq)
		default:
			return fmt.Errorf("campaign: unknown record type %d (lsn %d) — log written by a newer binary?", rec.Type, rec.LSN)
		}
		return nil
	})
	stats.Removed = len(removed)
	return folds, nextSeq, stats, err
}

// nopSink is the sink of a pass nobody listens to.
type nopSink struct{}

func (nopSink) CampaignCreated(string, bool)                     {}
func (nopSink) CampaignObserved(string, bool, float64, int, int) {}
func (nopSink) CampaignQuoted(string, bool, int)                 {}
func (nopSink) CampaignFinished(string, bool)                    {}
func (nopSink) CampaignExpired(string, bool)                     {}

// ReplayWAL folds src's records into live campaigns: each campaign's
// base state (latest snapshot entry, else its create event) is rebuilt
// through the engine's deterministic re-solve and its observe events are
// re-applied through the same code path Observe uses online, so replayed
// campaigns quote bit-identical prices. The records are read in one pass
// (readWAL), which also streams the recorded history to the manager's
// attached sink: at boot that is how the analytics plane learns the
// traffic before the restart, counted once.
//
// ReplayWAL is all-or-nothing for the campaign table — a malformed
// record, an unsolvable request, or invalid state aborts with no
// campaigns inserted, so a daemon never boots with half a table — but not
// for the sink: a replay that fails after the pass has already streamed
// the log's events, so its caller must not serve on. It resumes the ID
// sequence past every replayed campaign, so new campaigns never reuse a
// replayed ID.
func (m *Manager) ReplayWAL(ctx context.Context, src WALSource) (*WALReplayStats, error) {
	folds, nextSeq, stats, err := readWAL(src, m.eventSink())
	if err != nil {
		return nil, err
	}

	ids := make([]string, 0, len(folds))
	for id := range folds {
		ids = append(ids, id)
	}
	sort.Strings(ids)

	now := m.opts.now()
	rebuilt := make([]*campaign, 0, len(ids))
	// An abort after some campaigns were rebuilt must return their intern
	// references, or the abandoned banks would pin decoded tables forever.
	committed := false
	defer func() {
		if !committed {
			for _, c := range rebuilt {
				m.releaseCampaign(c)
			}
		}
	}()
	for _, id := range ids {
		f := folds[id]
		var (
			c   *campaign
			err error
		)
		if f.base != nil {
			c, err = m.rebuild(ctx, *f.base, now)
		} else {
			// A create event rebuilds the campaign exactly as Create built
			// it; the observe events below advance it from there.
			c, _, err = m.newCampaign(ctx, f.create.Kind, f.create.Request, f.create.Adaptive)
			if err == nil {
				c.id = id
				c.created = time.Unix(0, f.create.CreatedUnixNano)
				c.lastTouched = now
			}
		}
		if err != nil {
			return nil, fmt.Errorf("campaign: replaying %q: %w", id, err)
		}
		rebuilt = append(rebuilt, c)
		c.mu.Lock()
		for _, ob := range f.observes {
			before := c.replans
			if err := c.observeLocked(ob.Arrivals, ob.Completed); err != nil {
				c.mu.Unlock()
				return nil, fmt.Errorf("campaign: replaying observe for %q: %w", id, err)
			}
			m.replans.Add(c.replans - before)
		}
		c.lastLSN = f.lastLSN
		c.mu.Unlock()
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.campaigns)+len(rebuilt) > m.opts.MaxCampaigns {
		return nil, fmt.Errorf("%w: %d replayed + %d live exceeds the %d-campaign limit",
			ErrTableFull, len(rebuilt), len(m.campaigns), m.opts.MaxCampaigns)
	}
	for _, c := range rebuilt {
		if _, dup := m.campaigns[c.id]; dup {
			return nil, fmt.Errorf("campaign: replayed ID %q collides with a live campaign", c.id)
		}
	}
	for _, c := range rebuilt {
		m.campaigns[c.id] = c
	}
	for cur := m.seq.Load(); cur < nextSeq; cur = m.seq.Load() {
		if m.seq.CompareAndSwap(cur, nextSeq) {
			break
		}
	}
	stats.Campaigns = len(rebuilt)
	committed = true
	return stats, nil
}

// FoldWAL streams src's records into sink as lifecycle events — the
// offline twin of the live AttachSink stream, so an analytics aggregator
// folds a recorded event log and live traffic through one code path and
// cmd/wal's stats command regenerates rate fits from recorded traffic. It
// is ReplayWAL's pass without the rebuild: it runs no solver, so it works
// read-only (wal.NewReader) and in O(records), and it refuses every log
// whose records ReplayWAL refuses. It cannot see what only a re-solve
// finds (an unsolvable request, state that does not fit its policy).
func FoldWAL(src WALSource, sink EventSink) error {
	_, _, _, err := readWAL(src, sink)
	return err
}
