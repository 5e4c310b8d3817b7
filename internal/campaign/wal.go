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
// snapshot entry or a create event) plus ordered observe events.
type walFold struct {
	base     *campaignSnapshot
	create   *walCreateEvent
	observes []walObserveEvent
	lastLSN  uint64
}

// ReplayWAL folds src's records into live campaigns: each campaign's
// base state (latest snapshot entry, else its create event) is rebuilt
// through the engine's deterministic re-solve and its observe events are
// re-applied through the same code path Observe uses online, so replayed
// campaigns quote bit-identical prices. Events with LSNs at or below a
// snapshot entry's high-water mark are already folded into that entry and
// are skipped — the rule that makes compaction's physical reordering
// (snapshot record ahead of buffered older events) harmless.
//
// ReplayWAL is all-or-nothing — a malformed record, an unsolvable
// request, or invalid state aborts with no campaigns inserted, so a daemon
// never boots with half a table — and resumes the ID sequence past every
// replayed campaign, so new campaigns never reuse a replayed ID.
func (m *Manager) ReplayWAL(ctx context.Context, src WALSource) (*WALReplayStats, error) {
	stats := &WALReplayStats{}
	folds := make(map[string]*walFold)
	var nextSeq int64
	removed := make(map[string]bool)

	err := src.Replay(func(rec wal.Record) error {
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
			folds[ev.ID] = &walFold{create: &ev, lastLSN: rec.LSN}
			if ev.Seq > nextSeq {
				nextSeq = ev.Seq
			}
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
			folds = make(map[string]*walFold, len(file.Campaigns))
			for i := range file.Campaigns {
				cs := file.Campaigns[i]
				if _, dup := folds[cs.ID]; dup {
					return fmt.Errorf("campaign: snapshot record (lsn %d) contains ID %q twice", rec.LSN, cs.ID)
				}
				folds[cs.ID] = &walFold{base: &cs, lastLSN: cs.LastLSN}
			}
			if file.NextSeq > nextSeq {
				nextSeq = file.NextSeq
			}
		default:
			return fmt.Errorf("campaign: unknown record type %d (lsn %d) — log written by a newer binary?", rec.Type, rec.LSN)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	stats.Removed = len(removed)

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
	m.created.Add(int64(len(rebuilt)))
	stats.Campaigns = len(rebuilt)
	committed = true
	return stats, nil
}

// FoldWAL streams src's records into sink as lifecycle events — the
// offline twin of the live AttachSink stream, so an analytics aggregator
// folds a recorded event log and live traffic through one code path and
// cmd/walstats regenerates rate fits from recorded traffic. Unlike
// ReplayWAL it runs no solver: the fold is pure bookkeeping, so it works
// read-only (wal.NewReader) and in O(records).
//
// Compaction snapshots are folded approximately for campaigns whose
// per-interval history was compacted away: one create plus the recorded
// arrival total spread uniformly across the recorded interval count
// (exact totals, smoothed profile); quotes are never logged, so folded
// aggregates report zero quote activity by construction.
func FoldWAL(src WALSource, sink EventSink) error {
	type liveCampaign struct {
		kind     string
		adaptive bool
		interval int
		lastLSN  uint64
	}
	live := make(map[string]*liveCampaign)
	return src.Replay(func(rec wal.Record) error {
		switch rec.Type {
		case WALRecordCreate:
			var ev walCreateEvent
			if err := json.Unmarshal(rec.Data, &ev); err != nil {
				return fmt.Errorf("campaign: bad create record (lsn %d): %w", rec.LSN, err)
			}
			if lc, ok := live[ev.ID]; ok && rec.LSN <= lc.lastLSN {
				return nil // already folded via a snapshot entry
			}
			live[ev.ID] = &liveCampaign{kind: ev.Kind, adaptive: ev.Adaptive != nil, lastLSN: rec.LSN}
			sink.CampaignCreated(ev.Kind, ev.Adaptive != nil)
		case WALRecordObserve:
			var ev walObserveEvent
			if err := json.Unmarshal(rec.Data, &ev); err != nil {
				return fmt.Errorf("campaign: bad observe record (lsn %d): %w", rec.LSN, err)
			}
			lc, ok := live[ev.ID]
			if !ok || rec.LSN <= lc.lastLSN {
				return nil // campaign removed, or event folded into its snapshot entry
			}
			sink.CampaignObserved(lc.kind, lc.adaptive, ev.Arrivals, sumCompleted(ev.Completed), lc.interval)
			lc.interval++
			lc.lastLSN = rec.LSN
		case WALRecordFinish, WALRecordExpire:
			var ev walRefEvent
			if err := json.Unmarshal(rec.Data, &ev); err != nil {
				return fmt.Errorf("campaign: bad removal record (lsn %d): %w", rec.LSN, err)
			}
			lc, ok := live[ev.ID]
			if !ok || rec.LSN <= lc.lastLSN {
				return nil
			}
			delete(live, ev.ID)
			if rec.Type == WALRecordFinish {
				sink.CampaignFinished(lc.kind, lc.adaptive)
			} else {
				sink.CampaignExpired(lc.kind, lc.adaptive)
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
			inSnapshot := make(map[string]bool, len(file.Campaigns))
			for i := range file.Campaigns {
				cs := &file.Campaigns[i]
				inSnapshot[cs.ID] = true
				if lc, ok := live[cs.ID]; ok {
					// Already folded from its own records; the entry only
					// advances the dedup high-water mark.
					if cs.LastLSN > lc.lastLSN {
						lc.lastLSN = cs.LastLSN
					}
					lc.interval = cs.Interval
					continue
				}
				adaptive := cs.Adaptive != nil
				sink.CampaignCreated(cs.Kind, adaptive)
				if cs.Interval > 0 {
					mean := cs.ObservedTotal / float64(cs.Interval)
					for t := 0; t < cs.Interval; t++ {
						sink.CampaignObserved(cs.Kind, adaptive, mean, 0, t)
					}
				}
				live[cs.ID] = &liveCampaign{kind: cs.Kind, adaptive: adaptive, interval: cs.Interval, lastLSN: cs.LastLSN}
			}
			// Campaigns folded earlier but absent from the snapshot were
			// removed in the compacted-away history; their removal records
			// are gone, so close them out as finished — in sorted ID order,
			// keeping the event stream (and any float folds downstream)
			// deterministic.
			var gone []string
			for id := range live {
				if !inSnapshot[id] {
					gone = append(gone, id)
				}
			}
			sort.Strings(gone)
			for _, id := range gone {
				lc := live[id]
				delete(live, id)
				sink.CampaignFinished(lc.kind, lc.adaptive)
			}
		default:
			return fmt.Errorf("campaign: unknown record type %d (lsn %d) — log written by a newer binary?", rec.Type, rec.LSN)
		}
		return nil
	})
}
