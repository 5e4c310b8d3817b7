package wal

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Defaults for Options zero values.
const (
	// DefaultSyncInterval is the group-commit window: the longest a
	// buffered record waits before its fsync.
	DefaultSyncInterval = 5 * time.Millisecond
	// DefaultSyncBytes flushes early once this many framed bytes are
	// buffered, bounding the data at risk under heavy write load.
	DefaultSyncBytes = 256 << 10
	// DefaultSegmentBytes seals the active segment past this size.
	DefaultSegmentBytes = 64 << 20
)

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log is closed")

// Options configures Open. The zero value is production-ready except for
// compaction, which needs a SnapshotFn.
type Options struct {
	// SyncInterval is the group-commit fsync window (0 =
	// DefaultSyncInterval). Records appended within one window share one
	// fsync; a crash loses at most one window of acknowledged appends.
	SyncInterval time.Duration
	// SyncBytes flushes before the window elapses once this many framed
	// bytes are buffered (0 = DefaultSyncBytes).
	SyncBytes int
	// SegmentBytes seals the active segment once it grows past this size
	// (0 = DefaultSegmentBytes).
	SegmentBytes int64
	// CompactBytes triggers compaction once sealed segments exceed this
	// many bytes (0 = 4×SegmentBytes). Compaction requires SnapshotFn.
	CompactBytes int64
	// SnapshotFn produces the compaction payload: a self-contained state
	// snapshot written as one record (of SnapshotType) at the head of a
	// fresh segment, after which all older segments are deleted. It is
	// called from the committer goroutine and must not call back into the
	// log. Nil disables compaction.
	SnapshotFn func() ([]byte, error)
	// SnapshotType is the record type byte SnapshotFn's payload is
	// written under.
	SnapshotType byte
	// FS is the filesystem seam (nil = DirFS{}, the real filesystem).
	FS FS
	// Now supplies wall time for the compaction-timestamp metric (nil =
	// time.Now).
	Now func() time.Time
}

func (o Options) withDefaults() Options {
	if o.SyncInterval <= 0 {
		o.SyncInterval = DefaultSyncInterval
	}
	if o.SyncBytes <= 0 {
		o.SyncBytes = DefaultSyncBytes
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	if o.CompactBytes <= 0 {
		o.CompactBytes = 4 * o.SegmentBytes
	}
	if o.FS == nil {
		o.FS = DirFS{}
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// Log is an open write-ahead log. Append is safe for arbitrary concurrent
// use; one committer goroutine owns the files. Close with Close.
//
// Failure model: the first write or fsync error marks the log failed and
// every later Append/Sync returns that error — fail-stop, because
// acknowledging appends a broken log can no longer persist would turn a
// disk fault into silent data loss. Records buffered inside the current
// group-commit window when the fault (or a crash) hits are lost; that
// window is the documented durability lag.
type Log struct {
	dir  string
	fsys FS
	opts Options

	mu       sync.Mutex
	buf      []byte
	nextLSN  uint64
	appends  int64
	bytes    int64
	err      error
	closed   bool
	appended bool

	kick      chan struct{}
	reqs      chan walReq
	quit      chan struct{}
	done      chan struct{}
	closeOnce sync.Once

	// Committer-owned file state (no lock needed: single goroutine).
	active      File
	activeSeq   int64
	activeSize  int64
	sealedBytes int64

	fsyncs           atomic.Int64
	segments         atomic.Int64
	compactions      atomic.Int64
	lastCompactNanos atomic.Int64
	replayNanos      atomic.Int64
	recoveredRecords int64
	truncatedBytes   int64
}

type walReq struct {
	compact bool
	done    chan error
}

// Open recovers the log at dir and starts its committer. Recovery scans
// every segment, truncates the final segment at the first bad frame (the
// torn tail of a crash mid-write; damage anywhere else is an error), and
// resumes the LSN sequence past the highest recovered record. Appends go
// to a fresh segment; recovered segments are never appended to again.
func Open(dir string, opts Options) (*Log, error) {
	opts = opts.withDefaults()
	fsys := opts.FS
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("wal: creating %s: %w", dir, err)
	}
	report, err := Scan(fsys, dir, nil)
	if err != nil {
		return nil, err
	}
	l := &Log{
		dir:              dir,
		fsys:             fsys,
		opts:             opts,
		nextLSN:          report.MaxLSN + 1,
		kick:             make(chan struct{}, 1),
		reqs:             make(chan walReq),
		quit:             make(chan struct{}),
		done:             make(chan struct{}),
		recoveredRecords: report.Records,
	}
	if t := report.Torn; t != nil {
		l.truncatedBytes = t.Bytes
		if t.Offset < headerSize {
			// The final segment's own header never became durable: the
			// whole file is residue, drop it.
			if err := fsys.Remove(join(dir, t.Name)); err != nil {
				return nil, fmt.Errorf("wal: dropping torn segment %s: %w", t.Name, err)
			}
			report.Segments = report.Segments[:len(report.Segments)-1]
		} else if err := fsys.Truncate(join(dir, t.Name), t.Offset); err != nil {
			return nil, fmt.Errorf("wal: truncating torn tail of %s: %w", t.Name, err)
		}
	}
	for _, sg := range report.Segments {
		if sg.Seq > l.activeSeq {
			l.activeSeq = sg.Seq
		}
		l.sealedBytes += sg.Size
	}
	l.segments.Store(int64(len(report.Segments)))
	go l.committer()
	return l, nil
}

// Replay streams every recovered record to fn in log order. It must be
// called before the first Append (boot-time replay precedes serving).
func (l *Log) Replay(fn func(Record) error) error {
	l.mu.Lock()
	appended := l.appended
	l.mu.Unlock()
	if appended {
		return errors.New("wal: Replay must run before the first Append")
	}
	_, err := Scan(l.fsys, l.dir, func(rec Record, _ FramePos) error { return fn(rec) })
	return err
}

// Append enqueues one record and returns its LSN. The record is durable
// after the current group-commit window's fsync — at most
// SyncInterval later, sooner once SyncBytes accumulate — without Append
// ever blocking on the disk.
func (l *Log) Append(typ byte, data []byte) (uint64, error) {
	if len(data) > maxRecordBytes-framePrefixSize {
		return 0, fmt.Errorf("wal: %d-byte record exceeds the %d-byte limit", len(data), maxRecordBytes-framePrefixSize)
	}
	l.mu.Lock()
	if l.err != nil {
		err := l.err
		l.mu.Unlock()
		return 0, err
	}
	if l.closed {
		l.mu.Unlock()
		return 0, ErrClosed
	}
	lsn := l.nextLSN
	l.nextLSN++
	l.buf = appendFrame(l.buf, Record{LSN: lsn, Type: typ, Data: data})
	l.appends++
	l.bytes += int64(frameLen(len(data)))
	l.appended = true
	full := len(l.buf) >= l.opts.SyncBytes
	l.mu.Unlock()
	if full {
		select {
		case l.kick <- struct{}{}:
		default:
		}
	}
	return lsn, nil
}

// Sync flushes and fsyncs everything appended so far, returning the
// log's sticky error if the flush (or any earlier one) failed.
func (l *Log) Sync() error { return l.request(walReq{done: make(chan error, 1)}) }

// Compact flushes, then forces a compaction cycle: SnapshotFn's payload
// is written as the head record of a fresh segment and all older segments
// are deleted. No-op error if no SnapshotFn is configured.
func (l *Log) Compact() error {
	if l.opts.SnapshotFn == nil {
		return errors.New("wal: Compact requires Options.SnapshotFn")
	}
	return l.request(walReq{compact: true, done: make(chan error, 1)})
}

func (l *Log) request(req walReq) error {
	select {
	case l.reqs <- req:
	case <-l.done:
		return ErrClosed
	}
	select {
	case err := <-req.done:
		return err
	case <-l.done:
		return ErrClosed
	}
}

// Close flushes pending records, fsyncs, stops the committer, and closes
// the active segment. It returns the log's sticky error, if any.
func (l *Log) Close() error {
	l.mu.Lock()
	l.closed = true
	l.mu.Unlock()
	l.closeOnce.Do(func() { close(l.quit) })
	<-l.done
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// SetReplayDuration records how long boot-time replay took, for the
// wal_replay_seconds gauge (the caller measures: replay cost is dominated
// by the state rebuild outside this package).
func (l *Log) SetReplayDuration(d time.Duration) { l.replayNanos.Store(int64(d)) }

// Metrics is a point-in-time read of the log's observability surface.
type Metrics struct {
	// Appends counts records accepted; Bytes their framed size; Fsyncs
	// the group-commit flushes that carried them to stable storage.
	Appends int64
	Fsyncs  int64
	Bytes   int64
	// Segments is the current segment-file count; Compactions the
	// lifetime compaction count.
	Segments    int64
	Compactions int64
	// NextLSN is the next sequence number to be assigned.
	NextLSN uint64
	// RecoveredRecords and TruncatedBytes describe the last Open: intact
	// records replayable, and torn trailing bytes cut.
	RecoveredRecords int64
	TruncatedBytes   int64
	// ReplaySeconds is the boot-time replay wall time (see
	// SetReplayDuration); LastCompactionUnixSeconds the wall time of the
	// last compaction (0 = never).
	ReplaySeconds             float64
	LastCompactionUnixSeconds float64
	// Failed reports the fail-stop state: a write or fsync error has
	// stuck and every append is being refused.
	Failed bool
}

// Metrics returns current counter and gauge values.
func (l *Log) Metrics() Metrics {
	l.mu.Lock()
	m := Metrics{
		Appends:          l.appends,
		Bytes:            l.bytes,
		NextLSN:          l.nextLSN,
		RecoveredRecords: l.recoveredRecords,
		TruncatedBytes:   l.truncatedBytes,
		Failed:           l.err != nil,
	}
	l.mu.Unlock()
	m.Fsyncs = l.fsyncs.Load()
	m.Segments = l.segments.Load()
	m.Compactions = l.compactions.Load()
	m.ReplaySeconds = time.Duration(l.replayNanos.Load()).Seconds()
	if ns := l.lastCompactNanos.Load(); ns != 0 {
		m.LastCompactionUnixSeconds = float64(ns) / 1e9
	}
	return m
}

// committer is the single goroutine that owns the segment files: it
// drains the append buffer on each group-commit window (or earlier on a
// SyncBytes kick or an explicit Sync), rotates segments, and compacts.
func (l *Log) committer() {
	defer close(l.done)
	ticker := time.NewTicker(l.opts.SyncInterval)
	defer ticker.Stop()
	for {
		select {
		case <-l.quit:
			l.flush()
			if l.active != nil {
				l.active.Close()
				l.active = nil
			}
			return
		case <-l.kick:
			l.flush()
		case req := <-l.reqs:
			err := l.flush()
			if err == nil && req.compact {
				err = l.compact()
			}
			req.done <- err
		case <-ticker.C:
			l.flush()
		}
	}
}

// flush writes and fsyncs the buffered batch, then applies the rotation
// and compaction policies. Committer goroutine only.
func (l *Log) flush() error {
	l.mu.Lock()
	batch := l.buf
	l.buf = nil
	err := l.err
	l.mu.Unlock()
	if err != nil {
		return err
	}
	if len(batch) == 0 {
		return nil
	}
	if err := l.writeBatch(batch); err != nil {
		l.stick(err)
		return err
	}
	if l.activeSize >= l.opts.SegmentBytes {
		l.seal()
	}
	if l.opts.SnapshotFn != nil && l.sealedBytes >= l.opts.CompactBytes {
		if err := l.compact(); err != nil {
			return err
		}
	}
	return nil
}

// writeBatch appends one encoded batch to the active segment and fsyncs.
func (l *Log) writeBatch(batch []byte) error {
	if l.active == nil {
		if err := l.openSegment(l.activeSeq + 1); err != nil {
			return err
		}
	}
	n, err := l.active.Write(batch)
	l.activeSize += int64(n)
	if err != nil {
		return fmt.Errorf("wal: writing segment %d: %w", l.activeSeq, err)
	}
	if err := l.active.Sync(); err != nil {
		return fmt.Errorf("wal: fsyncing segment %d: %w", l.activeSeq, err)
	}
	l.fsyncs.Add(1)
	return nil
}

// openSegment creates segment seq with a synced header and makes it
// active.
func (l *Log) openSegment(seq int64) error {
	f, err := l.fsys.Create(join(l.dir, segmentName(seq)))
	if err != nil {
		return fmt.Errorf("wal: creating segment %d: %w", seq, err)
	}
	if _, err := f.Write(encodeHeader()); err != nil {
		f.Close()
		return fmt.Errorf("wal: writing segment %d header: %w", seq, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: fsyncing segment %d header: %w", seq, err)
	}
	l.fsyncs.Add(1)
	l.active = f
	l.activeSeq = seq
	l.activeSize = headerSize
	l.segments.Add(1)
	return nil
}

// seal closes the active segment; the next write opens the successor.
func (l *Log) seal() {
	if l.active == nil {
		return
	}
	l.active.Close()
	l.active = nil
	l.sealedBytes += l.activeSize
	l.activeSize = 0
}

// compact folds the log: take a state snapshot, start a fresh segment
// whose first record is that snapshot, move any records buffered
// meanwhile behind it, fsync, and delete every older segment.
//
// Correctness leans on two facts. First, flush and compact both run only
// on the committer goroutine, so every record already written to the old
// segments was appended — and therefore applied to the snapshotted state
// — before SnapshotFn ran; deleting those segments loses nothing.
// Second, records buffered during SnapshotFn may land after the snapshot
// record while carrying smaller LSNs; the replaying layer resolves that
// with per-entity LSN high-water marks in the snapshot (events at or
// below the mark are already folded in and are skipped).
func (l *Log) compact() error {
	snap, err := l.opts.SnapshotFn()
	if err != nil {
		// A failed snapshot skips this cycle; the log keeps appending and
		// the next threshold crossing (or explicit Compact) retries.
		return fmt.Errorf("wal: compaction snapshot: %w", err)
	}
	l.mu.Lock()
	lsn := l.nextLSN
	l.nextLSN++
	batch := l.buf
	l.buf = nil
	l.appends++
	l.bytes += int64(frameLen(len(snap)))
	l.mu.Unlock()

	l.seal()
	if err := l.openSegment(l.activeSeq + 1); err != nil {
		l.stick(err)
		return err
	}
	frame := appendFrame(nil, Record{LSN: lsn, Type: l.opts.SnapshotType, Data: snap})
	frame = append(frame, batch...)
	if err := l.writeBatch(frame); err != nil {
		l.stick(err)
		return err
	}
	// The snapshot segment is durable: everything older is now redundant.
	// A failed delete is benign — replay applies the old events and then
	// the snapshot record resets state — so the next compaction retries.
	if names, err := l.fsys.ReadDir(l.dir); err == nil {
		for _, name := range names {
			if seq, ok := parseSegmentName(name); ok && seq < l.activeSeq {
				if l.fsys.Remove(join(l.dir, name)) == nil {
					l.segments.Add(-1)
				}
			}
		}
	}
	l.sealedBytes = 0
	l.compactions.Add(1)
	l.lastCompactNanos.Store(l.opts.Now().UnixNano())
	return nil
}

// stick records the first hard failure; all later appends fail fast.
func (l *Log) stick(err error) {
	l.mu.Lock()
	if l.err == nil {
		l.err = err
	}
	l.mu.Unlock()
}
