package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"
)

// testOptions returns Options on fsys with the committer ticker effectively
// disabled, so tests drive every flush explicitly through Sync/Compact/Close
// and stay deterministic.
func testOptions(fsys FS) Options {
	return Options{
		SyncInterval: time.Hour,
		FS:           fsys,
	}
}

// collect replays l into a slice, copying Data out of the scan buffer.
func collect(t *testing.T, l *Log) []Record {
	t.Helper()
	var out []Record
	if err := l.Replay(func(rec Record) error {
		out = append(out, Record{LSN: rec.LSN, Type: rec.Type, Data: append([]byte(nil), rec.Data...)})
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return out
}

func mustAppend(t *testing.T, l *Log, typ byte, data string) uint64 {
	t.Helper()
	lsn, err := l.Append(typ, []byte(data))
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	return lsn
}

func TestAppendReplayRoundtrip(t *testing.T) {
	fsys := NewMemFS()
	l, err := Open("wal", testOptions(fsys))
	if err != nil {
		t.Fatal(err)
	}
	want := []Record{
		{LSN: 1, Type: 1, Data: []byte(`{"id":"c1"}`)},
		{LSN: 2, Type: 2, Data: []byte(`{"id":"c1","arrivals":3}`)},
		{LSN: 3, Type: 2, Data: []byte{}},
	}
	for _, rec := range want {
		if got := mustAppend(t, l, rec.Type, string(rec.Data)); got != rec.LSN {
			t.Fatalf("append assigned lsn %d, want %d", got, rec.LSN)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	re, err := Open("wal", testOptions(fsys))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	got := collect(t, re)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].LSN != want[i].LSN || got[i].Type != want[i].Type || !bytes.Equal(got[i].Data, want[i].Data) {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if m := re.Metrics(); m.RecoveredRecords != 3 || m.NextLSN != 4 || m.TruncatedBytes != 0 {
		t.Fatalf("recovery metrics %+v", m)
	}
	// The LSN sequence resumes past the recovered records.
	if lsn := mustAppend(t, re, 3, "x"); lsn != 4 {
		t.Fatalf("post-recovery append got lsn %d, want 4", lsn)
	}
}

func TestGroupCommitSharesOneFsync(t *testing.T) {
	fsys := NewMemFS()
	l, err := Open("wal", testOptions(fsys))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 100; i++ {
		mustAppend(t, l, 1, "payload")
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	// One fsync for the lazily created segment header, one for the whole
	// 100-record batch: that is the point of group commit.
	if m := l.Metrics(); m.Fsyncs != 2 || m.Appends != 100 {
		t.Fatalf("fsyncs=%d appends=%d, want 2 and 100", m.Fsyncs, m.Appends)
	}
}

func TestSyncBytesKicksEarly(t *testing.T) {
	l, err := Open("wal", testOptions(NewMemFS()))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// 20 records of 16 KiB buffer 320 KiB, past syncBytes.
	record := strings.Repeat("x", 16<<10)
	for i := 0; i < 20; i++ {
		mustAppend(t, l, 1, record)
	}
	// The committer ticker is parked for an hour, so any durable bytes got
	// there via the syncBytes kick alone.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if l.Metrics().Fsyncs > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("buffering past syncBytes never triggered a flush")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSegmentRotation(t *testing.T) {
	fsys := NewMemFS()
	opts := testOptions(fsys)
	opts.SegmentBytes = 1 // seal after every flushed batch
	l, err := Open("wal", opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		mustAppend(t, l, 1, fmt.Sprintf("record-%d", i))
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	report, err := Scan(fsys, "wal", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Segments) != 3 || report.Records != 3 {
		t.Fatalf("got %d segments / %d records, want 3 / 3", len(report.Segments), report.Records)
	}
	// Reopen: replay crosses segment boundaries in order, and new appends
	// go to a fresh fourth segment, never a recovered one.
	re, err := Open("wal", testOptions(fsys))
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, re)
	for i, rec := range got {
		if want := fmt.Sprintf("record-%d", i+1); string(rec.Data) != want || rec.LSN != uint64(i+1) {
			t.Fatalf("record %d = lsn %d %q, want lsn %d %q", i, rec.LSN, rec.Data, i+1, want)
		}
	}
	mustAppend(t, re, 1, "post")
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	report, err = Scan(fsys, "wal", nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(report.Segments); n != 4 {
		t.Fatalf("post-recovery append created segment count %d, want 4", n)
	}
	if last := report.Segments[3]; last.Seq != 4 || last.Records != 1 {
		t.Fatalf("final segment %+v, want seq 4 with 1 record", last)
	}
}

func TestCompactReplacesHistoryWithSnapshot(t *testing.T) {
	fsys := NewMemFS()
	opts := testOptions(fsys)
	opts.SnapshotType = 9
	opts.SnapshotFn = func() ([]byte, error) { return []byte(`{"state":"folded"}`), nil }
	l, err := Open("wal", opts)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, 1, "a")
	mustAppend(t, l, 1, "b")
	if err := l.Compact(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	mustAppend(t, l, 1, "c")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open("wal", testOptions(fsys))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got := collect(t, re)
	// History a, b is folded into the snapshot; replay sees snapshot then c.
	if len(got) != 2 || got[0].Type != 9 || string(got[0].Data) != `{"state":"folded"}` || string(got[1].Data) != "c" {
		t.Fatalf("post-compaction replay = %+v", got)
	}
	report, err := Scan(fsys, "wal", nil)
	if err != nil {
		t.Fatal(err)
	}
	// Compaction's segment plus Close-time flush of "c" into... the same
	// active segment, so exactly one file should remain.
	if len(report.Segments) != 1 {
		t.Fatalf("%d segments survive compaction, want 1", len(report.Segments))
	}
	if m := l.Metrics(); m.Compactions != 1 || m.LastCompactionUnixSeconds == 0 {
		t.Fatalf("compaction metrics %+v", m)
	}
}

func TestCompactionThresholdTriggers(t *testing.T) {
	fsys := NewMemFS()
	opts := testOptions(fsys)
	opts.SegmentBytes = 1
	opts.CompactBytes = 1
	opts.SnapshotType = 9
	opts.SnapshotFn = func() ([]byte, error) { return []byte("snap"), nil }
	l, err := Open("wal", opts)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, 1, "a")
	if err := l.Sync(); err != nil { // flush → seal → sealedBytes ≥ 1 → compact
		t.Fatal(err)
	}
	if m := l.Metrics(); m.Compactions != 1 {
		t.Fatalf("threshold crossing ran %d compactions, want 1", m.Compactions)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCompactWithoutSnapshotFn(t *testing.T) {
	fsys := NewMemFS()
	l, err := Open("wal", testOptions(fsys))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Compact(); err == nil {
		t.Fatal("Compact without SnapshotFn did not error")
	}
}

func TestSnapshotFnErrorSkipsCycleNotSticky(t *testing.T) {
	fsys := NewMemFS()
	opts := testOptions(fsys)
	boom := errors.New("state busy")
	opts.SnapshotFn = func() ([]byte, error) { return nil, boom }
	l, err := Open("wal", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	mustAppend(t, l, 1, "a")
	if err := l.Compact(); !errors.Is(err, boom) {
		t.Fatalf("Compact error = %v, want wrapped %v", err, boom)
	}
	// The failure is not sticky: appends keep working.
	if _, err := l.Append(1, []byte("b")); err != nil {
		t.Fatalf("append after failed compaction: %v", err)
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("sync after failed compaction: %v", err)
	}
}

// TestTornTailTruncation cuts the (only) segment at every byte offset
// inside its final frame and checks recovery truncates exactly there,
// replays the intact prefix, and keeps accepting appends.
func TestTornTailTruncation(t *testing.T) {
	master := NewMemFS()
	l, err := Open("wal", testOptions(master))
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, 1, "first-record")
	mustAppend(t, l, 2, "second-record")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	name := join("wal", segmentName(1))
	full, ok := master.ReadFile(name)
	if !ok {
		t.Fatalf("segment %s missing", name)
	}
	lastFrame := frameLen(len("second-record"))
	intact := len(full) - lastFrame

	for cut := intact + 1; cut < len(full); cut++ {
		fsys := NewMemFS()
		fsys.WriteFile(name, full[:cut])
		re, err := Open("wal", testOptions(fsys))
		if err != nil {
			t.Fatalf("cut %d: recovery refused to start: %v", cut, err)
		}
		if m := re.Metrics(); m.RecoveredRecords != 1 || m.TruncatedBytes != int64(cut-intact) {
			t.Fatalf("cut %d: metrics %+v, want 1 record and %d truncated bytes", cut, m, cut-intact)
		}
		got := collect(t, re)
		if len(got) != 1 || string(got[0].Data) != "first-record" {
			t.Fatalf("cut %d: replayed %+v", cut, got)
		}
		// The truncation is physical, and the log keeps working.
		if data, _ := fsys.ReadFile(name); len(data) != intact {
			t.Fatalf("cut %d: segment is %d bytes after recovery, want %d", cut, len(data), intact)
		}
		if lsn := mustAppend(t, re, 3, "after-crash"); lsn != 2 {
			t.Fatalf("cut %d: post-recovery lsn %d, want 2 (torn record's lsn is reusable)", cut, lsn)
		}
		if err := re.Close(); err != nil {
			t.Fatalf("cut %d: close: %v", cut, err)
		}
	}
}

// TestDirFSRotationAndTornTail runs the log on DirFS, the filesystem the
// daemon uses (every other test here runs on MemFS or FaultFS): synced
// appends across a segment rotation, then junk appended to the last
// segment as a crash mid-write leaves it. Reopening must cut the junk and
// replay every record in order.
func TestDirFSRotationAndTornTail(t *testing.T) {
	dir := t.TempDir()
	opts := Options{SyncInterval: time.Hour, SegmentBytes: 64}
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	const records = 6
	for i := 1; i <= records; i++ {
		mustAppend(t, l, 1, fmt.Sprintf("record-%d", i))
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := DirFS{}.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) < 2 {
		t.Fatalf("segments %v: the appends never rotated", names)
	}
	junk := []byte("torn tail junk")
	f, err := os.OpenFile(join(dir, names[len(names)-1]), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(junk); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if m := re.Metrics(); m.TruncatedBytes != int64(len(junk)) || m.RecoveredRecords != records {
		t.Fatalf("recovery metrics %+v, want %d truncated bytes and %d records", m, len(junk), records)
	}
	got := collect(t, re)
	if len(got) != records {
		t.Fatalf("replayed %d records, want %d", len(got), records)
	}
	for i, rec := range got {
		if want := fmt.Sprintf("record-%d", i+1); string(rec.Data) != want || rec.LSN != uint64(i+1) {
			t.Fatalf("record %d = lsn %d %q, want lsn %d %q", i, rec.LSN, rec.Data, i+1, want)
		}
	}
}

// TestTornHeaderDropsSegment cuts a final segment inside its 16-byte
// header: the whole file is residue of a crash between Create and the
// header fsync, and recovery removes it.
func TestTornHeaderDropsSegment(t *testing.T) {
	master := NewMemFS()
	opts := testOptions(master)
	opts.SegmentBytes = 1
	l, err := Open("wal", opts)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, 1, "kept")
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, 1, "doomed")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	second := join("wal", segmentName(2))
	data, ok := master.ReadFile(second)
	if !ok {
		t.Fatalf("segment 2 missing")
	}
	for cut := 0; cut < headerSize; cut++ {
		fsys := master.Clone()
		fsys.WriteFile(second, data[:cut])
		re, err := Open("wal", testOptions(fsys))
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if got := collect(t, re); len(got) != 1 || string(got[0].Data) != "kept" {
			t.Fatalf("cut %d: replayed %+v", cut, got)
		}
		if _, exists := fsys.ReadFile(second); exists {
			t.Fatalf("cut %d: torn-header segment still on disk", cut)
		}
		re.Close()
	}
}

func TestCorruptionBeforeFinalSegmentFailsOpen(t *testing.T) {
	fsys := NewMemFS()
	opts := testOptions(fsys)
	opts.SegmentBytes = 1
	l, err := Open("wal", opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		mustAppend(t, l, 1, "record")
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	first := join("wal", segmentName(1))
	data, _ := fsys.ReadFile(first)
	data[len(data)-1] ^= 0xff // flip a payload byte: CRC now fails
	fsys.WriteFile(first, data)
	if _, err := Open("wal", testOptions(fsys)); err == nil {
		t.Fatal("Open accepted corruption in a non-final segment")
	}
}

func TestWriteErrorIsSticky(t *testing.T) {
	boom := errors.New("disk gone")
	fault := NewFaultFS(NewMemFS())
	l, err := Open("wal", testOptions(fault))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	mustAppend(t, l, 1, "ok")
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	fault.FailWritesAfter(0, boom)
	mustAppend(t, l, 1, "lost")
	if err := l.Sync(); !errors.Is(err, boom) {
		t.Fatalf("sync after write fault = %v, want %v", err, boom)
	}
	// Fail-stop: the fault outlives the batch that hit it.
	if _, err := l.Append(1, []byte("refused")); !errors.Is(err, boom) {
		t.Fatalf("append on failed log = %v, want sticky %v", err, boom)
	}
	if !l.Metrics().Failed {
		t.Fatal("Metrics().Failed = false on a failed log")
	}
}

func TestShortWriteIsTornNotSilent(t *testing.T) {
	boom := errors.New("power sagging")
	mem := NewMemFS()
	fault := NewFaultFS(mem)
	l, err := Open("wal", testOptions(fault))
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, 1, "committed")
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	// Allow 5 more bytes: the next batch tears mid-frame.
	fault.FailWritesAfter(5, boom)
	mustAppend(t, l, 1, "torn-record")
	if err := l.Sync(); !errors.Is(err, boom) {
		t.Fatalf("sync = %v, want %v", err, boom)
	}
	l.Close()
	// Recovery on the underlying filesystem sees the 5 stray bytes and
	// truncates them; the committed record survives.
	re, err := Open("wal", testOptions(mem))
	if err != nil {
		t.Fatalf("recovery after torn write: %v", err)
	}
	defer re.Close()
	if got := collect(t, re); len(got) != 1 || string(got[0].Data) != "committed" {
		t.Fatalf("replay after torn write = %+v", got)
	}
	if m := re.Metrics(); m.TruncatedBytes != 5 {
		t.Fatalf("TruncatedBytes = %d, want 5", m.TruncatedBytes)
	}
}

func TestSyncErrorIsSticky(t *testing.T) {
	boom := errors.New("fsync eio")
	fault := NewFaultFS(NewMemFS())
	l, err := Open("wal", testOptions(fault))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	fault.FailSyncs(boom)
	mustAppend(t, l, 1, "x")
	if err := l.Sync(); !errors.Is(err, boom) {
		t.Fatalf("sync = %v, want %v", err, boom)
	}
	fault.Clear()
	// Clearing the injected fault must NOT revive the log: after one failed
	// fsync the durable prefix is unknown, so the log stays failed.
	if _, err := l.Append(1, []byte("y")); !errors.Is(err, boom) {
		t.Fatalf("append after cleared fault = %v, want sticky %v", err, boom)
	}
}

// TestPowerCutLosesOnlyUnsyncedBytes drives MemFS.Crash: bytes written but
// never fsynced vanish, and recovery restores exactly the synced prefix.
func TestPowerCutLosesOnlyUnsyncedBytes(t *testing.T) {
	mem := NewMemFS()
	fault := NewFaultFS(mem)
	l, err := Open("wal", testOptions(fault))
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, 1, "durable")
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	// The next batch reaches the file but its fsync fails — written, not
	// durable. The power cut then drops it.
	fault.FailSyncs(errors.New("eio"))
	mustAppend(t, l, 1, "in-flight")
	if err := l.Sync(); err == nil {
		t.Fatal("faulted fsync reported success")
	}
	mem.Crash()
	re, err := Open("wal", testOptions(NewFaultFS(mem)))
	if err != nil {
		t.Fatalf("recovery after power cut: %v", err)
	}
	defer re.Close()
	if got := collect(t, re); len(got) != 1 || string(got[0].Data) != "durable" {
		t.Fatalf("replay after power cut = %+v", got)
	}
	// After the crash the file ends exactly at the synced prefix: no torn
	// bytes for recovery to truncate.
	if m := re.Metrics(); m.TruncatedBytes != 0 {
		t.Fatalf("TruncatedBytes = %d, want 0", m.TruncatedBytes)
	}
}

func TestCrashDropsNeverSyncedSegment(t *testing.T) {
	mem := NewMemFS()
	f, err := mem.Create("wal/wal-00000001.log")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("half a header")); err != nil {
		t.Fatal(err)
	}
	f.Close()
	mem.Crash()
	if _, ok := mem.ReadFile("wal/wal-00000001.log"); ok {
		t.Fatal("never-synced file survived the crash")
	}
}

func TestAppendAfterCloseAndLimits(t *testing.T) {
	fsys := NewMemFS()
	l, err := Open("wal", testOptions(fsys))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(1, make([]byte, maxRecordBytes)); err == nil {
		t.Fatal("oversized record accepted")
	}
	mustAppend(t, l, 1, "x")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(1, []byte("y")); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close = %v, want ErrClosed", err)
	}
	if err := l.Sync(); !errors.Is(err, ErrClosed) {
		t.Fatalf("sync after close = %v, want ErrClosed", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
	if err := l.Replay(func(Record) error { return nil }); err == nil {
		t.Fatal("Replay after Append did not error")
	}
}

func TestReaderMatchesRecovery(t *testing.T) {
	fsys := NewMemFS()
	l, err := Open("wal", testOptions(fsys))
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, 1, "a")
	mustAppend(t, l, 2, "b")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	name := join("wal", segmentName(1))
	full, _ := fsys.ReadFile(name)
	fsys.WriteFile(name, full[:len(full)-1]) // tear the last frame
	var types []byte
	if err := NewReader(fsys, "wal").Replay(func(rec Record) error {
		types = append(types, rec.Type)
		return nil
	}); err != nil {
		t.Fatalf("reader replay: %v", err)
	}
	if len(types) != 1 || types[0] != 1 {
		t.Fatalf("reader replayed types %v, want [1]", types)
	}
	// Reader never repairs: the torn byte is still there.
	if data, _ := fsys.ReadFile(name); len(data) != len(full)-1 {
		t.Fatal("Reader modified the log directory")
	}
}
