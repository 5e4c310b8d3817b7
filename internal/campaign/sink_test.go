package campaign

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"crowdpricing/internal/engine"
	"crowdpricing/internal/kinds"
	"crowdpricing/internal/wal"
)

// countingSink records the lifecycle event stream as scalar totals — just
// enough structure to compare a live stream against an offline fold.
type countingSink struct {
	mu       sync.Mutex
	created  map[string]int // key = kind + "/" or "" for adaptive
	observed int
	arrivals float64
	complete int
	quoted   int
	finished int
	expired  int
}

func newCountingSink() *countingSink {
	return &countingSink{created: make(map[string]int)}
}

func (s *countingSink) key(kind string, adaptive bool) string {
	if adaptive {
		return kind + "/adaptive"
	}
	return kind
}

func (s *countingSink) CampaignCreated(kind string, adaptive bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.created[s.key(kind, adaptive)]++
}

func (s *countingSink) CampaignObserved(kind string, adaptive bool, arrivals float64, completed, interval int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.observed++
	s.arrivals += arrivals
	s.complete += completed
}

func (s *countingSink) CampaignQuoted(kind string, adaptive bool, price int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.quoted++
}

func (s *countingSink) CampaignFinished(kind string, adaptive bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.finished++
}

func (s *countingSink) CampaignExpired(kind string, adaptive bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expired++
}

// totals renders every count, so two sinks compare with one string
// equality (fmt prints the created map in key order).
func (s *countingSink) totals() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return fmt.Sprintf("created=%v observed=%d arrivals=%g completed=%d quoted=%d finished=%d expired=%d",
		s.created, s.observed, s.arrivals, s.complete, s.quoted, s.finished, s.expired)
}

// replayCounts replays the log in mem into a fresh Manager with a
// countingSink attached and returns what the replay streamed.
func replayCounts(t *testing.T, eng *engine.Engine, mem *wal.MemFS) *countingSink {
	t.Helper()
	sink := newCountingSink()
	m := newWALManager(t, eng, Options{})
	m.AttachSink(sink)
	if _, err := m.ReplayWAL(context.Background(), wal.NewReader(mem, "wal")); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return sink
}

// TestSinkLiveStreamAndFoldAgree drives a full lifecycle — creates (one
// adaptive), observes, a quote, a finish, a TTL expiry — through a live
// sink and a WAL, then folds the log offline: every logged total must
// agree, and quotes (never logged) must fold to zero. A restart's replay
// of the same log streams exactly what the offline fold does.
func TestSinkLiveStreamAndFoldAgree(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 2})
	t.Cleanup(eng.Close)
	ctx := context.Background()

	now := time.Unix(1_700_000_000, 0)
	var clockMu sync.Mutex
	clock := func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		return now
	}

	mem := wal.NewMemFS()
	m := newWALManager(t, eng, Options{TTL: time.Minute, now: clock})
	wlog, err := m.OpenWAL("wal", wal.Options{FS: mem, SyncInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	m.AttachWAL(wlog)
	live := newCountingSink()
	m.AttachSink(live)

	var ids []string
	for i, seed := range []int64{1, 2, 3} {
		var adaptive *AdaptiveOptions
		if i == 0 {
			adaptive = &AdaptiveOptions{WindowIntervals: 2}
		}
		st, err := m.Create(ctx, kinds.KindDeadline, sampleRequest(t, kinds.KindDeadline, seed, "small"), adaptive)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		if _, err := m.Observe(id, 4, []int{2}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Quote(ids[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Finish(ids[0]); err != nil {
		t.Fatal(err)
	}
	clockMu.Lock()
	now = now.Add(2 * time.Minute)
	clockMu.Unlock()
	if n := m.ExpireIdle(); n != 2 {
		t.Fatalf("expired %d campaigns, want 2", n)
	}

	if live.created[kinds.KindDeadline+"/adaptive"] != 1 || live.created[kinds.KindDeadline] != 2 {
		t.Fatalf("live created = %v", live.created)
	}
	if live.observed != 3 || live.arrivals != 12 || live.complete != 6 {
		t.Fatalf("live observes = %d (arrivals %g, completed %d), want 3/12/6",
			live.observed, live.arrivals, live.complete)
	}
	if live.quoted != 1 || live.finished != 1 || live.expired != 2 {
		t.Fatalf("live quoted/finished/expired = %d/%d/%d, want 1/1/2",
			live.quoted, live.finished, live.expired)
	}

	// Detached sink: further mutations stream nowhere.
	m.AttachSink(nil)
	if _, err := m.Create(ctx, kinds.KindDeadline, sampleRequest(t, kinds.KindDeadline, 9, "small"), nil); err != nil {
		t.Fatal(err)
	}
	if got := live.created[kinds.KindDeadline]; got != 2 {
		t.Fatalf("detached sink still saw a create (count %d)", got)
	}

	if err := wlog.Sync(); err != nil {
		t.Fatal(err)
	}
	fold := newCountingSink()
	if err := FoldWAL(wal.NewReader(mem, "wal"), fold); err != nil {
		t.Fatalf("fold: %v", err)
	}
	// The fold sees one extra create (made after the live sink detached)
	// and zero quotes (never logged); every other total matches the live
	// stream exactly.
	if fold.created[kinds.KindDeadline] != 3 || fold.created[kinds.KindDeadline+"/adaptive"] != 1 {
		t.Fatalf("fold created = %v", fold.created)
	}
	if fold.observed != live.observed || fold.arrivals != live.arrivals || fold.complete != live.complete {
		t.Fatalf("fold observes = %d/%g/%d, live = %d/%g/%d",
			fold.observed, fold.arrivals, fold.complete, live.observed, live.arrivals, live.complete)
	}
	if fold.finished != 1 || fold.expired != 2 || fold.quoted != 0 {
		t.Fatalf("fold finished/expired/quoted = %d/%d/%d, want 1/2/0",
			fold.finished, fold.expired, fold.quoted)
	}
	if got, want := replayCounts(t, eng, mem).totals(), fold.totals(); got != want {
		t.Fatalf("replay streamed %s\nthe offline fold %s", got, want)
	}
}

// TestFoldWALAcrossCompaction: after a compaction snapshot, per-interval
// history is gone — the fold must still produce exact arrival totals
// (spread uniformly across the recorded interval count) plus the trailing
// post-snapshot events verbatim, and a replay of the log must stream the
// same.
func TestFoldWALAcrossCompaction(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 2})
	t.Cleanup(eng.Close)
	ctx := context.Background()

	mem := wal.NewMemFS()
	m := newWALManager(t, eng, Options{})
	wlog, err := m.OpenWAL("wal", wal.Options{FS: mem, SyncInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer wlog.Close()
	m.AttachWAL(wlog)

	var ids []string
	for _, seed := range []int64{1, 2} {
		st, err := m.Create(ctx, kinds.KindDeadline, sampleRequest(t, kinds.KindDeadline, seed, "small"), nil)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	// Pre-compaction history: uneven arrivals summing to 9 on the
	// survivor, and a finished campaign whose records compaction drops.
	for _, arr := range []float64{2, 7} {
		if _, err := m.Observe(ids[0], arr, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Observe(ids[1], 5, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Finish(ids[1]); err != nil {
		t.Fatal(err)
	}
	if err := wlog.Compact(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	if _, err := m.Observe(ids[0], 3, nil); err != nil {
		t.Fatal(err)
	}
	if err := wlog.Sync(); err != nil {
		t.Fatal(err)
	}

	fold := newCountingSink()
	if err := FoldWAL(wal.NewReader(mem, "wal"), fold); err != nil {
		t.Fatalf("fold: %v", err)
	}
	// The finished campaign predates the snapshot: it folds to nothing.
	// The survivor folds to one create, its pre-compaction total spread
	// over 2 intervals (4.5 + 4.5), and the trailing observe verbatim.
	if fold.created[kinds.KindDeadline] != 1 || fold.finished != 0 {
		t.Fatalf("fold created=%v finished=%d, want 1 create and 0 finishes", fold.created, fold.finished)
	}
	if fold.observed != 3 || fold.arrivals != 12 {
		t.Fatalf("fold observes = %d (arrivals %g), want 3 totalling 12", fold.observed, fold.arrivals)
	}
	if got, want := replayCounts(t, eng, mem).totals(), fold.totals(); got != want {
		t.Fatalf("replay streamed %s\nthe offline fold %s", got, want)
	}
}

// TestFoldWALRefusesWhatReplayRefuses: the offline fold interprets records
// with the replay's own rules, so wal stats refuses a log whose records a
// restart refuses instead of, say, counting a duplicated campaign twice.
func TestFoldWALRefusesWhatReplayRefuses(t *testing.T) {
	create := func(id string, seq int64) string {
		return fmt.Sprintf(`{"id": %q, "seq": %d, "kind": "deadline", "request": {}}`, id, seq)
	}
	entry := `{"id": "c1", "kind": "deadline", "request": {}, "remaining": [4], "interval": 0}`
	type record struct {
		typ  byte
		body string
	}
	for name, records := range map[string][]record{
		"second create for a live id": {
			{WALRecordCreate, create("c1", 1)},
			{WALRecordCreate, create("c1", 2)},
		},
		"snapshot naming an id twice": {
			{WALRecordSnapshot, `{"schema_version": 1, "next_seq": 1, "campaigns": [` + entry + `, ` + entry + `]}`},
		},
		"create without an id": {
			{WALRecordCreate, create("", 1)},
		},
	} {
		t.Run(name, func(t *testing.T) {
			mem := wal.NewMemFS()
			l, err := wal.Open("wal", wal.Options{FS: mem, SyncInterval: time.Hour})
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range records {
				if _, err := l.Append(r.typ, []byte(r.body)); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			fold := newCountingSink()
			if err := FoldWAL(wal.NewReader(mem, "wal"), fold); err == nil {
				t.Errorf("FoldWAL accepted the log and streamed %s", fold.totals())
			}
			if _, err := newTestManager(t, Options{}).ReplayWAL(context.Background(), wal.NewReader(mem, "wal")); err == nil {
				t.Error("ReplayWAL accepted the log")
			}
		})
	}
}

// TestWALRecordName pins the inspection-tool names for every record type.
func TestWALRecordName(t *testing.T) {
	want := map[byte]string{
		WALRecordCreate:   "create",
		WALRecordObserve:  "observe",
		WALRecordFinish:   "finish",
		WALRecordExpire:   "expire",
		WALRecordSnapshot: "snapshot",
		200:               "unknown(200)",
	}
	for typ, name := range want {
		if got := WALRecordName(typ); got != name {
			t.Errorf("WALRecordName(%d) = %q, want %q", typ, got, name)
		}
	}
}
