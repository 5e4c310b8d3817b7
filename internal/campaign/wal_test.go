package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"crowdpricing/internal/engine"
	"crowdpricing/internal/kinds"
	"crowdpricing/internal/wal"
)

// frozenClock is a fixed wall time shared by every manager in these tests:
// with the clock frozen, timestamps cannot distinguish a recovered manager
// from a never-crashed one, so state comparisons are exact.
var frozenClock = func() time.Time { return time.Unix(1_700_000_000, 0) }

// newWALManager builds a Manager over a shared engine (so re-solves across
// the many managers these tests spawn hit the policy cache).
func newWALManager(t testing.TB, eng *engine.Engine, opts Options) *Manager {
	t.Helper()
	if opts.now == nil {
		opts.now = frozenClock
	}
	if opts.TTL == 0 {
		opts.TTL = -1
	}
	m := NewManager(eng, nil, opts)
	t.Cleanup(m.Close)
	return m
}

// walOp is one scripted campaign mutation; every op emits exactly one log
// record, so event j of the log is op j of the script.
type walOp struct {
	op        string // create | observe | finish
	reqSeed   int64
	adaptive  *AdaptiveOptions
	idx       int // target campaign, in creation order
	arrivals  float64
	completed []int
}

// buildScript derives a deterministic workload from seed: three creates
// (one adaptive), observes across all three, a finish, then more observes
// on the survivors. All creates precede all observes, so every event
// prefix of the script is itself a valid history.
func buildScript(seed int64) []walOp {
	r := rand.New(rand.NewSource(seed))
	arr := []float64{0, 1.5, 2, 3.25, 5}
	ops := []walOp{
		{op: "create", reqSeed: r.Int63n(10), adaptive: &AdaptiveOptions{WindowIntervals: 2}},
		{op: "create", reqSeed: r.Int63n(10)},
		{op: "create", reqSeed: r.Int63n(10)},
	}
	for i := 0; i < 4; i++ {
		ops = append(ops, walOp{op: "observe", idx: r.Intn(3), arrivals: arr[r.Intn(len(arr))], completed: []int{r.Intn(2)}})
	}
	ops = append(ops, walOp{op: "finish", idx: 1})
	for i := 0; i < 3; i++ {
		ops = append(ops, walOp{op: "observe", idx: 2 * r.Intn(2), arrivals: arr[r.Intn(len(arr))], completed: []int{r.Intn(2)}})
	}
	return ops
}

// applyOp drives one scripted op against m, tracking created IDs in order.
func applyOp(t testing.TB, m *Manager, ids *[]string, op walOp) {
	t.Helper()
	switch op.op {
	case "create":
		st, err := m.Create(context.Background(), kinds.KindDeadline, sampleRequest(t, kinds.KindDeadline, op.reqSeed, "small"), op.adaptive)
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		*ids = append(*ids, st.ID)
	case "observe":
		if _, err := m.Observe((*ids)[op.idx], op.arrivals, op.completed); err != nil {
			t.Fatalf("observe %d: %v", op.idx, err)
		}
	case "finish":
		if _, err := m.Finish((*ids)[op.idx]); err != nil {
			t.Fatalf("finish %d: %v", op.idx, err)
		}
	default:
		t.Fatalf("unknown op %q", op.op)
	}
}

// liveIDs lists the live campaign IDs in sorted order.
func liveIDs(t testing.TB, m *Manager) []string {
	t.Helper()
	payload, err := m.snapshotPayload()
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Campaigns []struct {
			ID string `json:"id"`
		} `json:"campaigns"`
	}
	if err := json.Unmarshal(payload, &file); err != nil {
		t.Fatal(err)
	}
	ids := make([]string, 0, len(file.Campaigns))
	for _, c := range file.Campaigns {
		ids = append(ids, c.ID)
	}
	return ids
}

// normalizedSnapshot renders m's compaction payload with the fields that
// legitimately differ between a recovered manager and a reference run
// removed: the LSN high-water marks (only logged managers have them) and
// timestamps that are identical anyway under the frozen clock but not part
// of quote state.
func normalizedSnapshot(t testing.TB, m *Manager) string {
	t.Helper()
	payload, err := m.snapshotPayload()
	if err != nil {
		t.Fatal(err)
	}
	var file map[string]any
	if err := json.Unmarshal(payload, &file); err != nil {
		t.Fatal(err)
	}
	delete(file, "taken_at")
	if cs, ok := file["campaigns"].([]any); ok {
		for _, c := range cs {
			if cm, ok := c.(map[string]any); ok {
				delete(cm, "last_lsn")
				delete(cm, "last_touched_unix_nano")
			}
		}
	}
	out, err := json.Marshal(file)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// walSignature captures everything quote-visible about a manager: its full
// normalized state plus the exact prices it quotes while being driven
// through a fixed continuation. Two managers with equal signatures are
// bit-identical as pricing services.
type walSignature struct {
	Snapshot string
	Trace    []string
}

func signatureOf(t testing.TB, m *Manager) walSignature {
	t.Helper()
	sig := walSignature{Snapshot: normalizedSnapshot(t, m)}
	contArrivals := []float64{2.5, 4, 1}
	for _, id := range liveIDs(t, m) {
		for step := 0; step < len(contArrivals); step++ {
			q, err := m.Quote(id)
			if err != nil {
				t.Fatalf("quote %s: %v", id, err)
			}
			sig.Trace = append(sig.Trace, fmt.Sprintf("%s interval=%d price=%v prices=%v remaining=%v done=%v factor=%v",
				id, q.Interval, q.Price, q.Prices, q.Remaining, q.Done, q.ActiveFactor))
			if q.Done {
				break
			}
			completed := make([]int, len(q.Remaining))
			completed[0] = 1
			if _, err := m.Observe(id, contArrivals[step], completed); err != nil {
				t.Fatalf("observe %s: %v", id, err)
			}
		}
	}
	return sig
}

// TestCrashRecoveryEveryByte is the crash-recovery property test: run a
// seeded workload with the log spread over three segments, then kill the
// log at EVERY byte offset of the final segment. For each truncation point
// recovery must start (never refuse, never corrupt), replay exactly the
// events whose frames survived whole, and leave a manager whose quoted
// prices are bit-identical to a never-crashed run of that event prefix.
func TestCrashRecoveryEveryByte(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 2})
	t.Cleanup(eng.Close)
	ctx := context.Background()

	for _, seed := range []int64{1, 7, 23} {
		script := buildScript(seed)
		// Record the workload: Sync points seal segments (SegmentBytes: 1),
		// so the final segment holds only the post-finish observes and the
		// byte sweep below stays cheap while still crossing whole segments.
		master := wal.NewMemFS()
		m := newWALManager(t, eng, Options{})
		// SegmentBytes: 1 seals a segment per Sync; the huge CompactBytes
		// keeps auto-compaction from folding the sealed segments away (the
		// compaction path has its own test below).
		wlog, err := m.OpenWAL("wal", wal.Options{FS: master, SyncInterval: time.Hour, SegmentBytes: 1, CompactBytes: 1 << 40})
		if err != nil {
			t.Fatal(err)
		}
		m.AttachWAL(wlog)
		var ids []string
		for i, op := range script {
			applyOp(t, m, &ids, op)
			if i == 3 || i == 7 {
				if err := wlog.Sync(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := wlog.Close(); err != nil {
			t.Fatal(err)
		}

		// Map byte offsets of the final segment to intact-event counts.
		report, err := wal.Scan(master, "wal", nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(report.Segments) != 3 {
			t.Fatalf("seed %d: workload produced %d segments, want 3", seed, len(report.Segments))
		}
		finalSeg := report.Segments[2]
		priorEvents := int(report.Segments[0].Records + report.Segments[1].Records)
		var frameEnds []int64
		if _, err := wal.Scan(master, "wal", func(_ wal.Record, pos wal.FramePos) error {
			if pos.Segment == finalSeg.Seq {
				frameEnds = append(frameEnds, pos.End)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		finalName := "wal/" + finalSeg.Name
		full, ok := master.ReadFile(finalName)
		if !ok {
			t.Fatalf("seed %d: final segment missing", seed)
		}

		// Reference signatures per intact-event count, built on demand from
		// never-crashed replays of the script prefix.
		refs := map[int]walSignature{}
		reference := func(events int) walSignature {
			if sig, ok := refs[events]; ok {
				return sig
			}
			ref := newWALManager(t, eng, Options{})
			var refIDs []string
			for _, op := range script[:events] {
				applyOp(t, ref, &refIDs, op)
			}
			sig := signatureOf(t, ref)
			refs[events] = sig
			return sig
		}

		for cut := 0; cut <= len(full); cut++ {
			events := priorEvents
			for _, end := range frameEnds {
				if end <= int64(cut) {
					events++
				}
			}
			fs := master.Clone()
			fs.WriteFile(finalName, full[:cut])
			lg, err := wal.Open("wal", wal.Options{FS: fs, SyncInterval: time.Hour})
			if err != nil {
				t.Fatalf("seed %d cut %d: recovery refused to start: %v", seed, cut, err)
			}
			rec := newWALManager(t, eng, Options{})
			stats, err := rec.ReplayWAL(ctx, lg)
			if err != nil {
				t.Fatalf("seed %d cut %d: replay failed: %v", seed, cut, err)
			}
			if err := lg.Close(); err != nil {
				t.Fatalf("seed %d cut %d: close: %v", seed, cut, err)
			}
			if stats.Records != int64(events) {
				t.Fatalf("seed %d cut %d: replayed %d records, want the %d whole frames",
					seed, cut, stats.Records, events)
			}
			if got, want := signatureOf(t, rec), reference(events); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d cut %d (%d events): recovered state diverged from the never-crashed run\n got: %+v\nwant: %+v",
					seed, cut, events, got, want)
			}
		}
	}
}

// TestSnapshotWALEquivalence restores a history through WAL replay across
// a compaction boundary — a snapshot record plus trailing events — and
// requires the original and the replayed manager to quote bit-identical
// price sequences.
func TestSnapshotWALEquivalence(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 2})
	t.Cleanup(eng.Close)
	ctx := context.Background()

	mem := wal.NewMemFS()
	w := newWALManager(t, eng, Options{})
	wlog, err := w.OpenWAL("wal", wal.Options{FS: mem, SyncInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer wlog.Close()
	if stats, err := w.ReplayWAL(ctx, wlog); err != nil || stats.Records != 0 {
		t.Fatalf("empty-log replay: stats=%+v err=%v", stats, err)
	}
	w.AttachWAL(wlog)

	script := buildScript(99)
	var ids []string
	for i, op := range script {
		applyOp(t, w, &ids, op)
		if i == 5 {
			// Compact mid-history: everything after this point replays from
			// a snapshot record plus trailing events.
			if err := wlog.Compact(); err != nil {
				t.Fatalf("compact: %v", err)
			}
		}
	}
	if err := wlog.Sync(); err != nil {
		t.Fatal(err)
	}

	// WAL replay (read-only, across the compaction boundary).
	viaWAL := newWALManager(t, eng, Options{})
	stats, err := viaWAL.ReplayWAL(ctx, wal.NewReader(mem, "wal"))
	if err != nil {
		t.Fatalf("wal replay: %v", err)
	}
	if stats.Snapshots != 1 {
		t.Fatalf("replay crossed %d snapshot records, want 1 (compaction did not land)", stats.Snapshots)
	}
	if got := wlog.Metrics().Compactions; got != 1 {
		t.Fatalf("log ran %d compactions, want 1", got)
	}

	sigW := signatureOf(t, w)
	sigR := signatureOf(t, viaWAL)
	if !reflect.DeepEqual(sigR, sigW) {
		t.Fatalf("wal replay diverged from the original\n got: %+v\nwant: %+v", sigR, sigW)
	}
}

// TestQuoteCountRestartsAtZero: quotes are reads and are never logged, so
// a replayed campaign counts quotes from zero whether or not a compaction
// record sits in its history. A count carried by the compaction record
// alone would make the restarted state depend on when the log compacted.
func TestQuoteCountRestartsAtZero(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 2})
	t.Cleanup(eng.Close)
	ctx := context.Background()

	replayedQuotes := func(compact bool) int64 {
		t.Helper()
		mem := wal.NewMemFS()
		m := newWALManager(t, eng, Options{})
		wlog, err := m.OpenWAL("wal", wal.Options{FS: mem, SyncInterval: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		defer wlog.Close()
		m.AttachWAL(wlog)
		st, err := m.Create(ctx, kinds.KindDeadline, sampleRequest(t, kinds.KindDeadline, 3, "small"), nil)
		if err != nil {
			t.Fatal(err)
		}
		quote := func(n int) {
			for i := 0; i < n; i++ {
				if _, err := m.Quote(st.ID); err != nil {
					t.Fatal(err)
				}
			}
		}
		quote(10)
		if compact {
			if err := wlog.Compact(); err != nil {
				t.Fatal(err)
			}
		}
		quote(5)
		if live, err := m.State(st.ID); err != nil || live.Quotes != 15 {
			t.Fatalf("live state: %+v, %v; want 15 quotes", live, err)
		}
		if err := wlog.Sync(); err != nil {
			t.Fatal(err)
		}

		r := newWALManager(t, eng, Options{})
		stats, err := r.ReplayWAL(ctx, wal.NewReader(mem, "wal"))
		if err != nil {
			t.Fatal(err)
		}
		if compact && stats.Snapshots != 1 {
			t.Fatalf("replay crossed %d snapshot records, want 1 (compaction did not land)", stats.Snapshots)
		}
		got, err := r.State(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		return got.Quotes
	}
	plain, compacted := replayedQuotes(false), replayedQuotes(true)
	if plain != 0 || compacted != 0 {
		t.Fatalf("replayed quote counts: %d without compaction, %d with; want 0 for both", plain, compacted)
	}
}

// TestExpireEventLogged pins the sweeper fix: TTL expiry must reach the
// log, or a crash after an expiry would resurrect the campaign at replay.
func TestExpireEventLogged(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 2})
	t.Cleanup(eng.Close)
	ctx := context.Background()

	now := time.Unix(1_700_000_000, 0)
	var mu sync.Mutex
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	advance := func(d time.Duration) {
		mu.Lock()
		now = now.Add(d)
		mu.Unlock()
	}

	mem := wal.NewMemFS()
	m := newWALManager(t, eng, Options{TTL: time.Minute, now: clock})
	wlog, err := m.OpenWAL("wal", wal.Options{FS: mem, SyncInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	m.AttachWAL(wlog)

	st1, err := m.Create(ctx, kinds.KindDeadline, sampleRequest(t, kinds.KindDeadline, 3, "small"), nil)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := m.Create(ctx, kinds.KindDeadline, sampleRequest(t, kinds.KindDeadline, 4, "small"), nil)
	if err != nil {
		t.Fatal(err)
	}
	advance(45 * time.Second)
	if _, err := m.Quote(st2.ID); err != nil { // touch: st2 survives
		t.Fatal(err)
	}
	advance(30 * time.Second)
	if n := m.ExpireIdle(); n != 1 {
		t.Fatalf("expired %d campaigns, want 1", n)
	}
	if err := wlog.Close(); err != nil {
		t.Fatal(err)
	}

	// The expiry is in the log...
	var expired []string
	if err := wal.NewReader(mem, "wal").Replay(func(rec wal.Record) error {
		if rec.Type == WALRecordExpire {
			var ev walRefEvent
			if err := json.Unmarshal(rec.Data, &ev); err != nil {
				return err
			}
			expired = append(expired, ev.ID)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(expired) != 1 || expired[0] != st1.ID {
		t.Fatalf("expire records %v, want exactly [%s]", expired, st1.ID)
	}

	// ...so replay does not resurrect the expired campaign.
	re := newWALManager(t, eng, Options{TTL: time.Minute, now: clock})
	stats, err := re.ReplayWAL(ctx, wal.NewReader(mem, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Removed != 1 || stats.Campaigns != 1 {
		t.Fatalf("replay stats %+v, want Removed=1 Campaigns=1", stats)
	}
	if _, err := re.State(st1.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("expired campaign resurrected by replay: %v", err)
	}
	if _, err := re.State(st2.ID); err != nil {
		t.Fatalf("surviving campaign lost in replay: %v", err)
	}
}

// TestWALFailStopSurfacesOnMutations: once the log fail-stops, campaign
// writes must stop acknowledging — a mutation that can never be durable is
// an error, not a success.
func TestWALFailStopSurfacesOnMutations(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 2})
	t.Cleanup(eng.Close)
	ctx := context.Background()

	boom := errors.New("disk detached")
	fault := wal.NewFaultFS(wal.NewMemFS())
	m := newWALManager(t, eng, Options{})
	wlog, err := m.OpenWAL("wal", wal.Options{FS: fault, SyncInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer wlog.Close()
	m.AttachWAL(wlog)

	st, err := m.Create(ctx, kinds.KindDeadline, sampleRequest(t, kinds.KindDeadline, 3, "small"), nil)
	if err != nil {
		t.Fatal(err)
	}
	fault.FailWritesAfter(0, boom)
	if err := wlog.Sync(); !errors.Is(err, boom) {
		t.Fatalf("sync = %v, want %v", err, boom)
	}
	if _, err := m.Observe(st.ID, 2, nil); !errors.Is(err, boom) {
		t.Fatalf("observe on a fail-stopped log = %v, want %v", err, boom)
	}
	if _, err := m.Create(ctx, kinds.KindDeadline, sampleRequest(t, kinds.KindDeadline, 5, "small"), nil); !errors.Is(err, boom) {
		t.Fatalf("create on a fail-stopped log = %v, want %v", err, boom)
	}
	// Reads stay up: quoting is deliberately not logged.
	if _, err := m.Quote(st.ID); err != nil {
		t.Fatalf("quote on a fail-stopped log: %v", err)
	}
}
