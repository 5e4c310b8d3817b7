package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"crowdpricing/internal/engine"
	"crowdpricing/internal/wal"
)

// recordedLogDir holds the segment files of an event log an earlier
// binary wrote, and recordedLogGolden what that binary replayed it to.
const (
	recordedLogDir    = "testdata/recorded-log"
	recordedLogGolden = "testdata/recorded-log.golden.json"
)

// recordedReplay is the golden's layout: ReplayWAL's stats, then each live
// campaign's State and first Quote after the replay, in ID order.
type recordedReplay struct {
	Stats     *WALReplayStats    `json:"stats"`
	Campaigns []recordedCampaign `json:"campaigns"`
}

type recordedCampaign struct {
	State *State `json:"state"`
	Quote *Quote `json:"quote"`
}

// TestReplayRecordedLog replays an event log that an earlier version of
// this package wrote, so a change that renames a record field on both the
// write side and the read side, or rebuilds a campaign differently from
// its record, fails here even though every write-then-replay test passes.
//
// The log was written at sampler size small (deadline markets thinned as
// thinMarketRequest does) under a frozen clock with a one-minute TTL: a
// static deadline, an adaptive deadline (window 2), a tradeoff and a multi
// campaign, each observed (the adaptive one at twice its trained arrivals,
// so it re-plans); a static deadline campaign finished and another
// expired; a compaction; more observes on the four survivors; then, in a
// second segment, one new adaptive create on the default grid, observed
// once. Its replay rebuilds four campaigns from snapshot entries and one
// from its create record. The log is never regenerated: a change that
// means to move the replayed state says why and rewrites the golden (a
// failure logs the recomputed one).
//
// The golden is pinned on amd64 only, like the artifact digests: Go may
// fuse a multiply and an add on other architectures, which can move a
// solved price that sits at a near-tie.
func TestReplayRecordedLog(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the replayed quotes are pinned on amd64; Go fuses multiply-adds on %s", runtime.GOARCH)
	}
	entries, err := os.ReadDir(recordedLogDir)
	if err != nil {
		t.Fatal(err)
	}
	mem := wal.NewMemFS()
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(recordedLogDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		mem.WriteFile("wal/"+e.Name(), data)
	}
	golden, err := os.ReadFile(recordedLogGolden)
	if err != nil {
		t.Fatal(err)
	}

	eng := engine.New(engine.Options{Workers: 2})
	t.Cleanup(eng.Close)
	m := newWALManager(t, eng, Options{})
	stats, err := m.ReplayWAL(context.Background(), wal.NewReader(mem, "wal"))
	if err != nil {
		t.Fatalf("replaying the recorded log: %v", err)
	}
	got := recordedReplay{Stats: stats}
	for _, id := range liveIDs(t, m) {
		st, err := m.State(id)
		if err != nil {
			t.Fatal(err)
		}
		q, err := m.Quote(id)
		if err != nil {
			t.Fatal(err)
		}
		got.Campaigns = append(got.Campaigns, recordedCampaign{State: st, Quote: q})
	}
	body, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	body = append(body, '\n')
	if !bytes.Equal(body, golden) {
		t.Fatalf("the recorded log replays differently from %s; recomputed file:\n%s", recordedLogGolden, body)
	}
}
