package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"crowdpricing/internal/analytics"
	"crowdpricing/internal/campaign"
	"crowdpricing/internal/kinds"
	"crowdpricing/internal/wal"
)

// campaignDeadlineRequest is a small, fast-solving deadline problem for
// campaign lifecycle tests.
func campaignDeadlineRequest() kinds.DeadlineRequest {
	return kinds.DeadlineRequest{
		N:            10,
		HorizonHours: 4,
		Intervals:    8,
		Lambdas:      []float64{12, 12, 12, 12, 12, 12, 12, 12},
		Accept:       testAccept,
		MinPrice:     1,
		MaxPrice:     25,
		Penalty:      100,
		TruncEps:     1e-9,
	}
}

// TestCampaignLifecycleHTTP is the acceptance-criteria walk: create →
// observe → quote → finish over real HTTP, every quoted price checked
// against the solved policy table, fully deterministic.
func TestCampaignLifecycleHTTP(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	client := NewClient(ts.URL)
	ctx := context.Background()
	req := campaignDeadlineRequest()

	// Ground truth: the same problem solved through the stateless endpoint.
	solved, err := client.Solve(ctx, kinds.KindDeadline, req)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := solved.DecodePolicy()
	if err != nil {
		t.Fatal(err)
	}

	st, err := client.CreateCampaign(ctx, kinds.KindDeadline, req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !st.SolveCacheHit {
		t.Error("campaign create re-solved a problem the cache already held")
	}
	if st.Remaining[0] != req.N || st.Interval != 0 || st.Horizon != req.Intervals {
		t.Fatalf("fresh campaign state %+v", st)
	}

	n := req.N
	for tt := 0; tt < req.Intervals; tt++ {
		q, err := client.CampaignPrice(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if want := pol.PriceAt(n, tt); q.Price != want {
			t.Fatalf("interval %d, %d remaining: quoted %d over HTTP, policy table says %d", tt, n, q.Price, want)
		}
		done := 0
		if n > 0 {
			done = 1
		}
		after, err := client.ObserveCampaign(ctx, st.ID, 12, []int{done})
		if err != nil {
			t.Fatal(err)
		}
		n -= done
		if after.Interval != tt+1 || after.Remaining[0] != n {
			t.Fatalf("state after observe %d: %+v, want interval %d remaining %d", tt, after, tt+1, n)
		}
	}

	sum, err := client.FinishCampaign(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Intervals != req.Intervals || sum.Quotes != int64(req.Intervals) {
		t.Fatalf("summary %+v", sum)
	}
	if _, err := client.CampaignPrice(ctx, st.ID); apiStatus(err) != http.StatusNotFound {
		t.Fatalf("price after finish: %v, want 404", err)
	}
}

// apiStatus extracts the HTTP status from an APIError (0 otherwise).
func apiStatus(err error) int {
	if apiErr, ok := err.(*APIError); ok {
		return apiErr.StatusCode
	}
	return 0
}

// bootWAL boots s's campaign event log on fsys in cmd/priced's order:
// OpenWAL → ReplayWAL → AttachWAL.
func bootWAL(t *testing.T, s *Server, fsys wal.FS) *wal.Log {
	t.Helper()
	l, err := s.Campaigns().OpenWAL("wal", wal.Options{FS: fsys, SyncInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	if _, err := s.Campaigns().ReplayWAL(context.Background(), l); err != nil {
		t.Fatal(err)
	}
	s.AttachWAL(l)
	return l
}

// openCounter is a wal.FS that counts read-only opens per file name: how
// many times a boot reads each log segment.
type openCounter struct {
	wal.FS
	mu    sync.Mutex
	opens map[string]int
}

func (c *openCounter) Open(name string) (wal.File, error) {
	c.mu.Lock()
	c.opens[filepath.Base(name)]++
	c.mu.Unlock()
	return c.FS.Open(name)
}

// TestCampaignSnapshotRestartHTTP proves the restart story end-to-end:
// campaigns created and advanced over HTTP on daemon A, whose event log is
// compacted into a snapshot record mid-history and then closed (a graceful
// stop), and a brand-new daemon B booted on the same log quotes
// byte-identical prices. B's boot reads each segment twice (the recovery
// scan, then replay), and its analytics plane holds the recorded history
// exactly once, as the offline fold of the log reads it.
func TestCampaignSnapshotRestartHTTP(t *testing.T) {
	mem := wal.NewMemFS()
	srvA, tsA := newTestServer(t, Options{})
	logA := bootWAL(t, srvA, mem)
	clientA := NewClient(tsA.URL)
	ctx := context.Background()

	st, err := clientA.CreateCampaign(ctx, kinds.KindDeadline, campaignDeadlineRequest(),
		&CampaignAdaptiveOptions{WindowIntervals: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if i == 2 {
			// B rebuilds from the snapshot entry, then replays the last
			// observe on top of it.
			if err := logA.Compact(); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := clientA.ObserveCampaign(ctx, st.ID, float64(20+5*i), []int{1}); err != nil {
			t.Fatal(err)
		}
	}
	qa, err := clientA.CampaignPrice(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := logA.Close(); err != nil {
		t.Fatal(err)
	}

	segments, err := mem.ReadDir("wal")
	if err != nil || len(segments) == 0 {
		t.Fatalf("daemon A's log segments: %v (err %v)", segments, err)
	}
	counted := &openCounter{FS: mem, opens: make(map[string]int)}
	srvB, tsB := newTestServer(t, Options{})
	bootWAL(t, srvB, counted)
	for _, name := range segments {
		if n := counted.opens[name]; n != 2 {
			t.Errorf("boot opened segment %s %d times, want 2 (recovery scan, replay)", name, n)
		}
	}

	clientB := NewClient(tsB.URL)
	got, err := clientB.Analytics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	fold := analytics.New(0)
	if err := campaign.FoldWAL(wal.NewReader(mem, "wal"), fold); err != nil {
		t.Fatal(err)
	}
	gotJSON, err := json.Marshal(got.Analytics)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(fold.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON, wantJSON) || got.Analytics.Observes != 3 {
		t.Fatalf("restored daemon's analytics %s\nthe log folds to %s (3 observes)", gotJSON, wantJSON)
	}

	qb, err := clientB.CampaignPrice(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if qa.Price != qb.Price || qa.Interval != qb.Interval || qa.ActiveFactor != qb.ActiveFactor {
		t.Fatalf("restored daemon quotes %+v, original %+v", qb, qa)
	}
}

// TestCampaignObserveArrivalLimit: an observe reporting more arrivals than
// kinds.MaxArrivals for one interval gets a 400 naming the limit and
// changes nothing, neither the campaign's interval nor the event log, and
// the finish that follows answers a summary the client decodes. A count at
// the limit is served. Without the limit, two observes of math.MaxFloat64
// made the campaign's running total +Inf: the adaptive observe's own
// response, the finish summary and every compaction snapshot then failed
// to encode, and the client read an empty 200.
func TestCampaignObserveArrivalLimit(t *testing.T) {
	srv, ts := newTestServer(t, Options{})
	l := bootWAL(t, srv, wal.NewMemFS())
	client := NewClient(ts.URL)
	ctx := context.Background()
	st, err := client.CreateCampaign(ctx, kinds.KindDeadline, campaignDeadlineRequest(),
		&CampaignAdaptiveOptions{WindowIntervals: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.ObserveCampaign(ctx, st.ID, 12, []int{1}); err != nil {
		t.Fatal(err)
	}
	appends := l.Metrics().Appends
	for _, body := range []string{
		`{"arrivals":1e300}`,
		`{"arrivals":1.7976931348623157e308,"completed":[1]}`,
		`{"arrivals":1.7976931348623157e308,"completed":[1]}`,
		`{"arrivals":1000000.5}`,
	} {
		status, raw, _ := postRaw(t, ts.URL+"/v1/campaigns/"+st.ID+"/observe", body)
		if status != http.StatusBadRequest || !strings.Contains(string(raw), "service limit") {
			t.Errorf("observe %s: status %d, body %s; want 400 naming the service limit", body, status, raw)
		}
	}
	if got := l.Metrics().Appends; got != appends {
		t.Errorf("rejected observes appended %d log records, want 0", got-appends)
	}
	after, err := client.CampaignState(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if after.Interval != 1 || after.Remaining[0] != campaignDeadlineRequest().N-1 {
		t.Fatalf("rejected observes moved the campaign to %+v", after)
	}
	if _, err := client.ObserveCampaign(ctx, st.ID, 1e6, nil); err != nil {
		t.Fatalf("observe at the limit: %v", err)
	}
	sum, err := client.FinishCampaign(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Intervals != 2 || sum.ObservedArrivals != 12+1e6 {
		t.Fatalf("finish summary %+v, want 2 intervals and 1000012 arrivals", sum)
	}
}

// TestCampaignReplyEncodeFailure: a log written before the observe limit
// can hold two observes of math.MaxFloat64, and replay still folds them,
// so the campaign's running total is +Inf and its finish summary cannot
// be encoded. The finish must answer 500 with the encoder's error, where
// it used to answer 200 with an empty body.
func TestCampaignReplyEncodeFailure(t *testing.T) {
	ctx := context.Background()
	fsys := wal.NewMemFS()
	srvA, tsA := newTestServer(t, Options{})
	logA := bootWAL(t, srvA, fsys)
	st, err := NewClient(tsA.URL).CreateCampaign(ctx, kinds.KindDeadline, campaignDeadlineRequest(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := logA.Close(); err != nil {
		t.Fatal(err)
	}
	l, err := wal.Open("wal", wal.Options{FS: fsys, SyncInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	observe, err := json.Marshal(map[string]any{"id": st.ID, "arrivals": math.MaxFloat64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := l.Append(campaign.WALRecordObserve, observe); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	srvB, tsB := newTestServer(t, Options{})
	bootWAL(t, srvB, fsys)
	sum, err := NewClient(tsB.URL).FinishCampaign(ctx, st.ID)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusInternalServerError ||
		!strings.Contains(apiErr.Message, "unsupported value") {
		t.Fatalf("finish of a campaign with +Inf arrivals: summary %+v, err %v; want a 500 naming the unsupported value", sum, err)
	}
}

// TestCampaignHTTPErrors pins the error → status map.
func TestCampaignHTTPErrors(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	client := NewClient(ts.URL)
	ctx := context.Background()

	if _, err := client.CampaignPrice(ctx, "no-such-campaign"); apiStatus(err) != http.StatusNotFound {
		t.Errorf("unknown id: %v, want 404", err)
	}
	if _, err := client.FinishCampaign(ctx, "no-such-campaign"); apiStatus(err) != http.StatusNotFound {
		t.Errorf("finish unknown id: %v, want 404", err)
	}
	if _, err := client.CreateCampaign(ctx, kinds.KindBudget, testBudgetRequest(), nil); apiStatus(err) != http.StatusBadRequest {
		t.Errorf("budget campaign: %v, want 400", err)
	}
	if _, err := client.CreateCampaign(ctx, kinds.KindTradeoff, testTradeoffRequest(), &CampaignAdaptiveOptions{}); apiStatus(err) != http.StatusBadRequest {
		t.Errorf("adaptive tradeoff campaign: %v, want 400", err)
	}
	if _, err := client.CreateCampaign(ctx, kinds.KindDeadline, map[string]any{"n": -5}, nil); apiStatus(err) != http.StatusBadRequest {
		t.Errorf("invalid problem: %v, want 400", err)
	}

	st, err := client.CreateCampaign(ctx, kinds.KindDeadline, campaignDeadlineRequest(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.ObserveCampaign(ctx, st.ID, -3, nil); apiStatus(err) != http.StatusBadRequest {
		t.Errorf("negative arrivals: %v, want 400", err)
	}
	if _, err := client.ObserveCampaign(ctx, st.ID, 5, []int{1, 2}); apiStatus(err) != http.StatusBadRequest {
		t.Errorf("wrong completion arity: %v, want 400", err)
	}

	// Wrong method on a campaign route: the mux's method patterns answer
	// 405 with Allow set.
	res, err := http.Post(ts.URL+"/v1/campaigns/"+st.ID+"/price", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST on price route: %d, want 405", res.StatusCode)
	}
}

// TestFlexCounts pins the wire flexibility of "completed".
func TestFlexCounts(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []int
		ok   bool
	}{
		{`{"arrivals": 1, "completed": 3}`, []int{3}, true},
		{`{"arrivals": 1, "completed": [1, 2]}`, []int{1, 2}, true},
		{`{"arrivals": 1, "completed": null}`, nil, true},
		{`{"arrivals": 1}`, nil, true},
		{`{"arrivals": 1, "completed": "three"}`, nil, false},
	} {
		var req CampaignObserveRequest
		err := json.Unmarshal([]byte(tc.in), &req)
		if tc.ok != (err == nil) {
			t.Errorf("%s: err=%v, want ok=%v", tc.in, err, tc.ok)
			continue
		}
		if !tc.ok {
			continue
		}
		if len(req.Completed) != len(tc.want) {
			t.Errorf("%s: decoded %v, want %v", tc.in, req.Completed, tc.want)
			continue
		}
		for i := range tc.want {
			if req.Completed[i] != tc.want[i] {
				t.Errorf("%s: decoded %v, want %v", tc.in, req.Completed, tc.want)
			}
		}
	}
}

// TestCampaignMetrics checks the campaign gauges/counters surface on
// /metrics and through the snapshot.
func TestCampaignMetrics(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	client := NewClient(ts.URL)
	ctx := context.Background()

	st, err := client.CreateCampaign(ctx, kinds.KindDeadline, campaignDeadlineRequest(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := client.CampaignPrice(ctx, st.ID); err != nil {
			t.Fatal(err)
		}
	}

	m := s.Metrics()
	if m.Campaigns.Active != 1 {
		t.Fatalf("snapshot %+v, want 1 active campaign", m)
	}

	res, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var body bytes.Buffer
	if _, err := body.ReadFrom(res.Body); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"crowdpricing_campaigns_active 1",
		`crowdpricing_cohort_quotes_total{cohort="deadline"} 3`,
		"crowdpricing_campaign_replans_total 0",
		"crowdpricing_campaigns_expired_total 0",
	} {
		if !strings.Contains(body.String(), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
