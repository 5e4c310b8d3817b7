package bench

import (
	"context"
	"testing"
	"time"

	"crowdpricing/internal/kinds"
	"crowdpricing/internal/wal"
)

func campaignConfig() Config {
	return Config{
		Seed:          1,
		Rate:          30,
		Duration:      2 * time.Second,
		Warmup:        500 * time.Millisecond,
		Cardinality:   3,
		Size:          SizeSmall,
		Scenario:      ScenarioCampaign,
		CampaignSteps: 4,
	}
}

// TestCampaignScheduleDeterministic: campaign schedules — arrivals, specs,
// and the per-session observation scripts — are pure functions of the
// config.
func TestCampaignScheduleDeterministic(t *testing.T) {
	cfg := campaignConfig()
	a, err := GenerateSchedule(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateSchedule(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Hash != b.Hash {
		t.Fatalf("equal configs hashed %s vs %s", a.Hash, b.Hash)
	}
	if len(a.Requests) != len(b.Requests) {
		t.Fatalf("request counts differ: %d vs %d", len(a.Requests), len(b.Requests))
	}
	for i := range a.Requests {
		qa, qb := a.Requests[i], b.Requests[i]
		if qa.Steps != cfg.CampaignSteps || len(qa.StepArrivals) != qa.Steps || len(qa.StepShares) != qa.Steps {
			t.Fatalf("request %d script malformed: %+v", i, qa)
		}
		for s := range qa.StepArrivals {
			if qa.StepArrivals[s] != qb.StepArrivals[s] || qa.StepShares[s] != qb.StepShares[s] {
				t.Fatalf("request %d step %d scripts diverged", i, s)
			}
		}
	}

	// The scenario is part of the hash: the same seed on the solve
	// scenario is a different workload.
	solve := cfg
	solve.Scenario = ScenarioSolve
	solve.CampaignSteps = 0
	s, err := GenerateSchedule(solve)
	if err != nil {
		t.Fatal(err)
	}
	if s.Hash == a.Hash {
		t.Fatal("solve and campaign schedules share a hash")
	}
}

// TestCampaignMixValidation: kinds without a campaign runtime are rejected
// up front, as are adaptive mixes beyond deadline.
func TestCampaignMixValidation(t *testing.T) {
	cfg := campaignConfig()
	cfg.Mix = Mix{kinds.KindBudget: 1}
	if _, err := GenerateSchedule(cfg); err == nil {
		t.Error("budget campaign mix accepted")
	}
	cfg = campaignConfig()
	cfg.Mix = Mix{kinds.KindTradeoff: 1}
	cfg.CampaignAdaptive = true
	if _, err := GenerateSchedule(cfg); err == nil {
		t.Error("adaptive tradeoff campaign mix accepted")
	}
	cfg = campaignConfig()
	cfg.Scenario = ScenarioSolve
	cfg.CampaignSteps = 3
	if _, err := GenerateSchedule(cfg); err == nil {
		t.Error("campaign knobs accepted on the solve scenario")
	}
}

// TestCampaignScenarioSmoke is the CI-smoke shape: a short fixed-seed
// campaign run against a fresh in-process server must complete with zero
// errors, register campaign activity on the server's metrics, and leave no
// live campaigns behind (every session finishes what it creates).
func TestCampaignScenarioSmoke(t *testing.T) {
	sched, err := GenerateSchedule(campaignConfig())
	if err != nil {
		t.Fatal(err)
	}
	target, srv := NewInProcessTarget()
	res, err := Run(context.Background(), sched, RunOptions{Target: NewTargetFor(sched, target.Client)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Overall.Errors != 0 {
		t.Fatalf("campaign run produced %d errors; samples: %v", res.Overall.Errors, res.ErrorSamples)
	}
	if res.Overall.Requests == 0 {
		t.Fatal("no measured sessions")
	}
	// Cardinality 3 ⇒ after the first few sessions every create is a warm
	// policy hit.
	hitRatio := float64(res.Overall.CacheHits) / float64(res.Overall.Requests)
	if hitRatio < 0.5 {
		t.Errorf("create cache hit ratio %.2f below 0.5", hitRatio)
	}

	an, err := target.Client.Analytics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var quotes int64
	for _, c := range an.Analytics.Cohorts {
		quotes += c.Quotes
	}
	sessions := res.Overall.Requests + res.Warmed
	if quotes != sessions*int64(sched.Config.CampaignSteps) {
		t.Errorf("server counted %d campaign quotes, want %d sessions × %d steps",
			quotes, sessions, sched.Config.CampaignSteps)
	}
	m := srv.Metrics()
	if m.Campaigns.Active != 0 {
		t.Errorf("%d campaigns left live after the run; sessions must finish what they create", m.Campaigns.Active)
	}

	rep := BuildReport(sched.Config, "in-process", res, time.Time{})
	if rep.Latency.P50Millis <= 0 {
		t.Errorf("implausible session latency %+v", rep.Latency)
	}
	if _, ok := rep.Endpoints[kinds.KindDeadline]; !ok {
		t.Error("campaign sessions missing from the deadline endpoint bucket")
	}
}

// TestCampaignDurabilityScenarioSmoke is the durability leg: the same
// campaign workload with an event log attached must finish with zero
// errors, log every mutation, and leave a log that replays cleanly into an
// empty table (every session finished, so nothing should survive replay).
func TestCampaignDurabilityScenarioSmoke(t *testing.T) {
	sched, err := GenerateSchedule(campaignConfig())
	if err != nil {
		t.Fatal(err)
	}
	target, srv := NewInProcessTarget()
	mem := wal.NewMemFS()
	wlog, err := srv.Campaigns().OpenWAL("wal", wal.Options{FS: mem})
	if err != nil {
		t.Fatal(err)
	}
	srv.AttachWAL(wlog)
	res, err := Run(context.Background(), sched, RunOptions{Target: NewTargetFor(sched, target.Client)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Overall.Errors != 0 {
		t.Fatalf("durability run produced %d errors; samples: %v", res.Overall.Errors, res.ErrorSamples)
	}
	if err := wlog.Close(); err != nil {
		t.Fatalf("closing the log after the run: %v", err)
	}
	wm := wlog.Metrics()
	sessions := res.Overall.Requests + res.Warmed
	// Each session logs one create, CampaignSteps observes, one finish.
	if want := sessions * int64(sched.Config.CampaignSteps+2); wm.Appends != want {
		t.Errorf("log holds %d appends, want %d (%d sessions × %d events)",
			wm.Appends, want, sessions, sched.Config.CampaignSteps+2)
	}
	if wm.Fsyncs == 0 || wm.Fsyncs >= wm.Appends {
		t.Errorf("fsyncs=%d for appends=%d: group commit is not batching", wm.Fsyncs, wm.Appends)
	}

	// Replay consistency: every session finished, so a recovery boot must
	// succeed and land on an empty table.
	_, srv2 := NewInProcessTarget()
	stats, err := srv2.Campaigns().ReplayWAL(context.Background(), wal.NewReader(mem, "wal"))
	if err != nil {
		t.Fatalf("post-run replay: %v", err)
	}
	if stats.Records != wm.Appends || stats.Campaigns != 0 || int64(stats.Removed) != sessions {
		t.Errorf("replay stats %+v, want %d records, 0 live campaigns, %d removed", stats, wm.Appends, sessions)
	}
}

// TestCampaignAdaptiveScenarioSmoke runs the adaptive variant: sessions
// must replan (the observation scripts drift by design) and still finish
// clean.
func TestCampaignAdaptiveScenarioSmoke(t *testing.T) {
	cfg := campaignConfig()
	cfg.Rate = 10
	cfg.CampaignAdaptive = true
	sched, err := GenerateSchedule(cfg)
	if err != nil {
		t.Fatal(err)
	}
	target, srv := NewInProcessTarget()
	res, err := Run(context.Background(), sched, RunOptions{Target: NewTargetFor(sched, target.Client)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Overall.Errors != 0 {
		t.Fatalf("adaptive campaign run produced %d errors; samples: %v", res.Overall.Errors, res.ErrorSamples)
	}
	if m := srv.Metrics(); m.Campaigns.Replans == 0 {
		t.Error("drifting observation scripts produced zero replans")
	}
}

// TestCampaignDedupSchedule: the -campaign-dedup dial concentrates sessions
// onto the shared problem, changes the schedule hash (it is a different
// workload), and rejects out-of-range or misplaced settings.
func TestCampaignDedupSchedule(t *testing.T) {
	base, err := GenerateSchedule(campaignConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := campaignConfig()
	cfg.Cardinality = 16
	cfg.CampaignDedup = 0.75
	sched, err := GenerateSchedule(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sched.Hash == base.Hash {
		t.Error("dedup dial did not change the schedule hash")
	}
	shared := 0
	for _, q := range sched.Requests {
		if q.ProblemID == 0 {
			shared++
		}
	}
	// 75% redirected plus 1/16 of the rest landing on 0 by chance.
	if frac := float64(shared) / float64(len(sched.Requests)); frac < 0.6 {
		t.Errorf("dedup 0.75 concentrated only %.2f of %d sessions on the shared problem", frac, len(sched.Requests))
	}

	cfg.CampaignDedup = 1.5
	if _, err := GenerateSchedule(cfg); err == nil {
		t.Error("dedup fraction above 1 accepted")
	}
	solve := campaignConfig()
	solve.Scenario = ScenarioSolve
	solve.CampaignSteps = 0
	solve.CampaignDedup = 0.5
	if _, err := GenerateSchedule(solve); err == nil {
		t.Error("dedup dial accepted on the solve scenario")
	}
}

// TestCampaignDedupScenarioSmoke runs the high-dedup campaign workload and
// checks the server's intern layer stayed clean across the full HTTP
// lifecycle: tables were interned, and the run ends with zero interned
// quoters and zero resident bytes — the refcount-hygiene fence. (Sessions
// here are short enough that concurrent overlap — intern hits — is not
// guaranteed; the sharing guarantees are fenced in internal/campaign.)
func TestCampaignDedupScenarioSmoke(t *testing.T) {
	cfg := campaignConfig()
	cfg.Cardinality = 16
	cfg.CampaignDedup = 0.9
	sched, err := GenerateSchedule(cfg)
	if err != nil {
		t.Fatal(err)
	}
	target, srv := NewInProcessTarget()
	res, err := Run(context.Background(), sched, RunOptions{Target: NewTargetFor(sched, target.Client)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Overall.Errors != 0 {
		t.Fatalf("dedup campaign run produced %d errors; samples: %v", res.Overall.Errors, res.ErrorSamples)
	}
	m := srv.Metrics()
	if m.Campaigns.QuoterInternMisses == 0 {
		t.Error("no tables were ever interned by the campaign workload")
	}
	if m.Campaigns.QuoterInterned != 0 || m.Campaigns.QuoterResidentBytes != 0 {
		t.Errorf("run left %d interned quoters holding %d bytes; finished sessions must release their tables",
			m.Campaigns.QuoterInterned, m.Campaigns.QuoterResidentBytes)
	}
}
