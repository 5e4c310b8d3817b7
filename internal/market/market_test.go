package market

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"crowdpricing/internal/rate"
	"crowdpricing/internal/stats"
)

func liveConfig() Config { return PaperLiveConfig(PaperArrival()) }

func TestConfigValidate(t *testing.T) {
	cfg := liveConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.TotalTasks = 0 },
		func(c *Config) { c.BasePriceCents = 0 },
		func(c *Config) { c.TaskSeconds = 0 },
		func(c *Config) { c.Horizon = 0 },
		func(c *Config) { c.Arrival = nil },
		func(c *Config) { c.AcceptHIT = nil },
		func(c *Config) { c.Retention = nil },
		func(c *Config) { c.AccuracyMean = 0.2 },
		func(c *Config) { c.AccuracySigma = -1 },
	}
	for i, mut := range mutations {
		c := liveConfig()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestRunFixedBasics(t *testing.T) {
	cfg := liveConfig()
	res, err := RunFixed(cfg, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.TasksCompleted > cfg.TotalTasks {
		t.Errorf("completed %d of %d tasks", res.TasksCompleted, cfg.TotalTasks)
	}
	// Cost is base price per HIT.
	if res.CostCents != len(res.HITs)*cfg.BasePriceCents {
		t.Errorf("cost %d, want %d", res.CostCents, len(res.HITs)*cfg.BasePriceCents)
	}
	// HITs are time-ordered and within the horizon.
	prev := 0.0
	for _, h := range res.HITs {
		if h.Time < prev || h.Time > cfg.Horizon {
			t.Fatalf("bad HIT time %v", h.Time)
		}
		prev = h.Time
		if h.Tasks <= 0 || h.Tasks > h.Group {
			t.Fatalf("bad HIT task count %+v", h)
		}
		if h.Correct < 0 || h.Correct > h.Tasks {
			t.Fatalf("bad correct count %+v", h)
		}
	}
	// Task accounting matches.
	sum := 0
	for _, h := range res.HITs {
		sum += h.Tasks
	}
	if sum != res.TasksCompleted {
		t.Errorf("HIT tasks sum %d, TasksCompleted %d", sum, res.TasksCompleted)
	}
}

func TestRunFixedDeterministic(t *testing.T) {
	cfg := liveConfig()
	a, err := RunFixed(cfg, 20, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFixed(cfg, 20, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.HITs) != len(b.HITs) || a.TasksCompleted != b.TasksCompleted {
		t.Error("same seed produced different results")
	}
}

// TestFigure12Shapes checks the calibrated marketplace reproduces the live
// experiment's qualitative results: small bundles finish before the
// deadline, large ones do not, and bundle 50 moves more work than 30/40.
func TestFigure12Shapes(t *testing.T) {
	cfg := liveConfig()
	results := map[int]*Result{}
	for _, g := range PaperGroupSizes {
		res, err := RunFixed(cfg, g, int64(100+g))
		if err != nil {
			t.Fatal(err)
		}
		results[g] = res
	}
	if math.IsInf(results[10].CompletionTime, 1) {
		t.Error("bundle 10 did not finish before the deadline")
	}
	if math.IsInf(results[20].CompletionTime, 1) {
		t.Error("bundle 20 did not finish before the deadline")
	}
	for _, g := range []int{30, 40, 50} {
		if !math.IsInf(results[g].CompletionTime, 1) {
			t.Errorf("bundle %d finished before the deadline", g)
		}
	}
	// At the 6-hour mark bundle 10 leads bundle 20 by ≈2× and 30 by ≥4× in
	// completed HITs (Section 5.4.1's reading of Figure 12(a)).
	h10 := results[10].CompletedHITsBy(6)
	h20 := results[20].CompletedHITsBy(6)
	h30 := results[30].CompletedHITsBy(6)
	if float64(h10) < 1.8*float64(h20) {
		t.Errorf("HITs at 6h: bundle 10 (%d) not ≈2× bundle 20 (%d)", h10, h20)
	}
	if float64(h10) < 4*float64(h30) {
		t.Errorf("HITs at 6h: bundle 10 (%d) not ≥4× bundle 30 (%d)", h10, h30)
	}
	// Work completion: bundle 50 beats 30 and 40 (Figure 12(b)). A single
	// run is too noisy to order the large bundles reliably, so average the
	// completed work over a fixed batch of seeds.
	avgWork := func(g int) float64 {
		const runs = 10
		total := results[g].TasksCompleted // seed 100+g already ran above
		for k := int64(1); k < runs; k++ {
			res, err := RunFixed(cfg, g, int64(100+g)+k*1000)
			if err != nil {
				t.Fatal(err)
			}
			total += res.TasksCompleted
		}
		return float64(total) / runs
	}
	w30 := avgWork(30)
	w40 := avgWork(40)
	w50 := avgWork(50)
	if w50 <= w30 || w50 <= w40 {
		t.Errorf("mean work completed: 50→%v not above 30→%v and 40→%v", w50, w30, w40)
	}
}

// TestFigure15Retention: average HITs per worker decreases with bundle size
// (i.e. increases with unit wage).
func TestFigure15Retention(t *testing.T) {
	cfg := liveConfig()
	prev := math.Inf(1)
	for _, g := range PaperGroupSizes {
		res, err := RunFixed(cfg, g, int64(200+g))
		if err != nil {
			t.Fatal(err)
		}
		hpw := res.HITsPerWorker()
		if hpw > prev+0.25 { // small noise allowance
			t.Errorf("bundle %d: HITs/worker %v rose above %v", g, hpw, prev)
		}
		if hpw < prev {
			prev = hpw
		}
	}
}

// TestAccuracyPriceInsensitive: mean per-HIT accuracy is ≈0.9 at every
// bundle size and differences stay small (Tables 3/4).
func TestAccuracyPriceInsensitive(t *testing.T) {
	cfg := liveConfig()
	var means []float64
	for _, g := range PaperGroupSizes {
		res, err := RunFixed(cfg, g, int64(300+g))
		if err != nil {
			t.Fatal(err)
		}
		m := stats.Mean(res.Accuracies())
		if m < 0.85 || m > 0.95 {
			t.Errorf("bundle %d: mean accuracy %v outside [0.85, 0.95]", g, m)
		}
		means = append(means, m)
	}
	if spread := slices.Max(means) - slices.Min(means); spread > 0.03 {
		t.Errorf("accuracy spread %v across bundles too large", spread)
	}
}

func TestRunDynamicControllerSavesMoney(t *testing.T) {
	cfg := liveConfig()
	fixedResults := map[int]*Result{}
	for _, g := range PaperGroupSizes {
		res, err := RunFixed(cfg, g, int64(400+g))
		if err != nil {
			t.Fatal(err)
		}
		fixedResults[g] = res
	}
	rates, err := EstimateGroupRates(cfg, fixedResults)
	if err != nil {
		t.Fatal(err)
	}
	choose, err := PlanGroupSizes(cfg, rates, 10, 500)
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := RunDynamic(cfg, choose, 999)
	if err != nil {
		t.Fatal(err)
	}
	if dyn.TasksCompleted < cfg.TotalTasks {
		t.Fatalf("dynamic run left %d tasks", cfg.TotalTasks-dyn.TasksCompleted)
	}
	fixed20 := fixedResults[20]
	if dyn.CostCents >= fixed20.CostCents {
		t.Errorf("dynamic cost %d¢ not below fixed-20 cost %d¢", dyn.CostCents, fixed20.CostCents)
	}
}

// TestRunStudyMatchesDirectCalls holds RunStudy to the four calls it
// wraps, made directly at its seed scheme: fixed trial i at seed+i, then
// the estimate, the plan and the dynamic trial at seed+100, with the bundle
// offered each hour recorded from the chooser.
func TestRunStudyMatchesDirectCalls(t *testing.T) {
	cfg := liveConfig()
	const seed = 3
	got, err := RunStudy(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	var fixed []*Result
	byGroup := map[int]*Result{}
	for i, g := range PaperGroupSizes {
		res, err := RunFixed(cfg, g, seed+int64(i))
		if err != nil {
			t.Fatal(err)
		}
		fixed = append(fixed, res)
		byGroup[g] = res
	}
	rates, err := EstimateGroupRates(cfg, byGroup)
	if err != nil {
		t.Fatal(err)
	}
	choose, err := PlanGroupSizes(cfg, rates, 10, 500)
	if err != nil {
		t.Fatal(err)
	}
	choices := make([]int, int(cfg.Horizon))
	dyn, err := RunDynamic(cfg, func(remaining, hour int) int {
		choices[hour] = choose(remaining, hour)
		return choices[hour]
	}, seed+100)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Fixed, fixed) {
		t.Error("fixed trials differ from RunFixed at seed+i")
	}
	if !reflect.DeepEqual(got.Choices, choices) {
		t.Errorf("choices %v, want %v", got.Choices, choices)
	}
	if !reflect.DeepEqual(got.Dynamic, dyn) {
		t.Error("dynamic trial differs from RunDynamic at seed+100")
	}
	if got.Config.TotalTasks != cfg.TotalTasks || got.Config.Horizon != cfg.Horizon {
		t.Errorf("study config %+v, want %+v", got.Config, cfg)
	}
	if _, err := RunStudy(Config{}, seed); err == nil {
		t.Error("RunStudy accepted an invalid config")
	}
}

func TestEstimateGroupRates(t *testing.T) {
	cfg := liveConfig()
	res, err := RunFixed(cfg, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	rates, err := EstimateGroupRates(cfg, map[int]*Result{10: res})
	if err != nil {
		t.Fatal(err)
	}
	dur := res.CompletionTime
	if math.IsInf(dur, 1) {
		dur = cfg.Horizon
	}
	want := float64(len(res.HITs)) / cfg.Arrival.Integral(0, dur)
	if math.Abs(rates.HITPerArrival[10]-want) > 1e-9 {
		t.Errorf("rate = %v, want %v", rates.HITPerArrival[10], want)
	}
	if _, err := EstimateGroupRates(cfg, nil); err == nil {
		t.Error("want error for empty results")
	}
}

// TestEstimateGroupRatesNamesSmallestFailingSize: with no arrivals every
// bundle size fails, and the error names the smallest one on every call,
// whatever order the map yields its keys in.
func TestEstimateGroupRatesNamesSmallestFailingSize(t *testing.T) {
	cfg := liveConfig()
	cfg.Arrival = rate.Constant(0)
	results := map[int]*Result{}
	for _, g := range PaperGroupSizes {
		results[g] = &Result{CompletionTime: math.Inf(1)}
	}
	want := fmt.Sprintf("market: no expected arrivals for group %d", slices.Min(PaperGroupSizes))
	for i := 0; i < 20; i++ {
		if _, err := EstimateGroupRates(cfg, results); err == nil || err.Error() != want {
			t.Fatalf("call %d: err = %v, want %q", i, err, want)
		}
	}
}

func TestPlanGroupSizesValidation(t *testing.T) {
	cfg := liveConfig()
	if _, err := PlanGroupSizes(cfg, GroupRates{}, 10, 50); err == nil {
		t.Error("want error for empty rates")
	}
	rates := GroupRates{Sizes: []int{10}, HITPerArrival: map[int]float64{10: 0.01}, basePr: 2}
	if _, err := PlanGroupSizes(cfg, rates, 0, 50); err == nil {
		t.Error("want error for zero unit size")
	}
}

func TestCompletedByQueries(t *testing.T) {
	res := &Result{HITs: []HITRecord{
		{Time: 1, Tasks: 10}, {Time: 2, Tasks: 20}, {Time: 3, Tasks: 30},
	}}
	if got := res.CompletedTasksBy(2); got != 30 {
		t.Errorf("CompletedTasksBy(2) = %d, want 30", got)
	}
	if got := res.CompletedHITsBy(2.5); got != 2 {
		t.Errorf("CompletedHITsBy(2.5) = %d, want 2", got)
	}
	if got := res.CompletedHITsBy(0); got != 0 {
		t.Errorf("CompletedHITsBy(0) = %d, want 0", got)
	}
}

func TestInterpAnchors(t *testing.T) {
	// Anchor values returned exactly; interior values between neighbours.
	if got := PaperAcceptHIT(10); got != acceptAnchors[10] {
		t.Errorf("PaperAcceptHIT(10) = %v", got)
	}
	mid := PaperAcceptHIT(15)
	if mid >= acceptAnchors[10] || mid <= acceptAnchors[20] {
		t.Errorf("PaperAcceptHIT(15) = %v not between anchors", mid)
	}
	if got := PaperAcceptHIT(5); got != acceptAnchors[10] {
		t.Errorf("clamp low failed: %v", got)
	}
	if got := PaperAcceptHIT(99); got != acceptAnchors[50] {
		t.Errorf("clamp high failed: %v", got)
	}
}

func TestPaperArrivalLevel(t *testing.T) {
	fn := PaperArrival()
	avg := rate.Average(fn, 0, 14)
	if avg < 4500 || avg > 6000 {
		t.Errorf("average arrival rate %v outside the calibrated band", avg)
	}
}

func TestHITRecordAccuracy(t *testing.T) {
	h := HITRecord{Tasks: 10, Correct: 9}
	if h.Accuracy() != 0.9 {
		t.Errorf("accuracy = %v", h.Accuracy())
	}
	if (HITRecord{}).Accuracy() != 0 {
		t.Error("empty HIT accuracy should be 0")
	}
}
