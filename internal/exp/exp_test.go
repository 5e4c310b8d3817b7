package exp

import (
	"bytes"
	"math"
	"sync"
	"testing"

	"crowdpricing/internal/market"
	"crowdpricing/internal/trace"
)

// The default workload is expensive to build once per test, so share it.
var (
	wlOnce sync.Once
	wl     *Workload
)

func workload() *Workload {
	wlOnce.Do(func() { wl = DefaultWorkload() })
	return wl
}

func TestTable1MatchesPaper(t *testing.T) {
	rows := Table1()
	want := map[float64]int{10: 35, 20: 53, 50: 99}
	for _, r := range rows {
		if r.S0 != want[r.Lambda] {
			t.Errorf("λ=%v: s0=%d, want %d", r.Lambda, r.S0, want[r.Lambda])
		}
	}
	var buf bytes.Buffer
	PrintTable1(&buf, rows)
	if buf.Len() == 0 {
		t.Error("empty print")
	}
}

func TestTable2Shape(t *testing.T) {
	rows := Table2(1)
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	byType := map[trace.TaskType]Table2Row{}
	for _, r := range rows {
		byType[r.Type] = r
	}
	cat, dc := byType[trace.Categorization], byType[trace.DataCollection]
	// Linear coefficients approximately shared and near the paper's
	// 748–809 range; Data Collection bias clearly higher.
	for _, r := range rows {
		if r.Alpha < 600 || r.Alpha > 1000 {
			t.Errorf("%v: alpha %v outside [600,1000]", r.Type, r.Alpha)
		}
	}
	if dc.Bias <= cat.Bias+1 {
		t.Errorf("Data Collection bias %v not clearly above Categorization %v", dc.Bias, cat.Bias)
	}
	var buf bytes.Buffer
	PrintTable2(&buf, rows)
	if buf.Len() == 0 {
		t.Error("empty print")
	}
}

func TestFigure1WeeklyPattern(t *testing.T) {
	s := Figure1()
	if len(s.Counts) != trace.Days*4 {
		t.Fatalf("series length %d", len(s.Counts))
	}
	// Same 6-hour slot one week apart correlates strongly (outside the
	// holiday week-1 anomaly).
	for i := 28; i < 56; i++ {
		a, b := float64(s.Counts[i]), float64(s.Counts[i+28])
		if math.Abs(a-b) > 0.35*math.Max(a, b) {
			t.Errorf("slot %d: %v vs next week %v", i, a, b)
		}
	}
	var buf bytes.Buffer
	PrintFigure1(&buf, s)
	if buf.Len() == 0 {
		t.Error("empty print")
	}
}

func TestFigure5FitTracksSimulation(t *testing.T) {
	res := Figure5(2)
	if res.Beta <= 0 {
		t.Fatalf("beta = %v", res.Beta)
	}
	// The fitted curve tracks the simulated points.
	var sse, n float64
	for _, p := range res.Points {
		d := p.Simulated - p.Fitted
		sse += d * d
		n++
	}
	if rmse := math.Sqrt(sse / n); rmse > 0.05 {
		t.Errorf("logit fit RMSE %v too large", rmse)
	}
	var buf bytes.Buffer
	PrintFigure5(&buf, res)
	if buf.Len() == 0 {
		t.Error("empty print")
	}
}

func TestFigure6Scatter(t *testing.T) {
	pts := Figure6(3)
	if len(pts) != 100 {
		t.Fatalf("got %d points", len(pts))
	}
	var buf bytes.Buffer
	PrintFigure6(&buf, pts)
	if buf.Len() == 0 {
		t.Error("empty print")
	}
}

// TestFigure7aHeadline reproduces the Section 5.2.1 claims: near-complete
// batches (≲1 expected remaining) cost the dynamic strategy ≈c0 with a
// small overhead, while the fixed strategy needs several cents more.
func TestFigure7aHeadline(t *testing.T) {
	res, err := Figure7a(workload())
	if err != nil {
		t.Fatal(err)
	}
	if res.C0 != 12 {
		t.Errorf("c0 = %d, want 12", res.C0)
	}
	// Dynamic points with E[remaining] < 1 stay within ~8% of c0.
	for _, p := range res.Dynamic {
		if p.ExpectedRemaining < 1 {
			if p.AvgReward > float64(res.C0)*1.08 {
				t.Errorf("dynamic avg reward %v too far above c0=%d at remaining %v",
					p.AvgReward, res.C0, p.ExpectedRemaining)
			}
		}
	}
	// At the 99.9% completion guarantee the fixed price sits well above the
	// dynamic average reward (the paper reports 16 vs 12–12.5, ≈33%).
	gap := float64(res.FixedPrice999) / res.DynamicAvgReward999
	if gap < 1.15 {
		t.Errorf("99.9%% guarantee gap only %.2fx (fixed %d vs dynamic %.2f)",
			gap, res.FixedPrice999, res.DynamicAvgReward999)
	}
	if res.DynamicAvgReward999 > float64(res.C0)*1.1 {
		t.Errorf("dynamic 99.9%% avg reward %.2f more than 10%% above c0=%d",
			res.DynamicAvgReward999, res.C0)
	}
	var buf bytes.Buffer
	PrintFigure7a(&buf, res)
	if buf.Len() == 0 {
		t.Error("empty print")
	}
}

// TestFigure7bTrends checks the Figure 7(b) claims: the reduction decreases
// in N and increases in T.
func TestFigure7bTrends(t *testing.T) {
	if testing.Short() {
		t.Skip("full N×T sweep is slow")
	}
	cells, err := Figure7b(workload())
	if err != nil {
		t.Fatal(err)
	}
	byNT := map[[2]int]float64{}
	for _, c := range cells {
		n := int(c.Value) / 1000
		hours := int(c.Value) % 1000
		byNT[[2]int{n, hours}] = c.Reduction
		if c.Reduction < 0 {
			t.Errorf("%s: negative reduction %v", c.Label, c.Reduction)
		}
	}
	// Longer deadlines help at fixed N.
	if byNT[[2]int{200, 24}] <= byNT[[2]int{200, 6}] {
		t.Errorf("reduction not increasing in T: %v vs %v",
			byNT[[2]int{200, 24}], byNT[[2]int{200, 6}])
	}
	// Smaller batches help at fixed T.
	if byNT[[2]int{100, 24}] <= byNT[[2]int{400, 24}] {
		t.Errorf("reduction not decreasing in N: %v vs %v",
			byNT[[2]int{100, 24}], byNT[[2]int{400, 24}])
	}
}

// TestFigure8dGranularityTrend: coarser intervals can only raise the price.
func TestFigure8dGranularityTrend(t *testing.T) {
	rows, err := Figure8d(workload())
	if err != nil {
		t.Fatal(err)
	}
	first, last := rows[0], rows[len(rows)-1]
	if last.AvgReward < first.AvgReward-0.05 {
		t.Errorf("avg reward at 120min (%v) below 20min (%v)", last.AvgReward, first.AvgReward)
	}
	// The increase is mild (the paper: "steadily but not by too much").
	if last.AvgReward > first.AvgReward*1.25 {
		t.Errorf("granularity penalty too steep: %v vs %v", last.AvgReward, first.AvgReward)
	}
	var buf bytes.Buffer
	PrintFigure8d(&buf, rows)
	if buf.Len() == 0 {
		t.Error("empty print")
	}
}

// TestFigure9Robustness reproduces the Figure 9 claim: the dynamic policy
// absorbs parameter misestimation (near-zero remaining everywhere, rising
// average reward as the market toughens) while low fixed prices fail.
func TestFigure9Robustness(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo sweep is slow")
	}
	rows, err := Figure9(workload(), 200, 13)
	if err != nil {
		t.Fatal(err)
	}
	var worstM Figure9Row
	for _, r := range rows {
		if r.Param == "M" && r.TrueValue == 4000 {
			worstM = r
			// The doubled-competition extreme strains even the adaptive
			// policy (its price schedule tops out at C); it may strand a
			// few percent of the batch but stays far ahead of fixed.
			if r.DynRemaining > 0.05*float64(DefaultN) {
				t.Errorf("M=4000: dynamic left %v tasks (>5%%)", r.DynRemaining)
			}
			continue
		}
		if r.DynRemaining > 2 {
			t.Errorf("%s=%v: dynamic left %v tasks", r.Param, r.TrueValue, r.DynRemaining)
		}
	}
	// The toughest M perturbation must break the lowest fixed price while
	// the dynamic policy stays an order of magnitude closer to done.
	if worstM.FixedRemaining[12] < 5 || worstM.FixedRemaining[12] < 4*worstM.DynRemaining {
		t.Errorf("fixed 12 survived M=4000 with %v remaining (dynamic %v)",
			worstM.FixedRemaining[12], worstM.DynRemaining)
	}
	// Under harder markets the dynamic policy pays more (it adapts).
	var mEasy, mHard float64
	for _, r := range rows {
		if r.Param == "M" && r.TrueValue == 1000 {
			mEasy = r.DynAvgReward
		}
		if r.Param == "M" && r.TrueValue == 4000 {
			mHard = r.DynAvgReward
		}
	}
	if mHard <= mEasy {
		t.Errorf("dynamic avg reward did not rise with M: %v vs %v", mEasy, mHard)
	}
	var buf bytes.Buffer
	PrintFigure9(&buf, rows)
	if buf.Len() == 0 {
		t.Error("empty print")
	}
}

// TestFigure10HolidayAnomaly reproduces the Section 5.2.5 result: the three
// regular Wednesdays cross-validate cleanly, while Jan 1's consistently
// depressed arrivals hurt both strategies.
func TestFigure10HolidayAnomaly(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo cross-validation is slow")
	}
	rows, err := Figure10(workload(), 200, 17)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows", len(rows))
	}
	var day0 Figure10Row
	maxNormal := 0.0
	for _, r := range rows {
		if r.Day == 0 {
			day0 = r
			continue
		}
		if r.DynRemaining > maxNormal {
			maxNormal = r.DynRemaining
		}
	}
	// Regular days: the dynamic strategy finishes nearly everything.
	if maxNormal > 1 {
		t.Errorf("dynamic left %v tasks on a regular day", maxNormal)
	}
	// The holiday hurts: either tasks remain or the policy pays visibly
	// more than on regular days.
	if day0.DynRemaining <= maxNormal && day0.DynAvgReward < rows[1].DynAvgReward*1.02 {
		t.Errorf("no holiday effect: day0 remaining %v reward %v vs normal %v",
			day0.DynRemaining, day0.DynAvgReward, rows[1].DynAvgReward)
	}
	// The training-vs-actual series show the consistent deviation on Jan 1.
	var trainSum, actualSum float64
	for h := range day0.TrainRate {
		trainSum += day0.TrainRate[h]
		actualSum += day0.ActualRate[h]
	}
	if actualSum > 0.8*trainSum {
		t.Errorf("Jan 1 arrivals (%v) not clearly below training profile (%v)", actualSum, trainSum)
	}
	var buf bytes.Buffer
	PrintFigure10(&buf, rows)
	if buf.Len() == 0 {
		t.Error("empty print")
	}
}

func TestFigure8abcTrends(t *testing.T) {
	if testing.Short() {
		t.Skip("parameter sweep is slow")
	}
	sCells, bCells, mCells, err := Figure8abc(workload())
	if err != nil {
		t.Fatal(err)
	}
	// All reductions positive (dynamic never loses).
	for _, cells := range [][]ReductionCell{sCells, bCells, mCells} {
		for _, c := range cells {
			if c.Reduction <= 0 {
				t.Errorf("%s: non-positive reduction %v", c.Label, c.Reduction)
			}
		}
	}
	// The s sweep stays comparatively flat (paper: "stable no matter how
	// sensitive p is to c").
	lo, hi := sCells[0].Reduction, sCells[0].Reduction
	for _, c := range sCells {
		if c.Reduction < lo {
			lo = c.Reduction
		}
		if c.Reduction > hi {
			hi = c.Reduction
		}
	}
	if hi-lo > 15 {
		t.Errorf("s sweep spread %v points — not stable", hi-lo)
	}
	var buf bytes.Buffer
	PrintReductionCells(&buf, "Figure 8(a): s sweep", sCells)
	PrintReductionCells(&buf, "Figure 8(b): b sweep", bCells)
	PrintReductionCells(&buf, "Figure 8(c): M sweep", mCells)
	if buf.Len() == 0 {
		t.Error("empty print")
	}
}

// TestFigure10AdaptiveExtension: on the Jan 1 anomaly the adaptive
// controller beats the frozen policy on completion or cost while matching
// it on regular days.
func TestFigure10AdaptiveExtension(t *testing.T) {
	if testing.Short() {
		t.Skip("adaptive cross-validation is slow")
	}
	rows, err := Figure10Adaptive(workload(), 150, 19)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Day == 0 {
			better := r.AdaptiveRemaining < r.StaticRemaining-0.05 ||
				r.AdaptiveCost < r.StaticCost*0.98
			if !better && r.StaticRemaining > 0.1 {
				t.Errorf("no adaptive benefit on Jan 1: remaining %v vs %v, cost %v vs %v",
					r.AdaptiveRemaining, r.StaticRemaining, r.AdaptiveCost, r.StaticCost)
			}
			continue
		}
		// Regular days: the adaptive controller must not regress badly.
		if r.AdaptiveRemaining > r.StaticRemaining+1 {
			t.Errorf("day %d: adaptive remaining %v vs static %v",
				r.Day, r.AdaptiveRemaining, r.StaticRemaining)
		}
	}
	var buf bytes.Buffer
	PrintFigure10Adaptive(&buf, rows)
	if buf.Len() == 0 {
		t.Error("empty print")
	}
}

func TestFigure11Headline(t *testing.T) {
	res, err := Figure11(workload(), 200, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Strategy.Counts) > 2 {
		t.Errorf("strategy uses %d prices", len(res.Strategy.Counts))
	}
	if len(res.Times) < 195 {
		t.Fatalf("only %d/200 trials finished", len(res.Times))
	}
	// Paper: mean ≈ 23.2h with support ≈ 18–30h. Our arrivals differ in
	// detail, so check the mean lands in a broad band around a day and the
	// spread is wide.
	if res.MeanHours < 14 || res.MeanHours > 32 {
		t.Errorf("mean completion %vh outside [14, 32]", res.MeanHours)
	}
	spread := res.Times[len(res.Times)-1] - res.Times[0]
	if spread < 0.15*res.MeanHours {
		t.Errorf("completion spread %vh suspiciously narrow", spread)
	}
	var buf bytes.Buffer
	PrintFigure11(&buf, res)
	if buf.Len() == 0 {
		t.Error("empty print")
	}
}

// TestQualityExtension: tighter quality (5-vote vs 3-vote) plans more
// questions and costs more; the synthesized strategy needs fewer expected
// questions than its worst case suggests.
func TestQualityExtension(t *testing.T) {
	rows, err := QualityExtension(workload())
	if err != nil {
		t.Fatal(err)
	}
	byLabel := map[string]QualityRow{}
	for _, r := range rows {
		byLabel[r.Label] = r
	}
	m3, m5 := byLabel["majority-3"], byLabel["majority-5"]
	if m3.WorstCase != 3 || m5.WorstCase != 5 {
		t.Errorf("majority worst cases %d/%d, want 3/5", m3.WorstCase, m5.WorstCase)
	}
	if m5.ExpectedCost <= m3.ExpectedCost {
		t.Errorf("5-vote cost %v not above 3-vote %v", m5.ExpectedCost, m3.ExpectedCost)
	}
	if m5.ExpError >= m3.ExpError {
		t.Errorf("5-vote error %v not below 3-vote %v", m5.ExpError, m3.ExpError)
	}
	syn := byLabel["synthesized-5%err"]
	if syn.ExpError > 0.05+1e-9 {
		t.Errorf("synthesized error %v above its bound", syn.ExpError)
	}
	if syn.ExpQuestions >= float64(syn.WorstCase) {
		t.Errorf("synthesized E[questions] %v not below worst case %d", syn.ExpQuestions, syn.WorstCase)
	}
	var buf bytes.Buffer
	PrintQualityExtension(&buf, rows)
	if buf.Len() == 0 {
		t.Error("empty print")
	}
}

// liveStudy runs the Section 5.4 study on the paper's marketplace.
func liveStudy(t *testing.T, seed int64) *market.Study {
	t.Helper()
	s, err := market.RunStudy(market.PaperLiveConfig(market.PaperArrival()), seed)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestFigure12Headline(t *testing.T) {
	res := Figure12(liveStudy(t, 7))
	// Dynamic completes all work and beats the fixed-20 cost by ≥25%.
	if res.Dynamic.WorkByHour[len(res.Dynamic.WorkByHour)-1] < 1 {
		t.Error("dynamic trial did not finish")
	}
	var fixed20 LiveCurves
	for _, f := range res.Fixed {
		if f.Group == 20 {
			fixed20 = f
		}
	}
	// The paper reports ≈36%; seeds move this by a few points, so assert a
	// conservative floor.
	saving := 1 - float64(res.Dynamic.CostCents)/float64(fixed20.CostCents)
	if saving < 0.2 {
		t.Errorf("dynamic saving %.0f%% below 20%%", saving*100)
	}
	var buf bytes.Buffer
	PrintFigure12(&buf, res)
	if buf.Len() == 0 {
		t.Error("empty print")
	}
}

func TestFigure1314Headline(t *testing.T) {
	res := Figure1314(liveStudy(t, 9))
	for g, m := range res.FixedMean {
		if m < 0.85 || m > 0.95 {
			t.Errorf("fixed g=%d mean accuracy %v", g, m)
		}
	}
	if len(res.DynamicMean) == 0 {
		t.Error("dynamic trial produced no accuracy groups")
	}
	for g, m := range res.DynamicMean {
		if m < 0.85 || m > 0.95 {
			t.Errorf("dynamic g=%d mean accuracy %v", g, m)
		}
	}
	var buf bytes.Buffer
	PrintFigure1314(&buf, res)
	if buf.Len() == 0 {
		t.Error("empty print")
	}
}

func TestFigure15Trend(t *testing.T) {
	rows := Figure15(liveStudy(t, 11))
	if len(rows) != 5 {
		t.Fatalf("got %d rows", len(rows))
	}
	if rows[0].HITsPerWorker <= rows[len(rows)-1].HITsPerWorker {
		t.Errorf("HITs/worker not decreasing in bundle size: %v ... %v",
			rows[0].HITsPerWorker, rows[len(rows)-1].HITsPerWorker)
	}
	var buf bytes.Buffer
	PrintFigure15(&buf, rows)
	if buf.Len() == 0 {
		t.Error("empty print")
	}
}
