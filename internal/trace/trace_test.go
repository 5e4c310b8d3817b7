package trace

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"crowdpricing/internal/stats"
)

func TestGenerateShape(t *testing.T) {
	tr := Generate(DefaultConfig())
	if len(tr.Counts) != Days*BucketsPerDay {
		t.Fatalf("len = %d, want %d", len(tr.Counts), Days*BucketsPerDay)
	}
	for i, c := range tr.Counts {
		if c < 0 {
			t.Fatalf("negative count at %d", i)
		}
	}
	assertPanics(t, func() { tr.Day(99) })
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(DefaultConfig())
	b := Generate(DefaultConfig())
	for i := range a.Counts {
		if a.Counts[i] != b.Counts[i] {
			t.Fatal("same-seed traces differ")
		}
	}
	cfg := DefaultConfig()
	cfg.Seed++
	c := Generate(cfg)
	same := true
	for i := range a.Counts {
		if a.Counts[i] != c.Counts[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical traces")
	}
}

func TestWeeklyPeriodicity(t *testing.T) {
	tr := Generate(DefaultConfig())
	// Day 7 (Wednesday week 2) should resemble day 14 far more than the
	// holiday day 0 resembles day 7.
	day7 := stats.Mean(toFloat(tr.Day(7)))
	day14 := stats.Mean(toFloat(tr.Day(14)))
	day0 := stats.Mean(toFloat(tr.Day(0)))
	if math.Abs(day7-day14) > 0.1*day7 {
		t.Errorf("matching weekdays differ: %v vs %v", day7, day14)
	}
	if day0 > 0.75*day7 {
		t.Errorf("holiday day 0 (%v) not clearly below normal weekday (%v)", day0, day7)
	}
}

func TestWeekendDip(t *testing.T) {
	tr := Generate(DefaultConfig())
	// Day 0 = Wed; Sat is day 3, Sun day 4; weekdays 1,2 (Thu, Fri).
	sat := stats.Mean(toFloat(tr.Day(3)))
	thu := stats.Mean(toFloat(tr.Day(1)))
	if sat >= thu {
		t.Errorf("weekend (%v) not below weekday (%v)", sat, thu)
	}
}

func TestDiurnalCycle(t *testing.T) {
	tr := Generate(DefaultConfig())
	day := tr.Day(1)
	// Mid-day buckets (around 15:00, bucket 45) beat night buckets
	// (around 03:00, bucket 9).
	noon := float64(day[44] + day[45] + day[46])
	night := float64(day[8] + day[9] + day[10])
	if noon <= night {
		t.Errorf("no diurnal cycle: noon %v, night %v", noon, night)
	}
}

func TestSixHourSeries(t *testing.T) {
	tr := Generate(DefaultConfig())
	series := tr.SixHourSeries()
	if len(series) != Days*4 {
		t.Fatalf("series length %d, want %d", len(series), Days*4)
	}
	sum := 0
	for _, s := range series {
		sum += s
	}
	total := 0
	for _, c := range tr.Counts {
		total += c
	}
	if sum != total {
		t.Errorf("series sums to %d, counts to %d", sum, total)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tr := Generate(DefaultConfig())
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Counts) != len(tr.Counts) {
		t.Fatalf("round trip length %d, want %d", len(back.Counts), len(tr.Counts))
	}
	for i := range tr.Counts {
		if back.Counts[i] != tr.Counts[i] {
			t.Fatalf("count %d changed: %d vs %d", i, back.Counts[i], tr.Counts[i])
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	tr := Generate(DefaultConfig())
	data, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	var back Trace
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	for i := range tr.Counts {
		if back.Counts[i] != tr.Counts[i] {
			t.Fatal("JSON round trip changed counts")
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(bytes.NewBufferString("")); err == nil {
		t.Error("want error for empty input")
	}
	if _, err := ReadCSV(bytes.NewBufferString("bucket,hour,count\n0,0.0,notanumber\n")); err == nil {
		t.Error("want error for bad count")
	}
}

func toFloat(xs []int) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

func assertPanics(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}
