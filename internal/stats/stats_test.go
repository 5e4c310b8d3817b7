package stats

import (
	"math"
	"testing"
)

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 4}, {0.5, 2.5}, {0.25, 1.75},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// The input must not be mutated.
	if xs[0] != 4 {
		t.Error("Quantile mutated its input")
	}
}

func TestHistogram(t *testing.T) {
	counts, edges := Histogram([]float64{0.5, 1.5, 1.7, 2.5, -10, 10}, 0, 3, 3)
	want := []int{2, 2, 2} // -10 clamps low, 10 clamps high
	for i := range want {
		if counts[i] != want[i] {
			t.Errorf("counts = %v, want %v", counts, want)
			break
		}
	}
	if len(edges) != 4 || edges[0] != 0 || edges[3] != 3 {
		t.Errorf("edges = %v", edges)
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if got := Mean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("Mean = %v, want 3", got)
	}
}
