// Package stats provides the small statistical toolkit the experiments
// and the benchmark need: histograms (Figure 11), quantiles, and means.
package stats

import (
	"math"
	"sort"
)

// Quantile returns the q-quantile (q in [0,1]) of xs using linear
// interpolation between order statistics. It panics on an empty sample.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("stats: quantile of empty sample")
	}
	cp := make([]float64, len(xs))
	copy(cp, xs)
	sort.Float64s(cp)
	if q <= 0 {
		return cp[0]
	}
	if q >= 1 {
		return cp[len(cp)-1]
	}
	pos := q * float64(len(cp)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(cp) {
		return cp[lo]
	}
	return cp[lo]*(1-frac) + cp[lo+1]*frac
}

// Histogram bins xs into equal-width bins over [lo, hi]. Values outside the
// range are clamped into the edge bins. It returns the bin counts and the
// bin edges (len bins+1).
func Histogram(xs []float64, lo, hi float64, bins int) (counts []int, edges []float64) {
	if bins <= 0 || hi <= lo {
		panic("stats: invalid histogram bounds")
	}
	counts = make([]int, bins)
	edges = make([]float64, bins+1)
	w := (hi - lo) / float64(bins)
	for i := range edges {
		edges[i] = lo + float64(i)*w
	}
	for _, x := range xs {
		i := int(math.Floor((x - lo) / w))
		if i < 0 {
			i = 0
		}
		if i >= bins {
			i = bins - 1
		}
		counts[i]++
	}
	return counts, edges
}

// Mean returns the arithmetic mean of xs, or 0 for an empty sample.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
