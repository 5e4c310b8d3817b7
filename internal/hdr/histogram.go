// Package hdr provides a log-bucketed latency histogram in the spirit of
// HdrHistogram: values are binned into power-of-two ranges each split into
// linear sub-buckets, so quantiles are accurate to a bounded relative error
// (≤ 1/32 ≈ 3.1%) across nine decades of dynamic range with a fixed ~15 KB
// footprint and no allocation on the record path.
//
// One Histogram is the single latency instrument shared by the pricing
// daemon's /metrics endpoint and the loadbench harness, so the numbers the
// benchmark reports and the numbers production observability scrapes come
// from the same binning.
//
// Record is safe for concurrent use (atomic counters); readers see a
// consistent-enough snapshot for monitoring and benchmarking purposes.
package hdr

import (
	"math/bits"
	"sync/atomic"
	"time"
)

const (
	// subBucketBits fixes the linear split of each power-of-two range:
	// 2^subBucketBits sub-buckets, bounding relative error by
	// 2^-subBucketBits.
	subBucketBits  = 5
	subBucketCount = 1 << subBucketBits
	// slotCount covers the full non-negative int64 range: the first
	// subBucketCount slots are exact (values 0..31 ns), then each power of
	// two [2^k, 2^(k+1)) for k in [subBucketBits, 63] contributes
	// subBucketCount slots — 64−subBucketBits exponents in total.
	slotCount = subBucketCount + (64-subBucketBits)*subBucketCount
)

// Histogram is a concurrent log-bucketed histogram over non-negative int64
// values (nanoseconds, by convention of the Record helper). The zero value
// is NOT ready; create with New.
type Histogram struct {
	counts [slotCount]atomic.Int64
	count  atomic.Int64
	sum    atomic.Int64
	max    atomic.Int64
	min    atomic.Int64 // valid only when count > 0
}

// New returns an empty histogram.
func New() *Histogram {
	h := &Histogram{}
	h.min.Store(int64(^uint64(0) >> 1)) // MaxInt64 sentinel until first record
	return h
}

// slot maps a non-negative value to its bucket index.
func slot(v int64) int {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	if u < subBucketCount {
		return int(u)
	}
	exp := bits.Len64(u) - 1 // position of the leading bit, ≥ subBucketBits
	// The subBucketBits bits following the leading bit select the linear
	// sub-bucket within [2^exp, 2^(exp+1)).
	minor := int((u >> uint(exp-subBucketBits)) & (subBucketCount - 1))
	return subBucketCount + (exp-subBucketBits)*subBucketCount + minor
}

// slotUpper returns the largest value mapping to slot s (the bucket's
// inclusive upper bound), the representative reported by Quantile.
func slotUpper(s int) int64 {
	if s < subBucketCount {
		return int64(s)
	}
	major := (s - subBucketCount) / subBucketCount
	minor := (s - subBucketCount) % subBucketCount
	low := int64(subBucketCount+minor) << uint(major)
	width := int64(1) << uint(major)
	return low + width - 1
}

// RecordValue adds one observation of v (negative values clamp to zero).
func (h *Histogram) RecordValue(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[slot(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
}

// Record adds one observation of a duration in nanoseconds.
func (h *Histogram) Record(d time.Duration) { h.RecordValue(int64(d)) }

// Count returns the number of recorded observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the exact sum of recorded values (nanoseconds under the
// Record convention).
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Mean returns the exact mean of recorded values, 0 when empty.
func (h *Histogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Max returns the exact maximum recorded value, 0 when empty.
func (h *Histogram) Max() int64 { return h.max.Load() }

// Min returns the exact minimum recorded value, 0 when empty.
func (h *Histogram) Min() int64 {
	if h.count.Load() == 0 {
		return 0
	}
	return h.min.Load()
}

// Quantile returns the value at quantile q in [0, 1]: the upper bound of
// the bucket containing the ⌈q·count⌉-th smallest observation, clamped to
// the exact recorded maximum (so Quantile(1) == Max). Returns 0 when empty.
func (h *Histogram) Quantile(q float64) int64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(q*float64(total) + 0.5)
	if target < 1 {
		target = 1
	}
	if target > total {
		target = total
	}
	var seen int64
	for s := 0; s < slotCount; s++ {
		seen += h.counts[s].Load()
		if seen >= target {
			v := slotUpper(s)
			if m := h.max.Load(); v > m {
				v = m
			}
			return v
		}
	}
	return h.max.Load()
}

// CountAtOrBelow returns how many observations fell into buckets whose
// upper bound is ≤ v's bucket — the cumulative count Prometheus histogram
// buckets need. The boundary is resolved at bucket granularity, consistent
// with Quantile.
func (h *Histogram) CountAtOrBelow(v int64) int64 {
	s := slot(v)
	var total int64
	for i := 0; i <= s && i < slotCount; i++ {
		total += h.counts[i].Load()
	}
	return total
}

// Merge adds every observation of o into h. Min/max/sum/count merge
// exactly; bucket counts merge slot-wise (both histograms share one
// geometry).
func (h *Histogram) Merge(o *Histogram) {
	if o == nil {
		return
	}
	for s := 0; s < slotCount; s++ {
		if n := o.counts[s].Load(); n != 0 {
			h.counts[s].Add(n)
		}
	}
	n := o.count.Load()
	if n == 0 {
		return
	}
	h.count.Add(n)
	h.sum.Add(o.sum.Load())
	for {
		cur := h.max.Load()
		v := o.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.min.Load()
		v := o.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
}
