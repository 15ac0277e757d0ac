// Package stats provides the small statistical helpers used when
// aggregating experiment results.
package stats

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// GeoMean returns the geometric mean; every input must be positive.
func GeoMean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("stats: geometric mean of no values")
	}
	var s float64
	for _, x := range xs {
		if x <= 0 {
			return 0, fmt.Errorf("stats: geometric mean requires positive values, got %g", x)
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs))), nil
}

// MinMax returns the extrema (zeros for an empty slice).
func MinMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

// Histogram is a fixed-bucket counter for small integer samples (e.g.
// instructions issued per cycle). Counts saturate at math.MaxUint64
// instead of wrapping: merging many large per-segment histograms (the
// time-parallel stitching path) must never silently overflow a total.
type Histogram struct {
	buckets []uint64
	total   uint64
}

// NewHistogram creates a histogram with buckets 0..max (values above max
// clamp into the last bucket).
func NewHistogram(max int) *Histogram {
	return &Histogram{buckets: make([]uint64, max+1)}
}

// satAdd returns a+b, clamped to math.MaxUint64 on overflow.
func satAdd(a, b uint64) uint64 {
	if s := a + b; s >= a {
		return s
	}
	return math.MaxUint64
}

// Add records a sample.
func (h *Histogram) Add(v int) {
	h.AddN(v, 1)
}

// AddN records n identical samples (e.g. a run of idle cycles skipped in
// one step). Counts saturate rather than wrap.
func (h *Histogram) AddN(v int, n uint64) {
	if v < 0 {
		v = 0
	}
	if v >= len(h.buckets) {
		v = len(h.buckets) - 1
	}
	h.buckets[v] = satAdd(h.buckets[v], n)
	h.total = satAdd(h.total, n)
}

// Clone returns an independent deep copy of the histogram.
func (h *Histogram) Clone() *Histogram {
	c := &Histogram{buckets: make([]uint64, len(h.buckets)), total: h.total}
	copy(c.buckets, h.buckets)
	return c
}

// Merge adds every count of o into h (saturating). The receiver grows to
// cover o's buckets if o is wider; o's clamping bucket then keeps its
// identity rather than re-clamping into h's last bucket.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil {
		return
	}
	if len(o.buckets) > len(h.buckets) {
		grown := make([]uint64, len(o.buckets))
		copy(grown, h.buckets)
		h.buckets = grown
	}
	for v, n := range o.buckets {
		h.buckets[v] = satAdd(h.buckets[v], n)
	}
	h.total = satAdd(h.total, o.total)
}

// SubCounts removes o's counts from h (h must be a later snapshot of the
// same accumulation: every bucket of h must hold at least o's count).
// This is how a measurement window's histogram is cut out of a run that
// includes a discarded warmup prefix.
func (h *Histogram) SubCounts(o *Histogram) error {
	if o == nil {
		return nil
	}
	if len(o.buckets) != len(h.buckets) {
		return fmt.Errorf("stats: subtracting a %d-bucket histogram from a %d-bucket one", len(o.buckets), len(h.buckets))
	}
	for v, n := range o.buckets {
		if h.buckets[v] < n {
			return fmt.Errorf("stats: bucket %d underflow (%d - %d)", v, h.buckets[v], n)
		}
		h.buckets[v] -= n
	}
	if h.total < o.total {
		return fmt.Errorf("stats: total underflow (%d - %d)", h.total, o.total)
	}
	h.total -= o.total
	return nil
}

// Count returns the samples recorded in bucket v (0 for a nil
// histogram).
func (h *Histogram) Count(v int) uint64 {
	if h == nil || v < 0 || v >= len(h.buckets) {
		return 0
	}
	return h.buckets[v]
}

// Max returns the highest bucket, which clamps larger samples (-1 for a
// nil histogram).
func (h *Histogram) Max() int {
	if h == nil {
		return -1
	}
	return len(h.buckets) - 1
}

// Total returns the number of samples.
func (h *Histogram) Total() uint64 { return h.total }

// Mean returns the mean sample value.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	var s uint64
	for v, n := range h.buckets {
		s += uint64(v) * n
	}
	return float64(s) / float64(h.total)
}

// Percentile returns the p-th percentile bucket. p is clamped into
// [0, 100]: p=0 is defined as the minimum occupied bucket (and p=100,
// like any p above 100, the maximum), so the result is always a bucket
// that actually holds samples.
func (h *Histogram) Percentile(p float64) int {
	if h.total == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		// Without the clamp, target overshoots the sample count and the
		// scan falls off the end, returning the last bucket even when it
		// is empty.
		p = 100
	}
	target := uint64(math.Ceil(p / 100 * float64(h.total)))
	if target < 1 {
		// Without the clamp, p=0 makes every bucket satisfy cum >= 0 and
		// bucket 0 is returned even when it is empty.
		target = 1
	}
	var cum uint64
	for v, n := range h.buckets {
		cum += n
		if cum >= target {
			return v
		}
	}
	return len(h.buckets) - 1
}

// MarshalJSON encodes the histogram as its bucket counts, so run results
// holding histograms can be persisted (see internal/runcache).
func (h *Histogram) MarshalJSON() ([]byte, error) {
	return json.Marshal(h.buckets)
}

// UnmarshalJSON restores a histogram from its bucket counts.
func (h *Histogram) UnmarshalJSON(data []byte) error {
	var buckets []uint64
	if err := json.Unmarshal(data, &buckets); err != nil {
		return err
	}
	h.buckets = buckets
	h.total = 0
	for _, n := range buckets {
		h.total += n
	}
	return nil
}

// Median of a float slice (0 for empty).
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
