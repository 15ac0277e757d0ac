package stats

import (
	"encoding/json"
	"math"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %g", got)
	}
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %g", got)
	}
}

func TestGeoMean(t *testing.T) {
	got, err := GeoMean([]float64{1, 4, 16})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-4) > 1e-9 {
		t.Errorf("GeoMean = %g, want 4", got)
	}
	if _, err := GeoMean(nil); err == nil {
		t.Error("GeoMean(nil) succeeded")
	}
	if _, err := GeoMean([]float64{1, -1}); err == nil {
		t.Error("GeoMean with negative input succeeded")
	}
}

func TestMinMax(t *testing.T) {
	lo, hi := MinMax([]float64{3, -1, 7, 2})
	if lo != -1 || hi != 7 {
		t.Errorf("MinMax = %g, %g", lo, hi)
	}
	lo, hi = MinMax(nil)
	if lo != 0 || hi != 0 {
		t.Errorf("MinMax(nil) = %g, %g", lo, hi)
	}
}

func TestMedian(t *testing.T) {
	if got := Median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %g", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g", got)
	}
	if got := Median(nil); got != 0 {
		t.Errorf("Median(nil) = %g", got)
	}
	// Median must not mutate its input.
	in := []float64{3, 1, 2}
	Median(in)
	if in[0] != 3 {
		t.Error("Median sorted its input in place")
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(8)
	for _, v := range []int{0, 1, 1, 2, 8, 100, -5} {
		h.Add(v)
	}
	if h.Total() != 7 {
		t.Errorf("total = %d", h.Total())
	}
	if h.Count(1) != 2 {
		t.Errorf("count(1) = %d", h.Count(1))
	}
	if h.Count(8) != 2 { // 8 and the clamped 100
		t.Errorf("count(8) = %d", h.Count(8))
	}
	if h.Count(0) != 2 { // 0 and the clamped -5
		t.Errorf("count(0) = %d", h.Count(0))
	}
	if h.Count(-1) != 0 || h.Count(99) != 0 {
		t.Error("out-of-range Count not zero")
	}
	if got := h.Percentile(50); got != 1 {
		t.Errorf("P50 = %d, want 1", got)
	}
	if got := h.Percentile(100); got != 8 {
		t.Errorf("P100 = %d, want 8", got)
	}
	if NewHistogram(4).Mean() != 0 {
		t.Error("empty histogram mean not 0")
	}
}

func TestHistogramMean(t *testing.T) {
	h := NewHistogram(10)
	h.Add(2)
	h.Add(4)
	if got := h.Mean(); got != 3 {
		t.Errorf("mean = %g", got)
	}
}

func TestPropertyMeanWithinRange(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		m := Mean(xs)
		lo, hi := MinMax(xs)
		return m >= lo-1e-9 && m <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyGeoMeanLEArithMean(t *testing.T) {
	f := func(raw []uint8) bool {
		xs := make([]float64, 0, len(raw))
		for _, r := range raw {
			xs = append(xs, float64(r)+1)
		}
		if len(xs) == 0 {
			return true
		}
		g, err := GeoMean(xs)
		return err == nil && g <= Mean(xs)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPercentileBounds is the regression test for the p=0 bug: with an
// empty bucket 0, Percentile(0) used to return 0 (target computed to 0,
// so the very first bucket satisfied cum >= target). p=0 is defined as
// the minimum occupied bucket and p=100 as the maximum.
func TestPercentileBounds(t *testing.T) {
	h := NewHistogram(10)
	for _, v := range []int{3, 5, 5, 9} {
		h.Add(v)
	}
	if got := h.Percentile(0); got != 3 {
		t.Errorf("P0 = %d, want 3 (minimum occupied bucket)", got)
	}
	if got := h.Percentile(100); got != 9 {
		t.Errorf("P100 = %d, want 9 (maximum occupied bucket)", got)
	}
	// When bucket 0 is occupied, P0 is genuinely 0.
	h.Add(0)
	if got := h.Percentile(0); got != 0 {
		t.Errorf("P0 with occupied bucket 0 = %d, want 0", got)
	}
	// Empty histogram: every percentile reports bucket 0.
	e := NewHistogram(4)
	if e.Percentile(0) != 0 || e.Percentile(100) != 0 {
		t.Error("empty histogram percentile not 0")
	}
}

// TestPercentileClamp is the regression test for out-of-range p: p>100
// used to overshoot the sample count, walk off the occupied buckets and
// return len(buckets)-1 even when that bucket was empty — violating the
// documented "always an occupied bucket" contract. p is now clamped into
// [0, 100].
func TestPercentileClamp(t *testing.T) {
	h := NewHistogram(10)
	for _, v := range []int{2, 3, 3} {
		h.Add(v)
	}
	// Bucket 10 is empty; every p above 100 must report the maximum
	// occupied bucket, exactly like p=100.
	for _, p := range []float64{100.0001, 150, 1e9, math.Inf(1)} {
		if got := h.Percentile(p); got != 3 {
			t.Errorf("Percentile(%g) = %d, want 3 (maximum occupied bucket)", p, got)
		}
	}
	// Negative p clamps to the p=0 definition: the minimum occupied bucket.
	for _, p := range []float64{-0.0001, -50, math.Inf(-1)} {
		if got := h.Percentile(p); got != 2 {
			t.Errorf("Percentile(%g) = %d, want 2 (minimum occupied bucket)", p, got)
		}
	}
}

// TestHistogramMerge covers the segment-stitching path: per-segment
// histograms merged into one must agree with a single accumulation.
func TestHistogramMerge(t *testing.T) {
	whole := NewHistogram(8)
	a, b := NewHistogram(8), NewHistogram(8)
	for i, v := range []int{0, 1, 1, 3, 5, 8, 8, 2} {
		whole.Add(v)
		if i < 4 {
			a.Add(v)
		} else {
			b.Add(v)
		}
	}
	m := NewHistogram(8)
	m.Merge(a)
	m.Merge(b)
	if m.Total() != whole.Total() || m.Mean() != whole.Mean() {
		t.Errorf("merged total/mean %d/%g, want %d/%g", m.Total(), m.Mean(), whole.Total(), whole.Mean())
	}
	for v := 0; v <= 8; v++ {
		if m.Count(v) != whole.Count(v) {
			t.Errorf("merged count(%d) = %d, want %d", v, m.Count(v), whole.Count(v))
		}
	}
	// Merging a wider histogram grows the receiver instead of re-clamping
	// the wide one's buckets.
	narrow, wide := NewHistogram(2), NewHistogram(6)
	wide.Add(5)
	narrow.Merge(wide)
	if narrow.Count(5) != 1 || narrow.Count(2) != 0 {
		t.Errorf("wide merge re-clamped: count(5)=%d count(2)=%d", narrow.Count(5), narrow.Count(2))
	}
	// Merging nil is a no-op.
	narrow.Merge(nil)
	if narrow.Total() != 1 {
		t.Errorf("nil merge changed total to %d", narrow.Total())
	}
}

// TestHistogramSaturation pins that AddN and Merge clamp at MaxUint64
// instead of wrapping: stitching many large per-segment counts must
// never silently overflow a total.
func TestHistogramSaturation(t *testing.T) {
	h := NewHistogram(4)
	h.AddN(1, math.MaxUint64-5)
	h.AddN(1, 100) // would wrap
	if h.Total() != math.MaxUint64 || h.Count(1) != math.MaxUint64 {
		t.Errorf("AddN wrapped: total %d, count %d", h.Total(), h.Count(1))
	}
	a, b := NewHistogram(4), NewHistogram(4)
	a.AddN(2, math.MaxUint64-1)
	b.AddN(2, math.MaxUint64-1)
	a.Merge(b)
	if a.Total() != math.MaxUint64 || a.Count(2) != math.MaxUint64 {
		t.Errorf("Merge wrapped: total %d, count %d", a.Total(), a.Count(2))
	}
	// A saturated total still yields a sane (if approximate) mean.
	if m := a.Mean(); math.IsNaN(m) || m < 0 {
		t.Errorf("saturated mean = %g", m)
	}
}

// TestHistogramCloneSub covers the warmup-discard path: a later snapshot
// minus an earlier one leaves exactly the in-window counts, and Clone is
// a deep copy.
func TestHistogramCloneSub(t *testing.T) {
	h := NewHistogram(4)
	h.Add(1)
	h.Add(2)
	warm := h.Clone()
	h.Add(2)
	h.Add(4)
	if warm.Count(2) != 1 {
		t.Error("Clone is not a deep copy")
	}
	if err := h.SubCounts(warm); err != nil {
		t.Fatal(err)
	}
	if h.Total() != 2 || h.Count(2) != 1 || h.Count(4) != 1 || h.Count(1) != 0 {
		t.Errorf("after SubCounts: total %d, counts %d/%d/%d", h.Total(), h.Count(1), h.Count(2), h.Count(4))
	}
	// Underflow (subtracting a later snapshot from an earlier one) is an
	// error, not a wrap.
	early, late := NewHistogram(2), NewHistogram(2)
	late.Add(1)
	if err := early.SubCounts(late); err == nil {
		t.Error("SubCounts underflow not detected")
	}
	mismatched := NewHistogram(9)
	if err := late.SubCounts(mismatched); err == nil {
		t.Error("SubCounts width mismatch not detected")
	}
	if err := late.SubCounts(nil); err != nil {
		t.Errorf("SubCounts(nil): %v", err)
	}
}

// TestHistogramJSONRoundTrip guards the encoding used by the on-disk
// run cache.
func TestHistogramJSONRoundTrip(t *testing.T) {
	h := NewHistogram(4)
	for _, v := range []int{0, 2, 2, 4} {
		h.Add(v)
	}
	data, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	var got Histogram
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.Total() != h.Total() || got.Count(2) != 2 || got.Percentile(100) != 4 {
		t.Errorf("round trip lost data: %+v", got)
	}
}
