package obs

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// observeAll records every sample into h.
func observeAll(h *Histogram, samples []float64) {
	for _, v := range samples {
		h.Observe(v)
	}
}

// drawSamples returns n deterministic samples spanning several decades,
// including exact bucket boundaries and overflow values.
func drawSamples(rng *rand.Rand, bounds []float64, n int) []float64 {
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		switch rng.Intn(4) {
		case 0: // uniform inside the bucketed range
			out = append(out, bounds[0]+rng.Float64()*(bounds[len(bounds)-1]-bounds[0]))
		case 1: // exactly on a boundary
			out = append(out, bounds[rng.Intn(len(bounds))])
		case 2: // below the first bound
			out = append(out, bounds[0]*rng.Float64())
		default: // overflow
			out = append(out, bounds[len(bounds)-1]*(1+rng.Float64()))
		}
	}
	return out
}

func histStateEq(t *testing.T, a, b *Histogram, context string) {
	t.Helper()
	ac := a.BucketCounts(nil)
	bc := b.BucketCounts(nil)
	for i := range ac {
		if ac[i] != bc[i] {
			t.Fatalf("%s: bucket %d count %d vs %d", context, i, ac[i], bc[i])
		}
	}
	if a.Overflow() != b.Overflow() || a.Count() != b.Count() {
		t.Fatalf("%s: overflow/count diverge: %d/%d vs %d/%d", context, a.Overflow(), a.Count(), b.Overflow(), b.Count())
	}
	if math.Abs(a.Sum()-b.Sum()) > 1e-9*(1+math.Abs(b.Sum())) {
		t.Fatalf("%s: sum %v vs %v", context, a.Sum(), b.Sum())
	}
	if a.Min() != b.Min() || a.Max() != b.Max() {
		t.Fatalf("%s: min/max diverge: %v/%v vs %v/%v", context, a.Min(), a.Max(), b.Min(), b.Max())
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
		qa, qb := a.Quantile(q), b.Quantile(q)
		if math.Abs(qa-qb) > 1e-9*(1+math.Abs(qb)) {
			t.Fatalf("%s: q%.2f %v vs %v", context, q, qa, qb)
		}
	}
}

// TestHistogramMergeOfSplitsEqualsWhole is the core rollup-identity
// property: observe one sample stream whole, then split the same stream
// across k histograms and merge them — bucket counts, overflow, count,
// min/max must match exactly and sum/quantiles within 1e-9.
func TestHistogramMergeOfSplitsEqualsWhole(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	bounds := latencyBuckets
	for trial := 0; trial < 20; trial++ {
		samples := drawSamples(rng, bounds, 200+rng.Intn(400))
		whole := NewHistogram(bounds)
		observeAll(whole, samples)

		k := 2 + rng.Intn(5)
		parts := make([]*Histogram, k)
		for i := range parts {
			parts[i] = NewHistogram(bounds)
		}
		for i, v := range samples {
			parts[i%k].Observe(v)
		}
		merged := NewHistogram(bounds)
		for _, p := range parts {
			if err := merged.Merge(p); err != nil {
				t.Fatalf("merge: %v", err)
			}
		}
		histStateEq(t, merged, whole, "split-merge")
	}
}

// TestHistogramMergeCommutativeAssociative: merging the same parts in any
// order or grouping yields the same quantile reads (exactly the same
// integer state; float sums within tolerance).
func TestHistogramMergeCommutativeAssociative(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	bounds := countBuckets
	for trial := 0; trial < 10; trial++ {
		parts := make([]*Histogram, 3)
		for i := range parts {
			parts[i] = NewHistogram(bounds)
			observeAll(parts[i], drawSamples(rng, bounds, 50+rng.Intn(100)))
		}
		// (a+b)+c
		left := NewHistogram(bounds)
		for _, i := range []int{0, 1, 2} {
			if err := left.Merge(parts[i]); err != nil {
				t.Fatalf("merge: %v", err)
			}
		}
		// c+(b+a)
		right := NewHistogram(bounds)
		inner := NewHistogram(bounds)
		for _, i := range []int{1, 0} {
			if err := inner.Merge(parts[i]); err != nil {
				t.Fatalf("merge: %v", err)
			}
		}
		if err := right.Merge(parts[2]); err != nil {
			t.Fatalf("merge: %v", err)
		}
		if err := right.Merge(inner); err != nil {
			t.Fatalf("merge: %v", err)
		}
		histStateEq(t, left, right, "reorder")
	}
}

func TestHistogramMergeRejectsMismatchedBounds(t *testing.T) {
	a := NewHistogram([]float64{1, 2, 3})
	if err := a.Merge(NewHistogram([]float64{1, 2})); err == nil {
		t.Fatal("merge with fewer bounds must fail")
	}
	if err := a.Merge(NewHistogram([]float64{1, 2, 4})); err == nil {
		t.Fatal("merge with different bounds must fail")
	}
	if err := a.MergeParts([]float64{1, 2, 3}, []int64{0, -1, 0}, 0, 0, 0, 0); err == nil {
		t.Fatal("negative bucket count must be rejected")
	}
	if err := a.MergeParts([]float64{1, 2, 3}, []int64{0, 0, 0}, -1, 0, 0, 0); err == nil {
		t.Fatal("negative overflow must be rejected")
	}
}

func TestHistogramMergeEmptyKeepsMinMaxUntouched(t *testing.T) {
	a := NewHistogram([]float64{1, 2})
	a.Observe(1.5)
	if err := a.Merge(NewHistogram([]float64{1, 2})); err != nil {
		t.Fatalf("merge: %v", err)
	}
	if a.Min() != 1.5 || a.Max() != 1.5 || a.Count() != 1 {
		t.Fatalf("empty merge disturbed state: min %v max %v count %d", a.Min(), a.Max(), a.Count())
	}
}

// TestCounterDelta: increments accumulate to the counter's value, and a
// reset re-baselines instead of going negative.
func TestCounterDelta(t *testing.T) {
	var c Counter
	var d CounterDelta
	c.Add(5)
	if got := d.Take(&c); got != 5 {
		t.Fatalf("first take = %d, want 5", got)
	}
	c.Add(3)
	if got := d.Take(&c); got != 3 {
		t.Fatalf("second take = %d, want 3", got)
	}
	if got := d.Take(&c); got != 0 {
		t.Fatalf("idle take = %d, want 0", got)
	}
	c.Reset()
	c.Add(2)
	if got := d.Take(&c); got != 2 {
		t.Fatalf("post-reset take = %d, want 2 (re-baseline)", got)
	}
}

func TestGaugeDelta(t *testing.T) {
	var g Gauge
	var d GaugeDelta
	g.Set(1.5)
	if v, ok := d.Take(&g); !ok || v != 1.5 {
		t.Fatalf("first take = %v,%v want 1.5,true", v, ok)
	}
	if _, ok := d.Take(&g); ok {
		t.Fatal("unchanged gauge must not re-ship")
	}
	g.Set(math.NaN())
	if _, ok := d.Take(&g); !ok {
		t.Fatal("changed (NaN) gauge must ship")
	}
	if _, ok := d.Take(&g); ok {
		t.Fatal("NaN gauge must not re-ship forever")
	}
}

// TestHistogramDeltaReassembles: applying every Take increment through
// MergeParts reconstructs the source histogram state.
func TestHistogramDeltaReassembles(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	bounds := latencyBuckets
	src := NewHistogram(bounds)
	rebuilt := NewHistogram(bounds)
	var d HistogramDelta
	for round := 0; round < 8; round++ {
		observeAll(src, drawSamples(rng, bounds, 30))
		counts, overflow, sum, mn, mx, changed := d.Take(src, nil)
		if !changed {
			t.Fatalf("round %d: expected a change", round)
		}
		if err := rebuilt.MergeParts(bounds, counts, overflow, sum, mn, mx); err != nil {
			t.Fatalf("round %d: merge parts: %v", round, err)
		}
	}
	if _, _, _, _, _, changed := d.Take(src, nil); changed {
		t.Fatal("idle take must report no change")
	}
	histStateEq(t, rebuilt, src, "delta-reassembly")
}

// Standalone histograms and whole-histogram merges: the tests fold one
// histogram into another through MergeParts, as the rollup does.

// NewHistogram creates a standalone histogram (registered nowhere) with the
// given bucket bounds. The bounds are copied; they must be strictly
// ascending and free of NaNs or NewHistogram panics — rollup code decoding
// bounds off the wire validates them first.
func NewHistogram(bounds []float64) *Histogram {
	for i, b := range bounds {
		if math.IsNaN(b) || (i > 0 && bounds[i-1] >= b) {
			panic(fmt.Sprintf("obs: histogram bounds must be strictly ascending and NaN-free (index %d)", i))
		}
	}
	cp := make([]float64, len(bounds))
	copy(cp, bounds)
	return newHistogram(cp)
}

// Merge folds every observation recorded in other into h. Both histograms
// must share identical bucket bounds. Counts and sums add; min and max fold
// through min/max, so Merge is commutative and associative on the bucket
// counts exactly and on quantile reads up to float summation order in Sum.
func (h *Histogram) Merge(other *Histogram) error {
	if other == nil {
		return nil
	}
	counts := other.BucketCounts(make([]int64, 0, len(other.counts)))
	n := other.Count()
	var mn, mx float64
	if n > 0 {
		mn = math.Float64frombits(other.minBits.Load())
		mx = math.Float64frombits(other.maxBits.Load())
	}
	return h.MergeParts(other.bounds, counts, other.Overflow(), other.Sum(), mn, mx)
}
