package obs

import (
	"math"
	"testing"
)

// Quantile accuracy contract: Histogram.Quantile interpolates linearly
// inside the bucket the q-quantile falls into (clamped to the observed
// min/max), so its absolute error is bounded by the width of that bucket —
// and by the within-bucket non-uniformity of the data, which the linear
// interpolation assumes away. The tests below pin that bound on two known
// distributions:
//
//   - uniform data over evenly spaced bounds: the within-bucket density IS
//     uniform, so the only error is bucket discretization — |err| <= width;
//   - exponential data over the default geometric latency buckets (ratio
//     10^(1/4) per bucket): |err| <= the width of the quantile's bucket,
//     i.e. a relative error of at most 10^(1/4)-1 ~ 78% in the worst case,
//     far tighter in practice because the exponential density is nearly
//     flat within one geometric bucket except deep in the tail.
//
// Health PIT histograms rely on this: over B evenly spaced [0,1] bins a
// reported PIT quantile is within 1/B of the exact one.

// uniformBounds returns n evenly spaced bucket bounds over (0, hi].
func uniformBounds(n int, hi float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = hi * float64(i+1) / float64(n)
	}
	return out
}

func TestQuantileUniformWithinBucketWidth(t *testing.T) {
	const buckets = 100
	const n = 10_000
	h := newHistogram(uniformBounds(buckets, 1))
	// Deterministic uniform grid on [0,1): exact quantile Q(q) = q.
	for i := 0; i < n; i++ {
		h.Observe((float64(i) + 0.5) / n)
	}
	width := 1.0 / buckets
	for _, q := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
		got := h.Quantile(q)
		if err := math.Abs(got - q); err > width+1e-9 {
			t.Errorf("uniform q=%.2f: estimate %.5f, exact %.5f, |err| %.5f > bucket width %.5f",
				q, got, q, err, width)
		}
	}
}

func TestQuantileExponentialWithinBucketWidth(t *testing.T) {
	const n = 20_000
	h := newHistogram(latencyBuckets)
	// Deterministic inverse-CDF grid of Exp(1): x_i = -ln(1 - u_i),
	// exact quantile Q(q) = -ln(1-q).
	for i := 0; i < n; i++ {
		u := (float64(i) + 0.5) / n
		h.Observe(-math.Log(1 - u))
	}
	bounds := latencyBuckets
	bucketWidth := func(x float64) float64 {
		lo := 0.0
		for _, b := range bounds {
			if x <= b {
				return b - lo
			}
			lo = b
		}
		return math.Inf(1) // overflow bucket: unbounded
	}
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
		exact := -math.Log(1 - q)
		got := h.Quantile(q)
		if err := math.Abs(got - exact); err > bucketWidth(exact)+1e-9 {
			t.Errorf("exponential q=%.2f: estimate %.5f, exact %.5f, |err| %.5f > bucket width %.5f",
				q, got, exact, err, bucketWidth(exact))
		}
	}
	// Sanity: the median estimate is also within the documented relative
	// bound for geometric buckets, 10^(1/4)-1.
	exact := -math.Log(0.5)
	rel := math.Abs(h.Quantile(0.5)-exact) / exact
	if maxRel := math.Pow(10, 0.25) - 1; rel > maxRel {
		t.Errorf("median relative error %.3f exceeds geometric-bucket bound %.3f", rel, maxRel)
	}
}
