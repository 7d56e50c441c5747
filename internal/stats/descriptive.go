package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds streaming moments computed with Welford's algorithm.
//
// NaN semantics (skip-and-count): Add ignores NaN observations entirely —
// they touch neither the moments nor Min/Max — and counts them in NaNs, so
// a single bad measurement cannot poison a whole monitoring window while
// callers can still see data quality. ±Inf observations are real values and
// propagate.
//
// Empty semantics: with N == 0 the Min/Max fields hold the ±Inf sentinels
// they were initialized with. Callers that print or aggregate extremes must
// check N first, so the sentinels never leak.
type Summary struct {
	N        int
	mean, m2 float64
	Min, Max float64
	// NaNs counts observations skipped because they were NaN.
	NaNs int
}

// NewSummary returns an empty accumulator.
func NewSummary() *Summary {
	return &Summary{Min: math.Inf(1), Max: math.Inf(-1)}
}

// Add folds one observation into the summary. NaN observations are skipped
// and counted in NaNs.
func (s *Summary) Add(x float64) {
	if math.IsNaN(x) {
		s.NaNs++
		return
	}
	s.N++
	d := x - s.mean
	s.mean += d / float64(s.N)
	s.m2 += d * (x - s.mean)
	if x < s.Min {
		s.Min = x
	}
	if x > s.Max {
		s.Max = x
	}
}

// Remove reverse-updates the running moments, deleting one previously Added
// observation — the sliding-window path of the incremental rebuild
// accumulators. Removing a NaN decrements the NaNs counter. Min and Max
// cannot be reverse-updated from moments alone, so after a Remove they are
// high-water marks of everything ever Added, not of the surviving set; use
// them accordingly. Removing from an empty summary panics: it
// always indicates accumulator corruption.
func (s *Summary) Remove(x float64) {
	if math.IsNaN(x) {
		if s.NaNs <= 0 {
			panic("stats: Summary.Remove(NaN) with no NaN observations")
		}
		s.NaNs--
		return
	}
	if s.N <= 0 {
		panic("stats: Summary.Remove from empty summary")
	}
	if s.N == 1 {
		s.N, s.mean, s.m2 = 0, 0, 0
		return
	}
	meanOld := (float64(s.N)*s.mean - x) / float64(s.N-1)
	s.m2 -= (x - meanOld) * (x - s.mean)
	if s.m2 < 0 {
		s.m2 = 0 // guard tiny negative round-off
	}
	s.mean = meanOld
	s.N--
}

// Mean returns the running mean (0 for an empty summary).
func (s *Summary) Mean() float64 { return s.mean }

// Variance returns the population variance (ML estimate).
func (s *Summary) Variance() float64 {
	if s.N == 0 {
		return 0
	}
	return s.m2 / float64(s.N)
}

// Std returns the population standard deviation.
func (s *Summary) Std() float64 { return math.Sqrt(s.Variance()) }

// Summarize computes a Summary over a slice. NaN entries are skipped and
// counted (see Summary); an empty slice yields N == 0, for which Min/Max
// hold the ±Inf sentinels — check N before printing extremes.
func Summarize(xs []float64) *Summary {
	s := NewSummary()
	for _, x := range xs {
		s.Add(x)
	}
	return s
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Std returns the population standard deviation of xs.
func Std(xs []float64) float64 { return Summarize(xs).Std() }

// Quantile returns the q-th quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. It panics on empty input.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("stats: Quantile of empty slice")
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: Quantile q=%g out of [0,1]", q))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Covariance returns the population covariance of paired samples.
func Covariance(xs, ys []float64) float64 {
	if len(xs) != len(ys) {
		panic("stats: Covariance length mismatch")
	}
	if len(xs) == 0 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	s := 0.0
	for i := range xs {
		s += (xs[i] - mx) * (ys[i] - my)
	}
	return s / float64(len(xs))
}

// Correlation returns the Pearson correlation coefficient, or 0 when either
// marginal variance vanishes.
func Correlation(xs, ys []float64) float64 {
	sx, sy := Std(xs), Std(ys)
	if sx == 0 || sy == 0 {
		return 0
	}
	return Covariance(xs, ys) / (sx * sy)
}

// NormalPDF returns the density of N(mu, sigma²) at x.
func NormalPDF(x, mu, sigma float64) float64 {
	if sigma <= 0 {
		panic("stats: NormalPDF with non-positive sigma")
	}
	z := (x - mu) / sigma
	return math.Exp(-0.5*z*z) / (sigma * math.Sqrt(2*math.Pi))
}

// NormalLogPDF returns the log density of N(mu, sigma²) at x.
func NormalLogPDF(x, mu, sigma float64) float64 {
	if sigma <= 0 {
		panic("stats: NormalLogPDF with non-positive sigma")
	}
	z := (x - mu) / sigma
	return -0.5*z*z - math.Log(sigma) - 0.5*math.Log(2*math.Pi)
}

// NormalCDF returns P(X <= x) for X ~ N(mu, sigma²).
func NormalCDF(x, mu, sigma float64) float64 {
	if sigma <= 0 {
		panic("stats: NormalCDF with non-positive sigma")
	}
	return 0.5 * math.Erfc(-(x-mu)/(sigma*math.Sqrt2))
}

// EmpiricalExceedance returns the fraction of xs strictly greater than h.
func EmpiricalExceedance(xs []float64, h float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	n := 0
	for _, x := range xs {
		if x > h {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}
