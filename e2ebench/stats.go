package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile. A
// tail read from fewer samples moves from run to run with the one or two
// outliers that happen to land there.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs. It
// refuses when fewer than minBeyond samples lie above that rank, so p90
// needs at least 100 samples and p50 at least 20.
func percentile(xs []float64, p float64) (float64, error) {
	if p <= 0 || p >= 1 {
		return 0, fmt.Errorf("percentile %g outside (0, 1)", p)
	}
	n := len(xs)
	k := int(math.Ceil(p*float64(n))) - 1
	if k < 0 || n-1-k < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", 100*p, n, max(n-1-k, 0), minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[k], nil
}

// median is the plain middle value, for summaries where every sample is a
// whole repeat of the same measurement (set-up times).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
