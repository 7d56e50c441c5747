package infer

import (
	"math"
	"sort"
)

// Summaries of a weighted sample set that the tests compare against exact
// answers; production code reads samples through core.Posterior.

// Mean returns the weighted posterior mean.
func (w *WeightedSamples) Mean() float64 {
	s := 0.0
	for i, v := range w.Values {
		s += w.Weights[i] * v
	}
	return s
}

// Variance returns the weighted posterior variance.
func (w *WeightedSamples) Variance() float64 {
	mu := w.Mean()
	s := 0.0
	for i, v := range w.Values {
		d := v - mu
		s += w.Weights[i] * d * d
	}
	return s
}

// Std returns the weighted posterior standard deviation.
func (w *WeightedSamples) Std() float64 { return math.Sqrt(w.Variance()) }

// Exceedance returns the weighted posterior probability P(X > h).
func (w *WeightedSamples) Exceedance(h float64) float64 {
	s := 0.0
	for i, v := range w.Values {
		if v > h {
			s += w.Weights[i]
		}
	}
	return s
}

// Quantile returns the weighted q-quantile (0<=q<=1).
func (w *WeightedSamples) Quantile(q float64) float64 {
	if len(w.Values) == 0 {
		panic("infer: Quantile of empty sample set")
	}
	type pair struct{ v, w float64 }
	ps := make([]pair, len(w.Values))
	for i := range w.Values {
		ps[i] = pair{w.Values[i], w.Weights[i]}
	}
	sort.Slice(ps, func(a, b int) bool { return ps[a].v < ps[b].v })
	acc := 0.0
	for _, p := range ps {
		acc += p.w
		if acc >= q {
			return p.v
		}
	}
	return ps[len(ps)-1].v
}

// EffectiveSampleSize returns 1/Σw² — a diagnostic for weight degeneracy.
func (w *WeightedSamples) EffectiveSampleSize() float64 {
	s := 0.0
	for _, wi := range w.Weights {
		s += wi * wi
	}
	if s == 0 {
		return 0
	}
	return 1 / s
}
