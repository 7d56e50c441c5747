package infer

import (
	"fmt"
	"math"
	"time"

	"kertbn/internal/bn"
	"kertbn/internal/obs"
	"kertbn/internal/stats"
)

var (
	lwQueries = obs.C("infer.lw.queries")
	lwSeconds = obs.H("infer.lw.seconds")
	lwSamples = obs.HCount("infer.lw.samples")
)

// ContinuousEvidence maps node id → observed real value (integer-valued for
// discrete nodes).
type ContinuousEvidence map[int]float64

// WeightedSamples is the output of likelihood weighting for one query node.
type WeightedSamples struct {
	Values  []float64
	Weights []float64
}

// LikelihoodWeighting estimates the posterior of `query` given evidence by
// drawing nSamples ancestral samples in which evidence nodes are clamped and
// each sample is weighted by the likelihood of the clamped values. It works
// for any CPD mix, including the nonlinear deterministic-with-leak D node of
// a continuous KERT-BN.
func LikelihoodWeighting(n *bn.Network, query int, ev ContinuousEvidence, nSamples int, rng *stats.RNG) (*WeightedSamples, error) {
	start := time.Now()
	defer func() { lwSeconds.Observe(time.Since(start).Seconds()) }()
	lwQueries.Inc()
	lwSamples.Observe(float64(nSamples))
	if query < 0 || query >= n.N() {
		return nil, fmt.Errorf("infer: query node %d out of range", query)
	}
	if _, isEv := ev[query]; isEv {
		return nil, fmt.Errorf("infer: query node %d is also evidence", query)
	}
	if nSamples <= 0 {
		return nil, fmt.Errorf("infer: nSamples must be positive, got %d", nSamples)
	}
	order := n.TopoOrder()
	out := &WeightedSamples{
		Values:  make([]float64, 0, nSamples),
		Weights: make([]float64, 0, nSamples),
	}
	row := make([]float64, n.N())
	for s := 0; s < nSamples; s++ {
		logW := 0.0
		for _, id := range order {
			node := n.Node(id)
			pv := n.ParentValues(id, row)
			if val, isEv := ev[id]; isEv {
				row[id] = val
				logW += node.CPD.LogProb(val, pv)
			} else {
				row[id] = node.CPD.Sample(rng, pv)
			}
		}
		if math.IsInf(logW, -1) {
			continue // impossible sample under evidence
		}
		out.Values = append(out.Values, row[query])
		out.Weights = append(out.Weights, logW)
	}
	if len(out.Values) == 0 {
		return nil, fmt.Errorf("infer: all %d samples had zero evidence likelihood", nSamples)
	}
	normalizeLogWeights(out.Weights)
	return out, nil
}

// normalizeLogWeights converts accumulated log weights in place to
// normalized linear weights (log-sum-exp).
func normalizeLogWeights(weights []float64) {
	maxLW := math.Inf(-1)
	for _, lw := range weights {
		if lw > maxLW {
			maxLW = lw
		}
	}
	total := 0.0
	for i, lw := range weights {
		w := math.Exp(lw - maxLW)
		weights[i] = w
		total += w
	}
	for i := range weights {
		weights[i] /= total
	}
}
