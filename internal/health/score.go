package health

import (
	"fmt"
	"math"

	"kertbn/internal/bn"
	"kertbn/internal/core"
	"kertbn/internal/stats"
)

// ClampPenalty is the floor applied to per-node log-likelihood terms,
// mirroring bn.(*Network).LogLikelihood: a zero-probability observation
// contributes this penalty instead of -Inf, so one impossible row cannot
// erase a whole scoring window (and the Monitor's totals stay consistent
// with Model.Log10Likelihood over the same rows).
const ClampPenalty = -1e3

// Scorer evaluates single observation rows (raw continuous units, model
// column layout: services, resources, D) against one deployed model. It
// produces, per node, the natural-log likelihood term of the model's family
// decomposition — the per-service CPD terms plus the Equation-4 D-node term
// — and the PIT (probability integral transform) calibration value
// u = P(X <= x | parents), which is Uniform[0,1] exactly when the CPD is
// calibrated to the data.
//
// A Scorer is cheap to build and immutable once built, but ScoreRow reuses
// internal scratch buffers, so a single Scorer must not be used from
// multiple goroutines concurrently (the Monitor serializes access).
type Scorer struct {
	model   *core.Model
	names   []string
	parents [][]int
	paBuf   []float64
	encBuf  []float64
}

// NewScorer validates the model and caches its family structure.
func NewScorer(m *core.Model) (*Scorer, error) {
	if m == nil {
		return nil, fmt.Errorf("health: nil model")
	}
	if err := m.Net.Validate(); err != nil {
		return nil, fmt.Errorf("health: model does not validate: %w", err)
	}
	if m.Type == core.DiscreteModel && m.Codec == nil {
		return nil, fmt.Errorf("health: discrete model without codec")
	}
	n := m.Net.N()
	parents := make([][]int, n)
	maxArity := 0
	for id := 0; id < n; id++ {
		parents[id] = m.Net.Parents(id)
		if len(parents[id]) > maxArity {
			maxArity = len(parents[id])
		}
	}
	return &Scorer{
		model:   m,
		names:   m.Net.Names(),
		parents: parents,
		paBuf:   make([]float64, maxArity),
	}, nil
}

// Names returns node names in id order.
func (s *Scorer) Names() []string { return s.names }

// Model returns the model being scored.
func (s *Scorer) Model() *core.Model { return s.model }

// ScoreRow scores one raw row. perNode (length NumNodes) receives the
// clamped natural-log likelihood terms; pit (length NumNodes, or nil to
// skip) receives the PIT values. The returned total is the sum of the
// perNode terms.
func (s *Scorer) ScoreRow(row []float64, perNode, pit []float64) (float64, error) {
	if len(row) != s.model.NumColumns() {
		return 0, fmt.Errorf("health: row has %d columns, model expects %d", len(row), s.model.NumColumns())
	}
	if len(perNode) != len(s.names) {
		return 0, fmt.Errorf("health: perNode buffer has length %d, want %d", len(perNode), len(s.names))
	}
	enc := row
	if s.model.Type == core.DiscreteModel {
		// Encode into the scorer's scratch buffer: after the first row the
		// buffer has capacity and per-row scoring allocates nothing.
		var err error
		s.encBuf, err = s.model.Codec.EncodeRowInto(s.encBuf, row)
		if err != nil {
			return 0, err
		}
		enc = s.encBuf
	}
	total := 0.0
	for id := range s.names {
		pa := s.paBuf[:len(s.parents[id])]
		for i, p := range s.parents[id] {
			pa[i] = enc[p]
		}
		cpd := s.model.Net.Node(id).CPD
		lp := cpd.LogProb(enc[id], pa)
		if math.IsInf(lp, -1) || lp < ClampPenalty {
			lp = ClampPenalty
		}
		perNode[id] = lp
		total += lp
		if pit != nil {
			pit[id] = pitValue(cpd, enc[id], pa)
		}
	}
	return total, nil
}

// pitValue computes the probability integral transform u = P(X <= x | pa)
// for the CPD families the models use. For discrete CPTs the mid-PIT
// (randomized-PIT expectation) u = P(X < x) + P(X = x)/2 is used, which is
// uniform in expectation under a calibrated CPT. Unknown CPD types yield
// NaN (calibration undefined).
func pitValue(cpd bn.CPD, x float64, parents []float64) float64 {
	switch c := cpd.(type) {
	case *bn.LinearGaussian:
		return stats.NormalCDF(x, c.Mean(parents), c.Sigma)
	case *bn.DetFunc:
		// Mixture CDF of Equation 4: Gaussian component around f(X) plus
		// the uniform leak component.
		u := (1 - c.Leak) * stats.NormalCDF(x, c.F(parents), c.Sigma)
		if c.Leak > 0 {
			frac := (x - c.LeakLo) / (c.LeakHi - c.LeakLo)
			if frac < 0 {
				frac = 0
			} else if frac > 1 {
				frac = 1
			}
			u += c.Leak * frac
		}
		return u
	case *bn.Tabular:
		// Index the CPT row in place — no []int conversion, no row copy.
		state := int(x)
		if state < 0 || state >= c.Card {
			return math.NaN()
		}
		base := 0
		for i, p := range parents {
			pi := int(p)
			if pi < 0 || pi >= c.ParentCard[i] {
				return math.NaN()
			}
			base = base*c.ParentCard[i] + pi
		}
		base *= c.Card
		u := 0.0
		for s := 0; s < state; s++ {
			u += c.P[base+s]
		}
		return u + 0.5*c.P[base+state]
	default:
		return math.NaN()
	}
}
