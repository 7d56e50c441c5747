package bn

import (
	"fmt"
	"math"

	"kertbn/internal/stats"
)

// DetFunc is the paper's Equation-4 CPD: the child is given deterministically
// by a workflow-derived function f of its parents, except for a "leak"
// probability l under which the value escapes the deterministic relation
// (imprecise monitoring-point placement, measurement noise, ...):
//
//	P(D = f(X) | X) = 1 - l
//	P(D ≠ f(X) | X) = l
//
// Continuously this is realized as a two-component mixture: with weight 1-l
// a tight Gaussian N(f(X), Sigma²) around the deterministic value, with
// weight l a broad uniform "leak" component over [LeakLo, LeakHi].
// Setting Leak=0 recovers the simulation setting of Section 4 (l = 0).
type DetFunc struct {
	// F maps parent values (in sorted-parent order) to the node's value.
	F func(parents []float64) float64
	// NParents is the arity F was built for.
	NParents int
	// Leak is l in Equation 4, in [0, 1).
	Leak float64
	// Sigma is the width of the deterministic component. It must be
	// positive for log-likelihoods to exist; it plays the role of
	// measurement noise around f(X).
	Sigma float64
	// LeakLo, LeakHi bound the uniform leak component. Ignored when Leak=0.
	LeakLo, LeakHi float64
}

// NewDetFunc constructs the CPD with validation. sigma is floored at a
// small positive value.
func NewDetFunc(f func([]float64) float64, nParents int, leak, sigma, leakLo, leakHi float64) (*DetFunc, error) {
	if f == nil {
		return nil, fmt.Errorf("bn: DetFunc with nil function")
	}
	if nParents < 0 {
		return nil, fmt.Errorf("bn: DetFunc with negative arity %d", nParents)
	}
	if leak < 0 || leak >= 1 {
		return nil, fmt.Errorf("bn: DetFunc leak %g out of [0,1)", leak)
	}
	if leak > 0 && leakHi <= leakLo {
		return nil, fmt.Errorf("bn: DetFunc leak range [%g,%g] empty", leakLo, leakHi)
	}
	const minSigma = 1e-6
	if sigma < minSigma {
		sigma = minSigma
	}
	return &DetFunc{F: f, NParents: nParents, Leak: leak, Sigma: sigma, LeakLo: leakLo, LeakHi: leakHi}, nil
}

// NumParents implements CPD.
func (d *DetFunc) NumParents() int { return d.NParents }

// LogProb implements CPD.
func (d *DetFunc) LogProb(x float64, parents []float64) float64 {
	mu := d.F(parents)
	dens := (1 - d.Leak) * stats.NormalPDF(x, mu, d.Sigma)
	if d.Leak > 0 && x >= d.LeakLo && x <= d.LeakHi {
		dens += d.Leak / (d.LeakHi - d.LeakLo)
	}
	if dens <= 0 {
		return math.Inf(-1)
	}
	return math.Log(dens)
}

// Sample implements CPD.
func (d *DetFunc) Sample(rng *stats.RNG, parents []float64) float64 {
	if d.Leak > 0 && rng.Bernoulli(d.Leak) {
		return d.LeakLo + rng.Float64()*(d.LeakHi-d.LeakLo)
	}
	return rng.Normal(d.F(parents), d.Sigma)
}
