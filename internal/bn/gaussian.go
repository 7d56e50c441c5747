package bn

import (
	"fmt"

	"kertbn/internal/stats"
)

// LinearGaussian is the standard conditional linear-Gaussian CPD:
//
//	X | pa ~ N(Intercept + Σ_i Coef[i]·pa[i], Sigma²)
//
// It is the CPD the paper's continuous KERT-BN and NRT-BN use for the
// per-service elapsed-time nodes.
type LinearGaussian struct {
	Intercept float64
	Coef      []float64
	Sigma     float64
}

// NewLinearGaussian builds the CPD, flooring sigma at a small positive
// value so degenerate (constant) training columns stay usable.
func NewLinearGaussian(intercept float64, coef []float64, sigma float64) *LinearGaussian {
	const minSigma = 1e-6
	if sigma < minSigma {
		sigma = minSigma
	}
	return &LinearGaussian{
		Intercept: intercept,
		Coef:      append([]float64(nil), coef...),
		Sigma:     sigma,
	}
}

// NumParents implements CPD.
func (g *LinearGaussian) NumParents() int { return len(g.Coef) }

// Mean returns the conditional mean given parent values.
func (g *LinearGaussian) Mean(parents []float64) float64 {
	if len(parents) != len(g.Coef) {
		panic(fmt.Sprintf("bn: linear-Gaussian arity mismatch: %d parents, %d coefs", len(parents), len(g.Coef)))
	}
	m := g.Intercept
	for i, c := range g.Coef {
		m += c * parents[i]
	}
	return m
}

// LogProb implements CPD.
func (g *LinearGaussian) LogProb(x float64, parents []float64) float64 {
	return stats.NormalLogPDF(x, g.Mean(parents), g.Sigma)
}

// Sample implements CPD.
func (g *LinearGaussian) Sample(rng *stats.RNG, parents []float64) float64 {
	return rng.Normal(g.Mean(parents), g.Sigma)
}
