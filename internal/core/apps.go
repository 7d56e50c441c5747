package core

import (
	"fmt"

	"kertbn/internal/infer"
	"kertbn/internal/stats"
)

// DCompOptions tunes the dComp application.
type DCompOptions struct {
	// NSamples sizes Monte-Carlo inference for continuous models.
	NSamples int
	// RNG drives Monte-Carlo inference (continuous models).
	RNG *stats.RNG
	// Workers > 1 answers Monte-Carlo queries with the sharded sampler
	// (infer.LikelihoodWeightingParallel) bounded by Workers goroutines;
	// <= 1 keeps the serial sampler. Either way results are deterministic
	// for a fixed RNG, but the two samplers lay out streams differently, so
	// switching Workers across the 1/2 boundary changes the (equally valid)
	// sample set. Exact inference paths ignore Workers.
	Workers int
}

// DComp implements Section 5.1: estimate the elapsed-time distribution of
// an *unobservable* service from the observation means of the observable
// ones (and, typically, the measured end-to-end response time). observed
// maps node id → E(o), the current measurement mean; target is the node
// whose data went missing. The returned posterior is
// p(Y | O = E(o)) of the paper.
func DComp(m *Model, target int, observed map[int]float64, opts DCompOptions) (*Posterior, error) {
	if len(observed) == 0 {
		return nil, fmt.Errorf("core: dComp needs at least one observed node")
	}
	return posteriorForNode(m, target, observed, opts.NSamples, opts.Workers, opts.RNG, nil)
}

// PAccelOptions tunes the pAccel application.
type PAccelOptions struct {
	NSamples int
	RNG      *stats.RNG
	// Workers > 1 uses the sharded Monte-Carlo sampler; see
	// DCompOptions.Workers for the determinism trade-off.
	Workers int
}

// PAccel implements Section 5.2: project the end-to-end response time
// distribution p(D | Z = E(z)) given a prediction about one service's
// elapsed time (e.g. after local resource-allocation actions reduce it to
// 90% of its former mean). service is the node id of Z; predictedMean is
// E(z).
func PAccel(m *Model, service int, predictedMean float64, opts PAccelOptions) (*Posterior, error) {
	if service == m.DNode {
		return nil, fmt.Errorf("core: pAccel conditions on a service node, not D")
	}
	return posteriorForNode(m, m.DNode, map[int]float64{service: predictedMean}, opts.NSamples, opts.Workers, opts.RNG, nil)
}

// ResponseTimePosterior returns p(D | evidence) for arbitrary evidence — a
// generalization both applications share and autonomic callers can use
// directly.
func ResponseTimePosterior(m *Model, evidence map[int]float64, nSamples int, rng *stats.RNG) (*Posterior, error) {
	return posteriorForNode(m, m.DNode, evidence, nSamples, 1, rng, nil)
}

// ResponseTimePosteriorInto is ResponseTimePosterior drawing its
// Monte-Carlo samples into buf's storage, which grows once and is then
// reused: a caller that evaluates one model generation after another (the
// health monitor's deploy) allocates no sample slices after the first. The
// returned Posterior aliases buf and is valid until buf's next use; exact
// inference paths ignore buf. The answer equals ResponseTimePosterior's
// bit for bit.
func ResponseTimePosteriorInto(buf *infer.WeightedSamples, m *Model, evidence map[int]float64, nSamples int, rng *stats.RNG) (*Posterior, error) {
	return posteriorForNode(m, m.DNode, evidence, nSamples, 1, rng, buf)
}
