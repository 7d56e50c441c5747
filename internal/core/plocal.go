package core

import (
	"fmt"
	"math"
	"sort"

	"kertbn/internal/stats"
)

// Suspicion scores one service's likely involvement in an observed
// end-to-end violation.
type Suspicion struct {
	Service int
	Name    string
	// PriorMean and PosteriorMean are the service's elapsed-time means
	// before and after conditioning on the observed response time.
	PriorMean, PosteriorMean float64
	// Shift is the posterior/prior mean ratio — how much the observation
	// inflates the service's estimated elapsed time.
	Shift float64
	// KL is the Kullback–Leibler divergence of the posterior from the
	// prior (discrete models; 0 for Monte-Carlo posteriors).
	KL float64
}

// PLocalOptions tunes problem localization.
type PLocalOptions struct {
	NSamples int
	RNG      *stats.RNG
	// Workers > 1 uses the sharded Monte-Carlo sampler per query; <= 1 keeps
	// the serial sampler (see DCompOptions.Workers for the trade-off).
	Workers int
}

// PLocal implements the performance-problem-localization activity the
// paper's introduction motivates: given an observed (typically
// threshold-violating) end-to-end response time, infer each service's
// elapsed-time posterior and rank services by how far the observation
// pushes them from their priors. The top-ranked services are where the
// slowdown most plausibly lives — the place to point pAccel at next.
func PLocal(m *Model, observedD float64, opts PLocalOptions) ([]Suspicion, error) {
	if observedD <= 0 {
		return nil, fmt.Errorf("core: observed response time must be positive")
	}
	evidence := map[int]float64{m.DNode: observedD}
	out := make([]Suspicion, 0, m.NumServices)
	for svc := 0; svc < m.NumServices; svc++ {
		prior, err := posteriorForNode(m, svc, nil, opts.NSamples, opts.Workers, opts.RNG, nil)
		if err != nil {
			return nil, fmt.Errorf("core: prior for service %d: %w", svc, err)
		}
		post, err := posteriorForNode(m, svc, evidence, opts.NSamples, opts.Workers, opts.RNG, nil)
		if err != nil {
			return nil, fmt.Errorf("core: posterior for service %d: %w", svc, err)
		}
		s := Suspicion{
			Service:       svc,
			Name:          m.Net.Node(svc).Name,
			PriorMean:     prior.Mean(),
			PosteriorMean: post.Mean(),
		}
		if s.PriorMean > 0 {
			s.Shift = s.PosteriorMean / s.PriorMean
		}
		s.KL = posteriorKL(post, prior)
		out = append(out, s)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Shift != out[b].Shift {
			return out[a].Shift > out[b].Shift
		}
		return out[a].Service < out[b].Service
	})
	return out, nil
}

// posteriorKL computes KL(q || p) for two point-mass posteriors sharing a
// support grid (the discrete-inference case); mismatched supports return 0.
func posteriorKL(q, p *Posterior) float64 {
	if len(q.Support) != len(p.Support) {
		return 0
	}
	for i := range q.Support {
		if q.Support[i] != p.Support[i] {
			return 0
		}
	}
	kl := 0.0
	for i := range q.Probs {
		if q.Probs[i] <= 0 {
			continue
		}
		pp := p.Probs[i]
		if pp <= 0 {
			pp = 1e-12
		}
		kl += q.Probs[i] * math.Log(q.Probs[i]/pp)
	}
	return kl
}
