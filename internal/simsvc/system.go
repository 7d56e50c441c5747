package simsvc

import (
	"fmt"
	"math"

	"kertbn/internal/stats"
	"kertbn/internal/workflow"
)

// DistKind enumerates the supported delay distributions.
type DistKind int

const (
	// DistGamma is Gamma(shape=A, scale=B) — the default service-delay
	// shape (positive, right-skewed).
	DistGamma DistKind = iota
	// DistLogNormal is LogNormal(mu=A, sigma=B).
	DistLogNormal
	// DistExponential is Exp(rate=A).
	DistExponential
	// DistUniform is Uniform[A, B).
	DistUniform
	// DistNormalPos is N(A, B²) truncated at zero (resampled).
	DistNormalPos
)

// DelayDist is a parametric delay distribution.
type DelayDist struct {
	Kind DistKind
	A, B float64
}

// Sample draws one delay.
func (d DelayDist) Sample(rng *stats.RNG) float64 {
	switch d.Kind {
	case DistGamma:
		return rng.Gamma(d.A, d.B)
	case DistLogNormal:
		return rng.LogNormal(d.A, d.B)
	case DistExponential:
		return rng.Exponential(d.A)
	case DistUniform:
		return d.A + rng.Float64()*(d.B-d.A)
	case DistNormalPos:
		for {
			v := rng.Normal(d.A, d.B)
			if v >= 0 {
				return v
			}
		}
	default:
		panic(fmt.Sprintf("simsvc: unknown distribution kind %d", d.Kind))
	}
}

// Scaled returns the distribution with its mean multiplied by factor,
// keeping the shape family fixed — the primitive behind mid-stream
// workload shifts in drift experiments.
func (d DelayDist) Scaled(factor float64) DelayDist {
	switch d.Kind {
	case DistGamma:
		d.B *= factor // mean = A·B
	case DistLogNormal:
		d.A += math.Log(factor) // mean = exp(A + B²/2)
	case DistExponential:
		d.A /= factor // mean = 1/A
	case DistUniform, DistNormalPos:
		d.A *= factor
		d.B *= factor
	default:
		panic(fmt.Sprintf("simsvc: unknown distribution kind %d", d.Kind))
	}
	return d
}

// ServiceSpec describes one simulated service's delay behaviour.
type ServiceSpec struct {
	Name string
	// Base is the service's intrinsic processing-delay distribution.
	Base DelayDist
	// Coupling scales how strongly each immediate upstream service's
	// elapsed time feeds into this service's elapsed time (the bottleneck-
	// shift dependency of Section 3.2). One weight per upstream parent, in
	// sorted parent order; missing entries default to 0.
	Coupling []float64
}

// System bundles a workflow with per-service behaviour and the shared
// resources, ready for data generation.
type System struct {
	Workflow *workflow.Node
	Services []ServiceSpec
	// Resources declares shared-resource knowledge; each resource column is
	// generated as a weighted combination of its sharing services' elapsed
	// times plus noise.
	Resources []workflow.ResourceSharing
	// MeasurementSigma is additive Gaussian noise on the reported D (the
	// imprecision of monitoring-point placement the paper's leak models).
	MeasurementSigma float64
	// LeakProb occasionally replaces D with a uniformly drawn outlier in
	// [LeakLo, LeakHi] — the leak situation of Equation 4.
	LeakProb       float64
	LeakLo, LeakHi float64
}

// Validate checks the system wiring.
func (s *System) Validate() error {
	if s.Workflow == nil {
		return fmt.Errorf("simsvc: system needs a workflow")
	}
	if err := s.Workflow.Validate(); err != nil {
		return err
	}
	svcs := s.Workflow.Services()
	if len(svcs) != len(s.Services) {
		return fmt.Errorf("simsvc: workflow has %d services but %d specs supplied", len(svcs), len(s.Services))
	}
	for i, svc := range svcs {
		if svc != i {
			return fmt.Errorf("simsvc: service indices must be dense 0..n-1")
		}
	}
	if s.LeakProb < 0 || s.LeakProb >= 1 {
		return fmt.Errorf("simsvc: leak probability %g out of [0,1)", s.LeakProb)
	}
	if s.LeakProb > 0 && s.LeakHi <= s.LeakLo {
		return fmt.Errorf("simsvc: empty leak range")
	}
	for _, r := range s.Resources {
		for _, svc := range r.Services {
			if svc < 0 || svc >= len(s.Services) {
				return fmt.Errorf("simsvc: resource %q references unknown service %d", r.Name, svc)
			}
		}
	}
	return nil
}

// ScaleService multiplies service svc's base delay mean by factor in
// place — the mid-stream workload/capacity shift drift experiments inject
// (factor > 1: the service slows down; factor < 1: it speeds up). The
// shape family and every other service are untouched, so the shift is
// exactly localized.
func (s *System) ScaleService(svc int, factor float64) error {
	if svc < 0 || svc >= len(s.Services) {
		return fmt.Errorf("simsvc: service index %d out of range [0,%d)", svc, len(s.Services))
	}
	if factor <= 0 {
		return fmt.Errorf("simsvc: scale factor %g must be positive", factor)
	}
	s.Services[svc].Base = s.Services[svc].Base.Scaled(factor)
	return nil
}

// ColumnNames returns the canonical dataset columns for this system.
func (s *System) ColumnNames() []string {
	names := make([]string, len(s.Services))
	for i, sp := range s.Services {
		if sp.Name != "" {
			names[i] = sp.Name
		} else {
			names[i] = fmt.Sprintf("X%d", i+1)
		}
	}
	out := names
	for _, r := range s.Resources {
		out = append(out, "res_"+r.Name)
	}
	return append(out, "D")
}
