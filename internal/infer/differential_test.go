package infer

// Differential tests: likelihood weighting is checked against the exact
// oracle, the closed-form joint Gaussian, on seeded random networks with
// tolerance bands. Run just these with:
//
//	go test ./internal/infer -run Differential

import (
	"math"
	"testing"

	"kertbn/internal/bn"
	"kertbn/internal/stats"
)

// randomGaussianNet builds a random linear-Gaussian DAG: every pair i<j is
// an edge with probability pEdge, coefficients and noise drawn from rng.
func randomGaussianNet(t *testing.T, nNodes int, pEdge float64, rng *stats.RNG) *bn.Network {
	t.Helper()
	n := bn.NewNetwork()
	for i := 0; i < nNodes; i++ {
		if _, err := n.AddContinuousNode(string(rune('a' + i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < nNodes; i++ {
		for j := i + 1; j < nNodes; j++ {
			if rng.Float64() < pEdge {
				if err := n.AddEdge(i, j); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for id := 0; id < nNodes; id++ {
		parents := n.Parents(id)
		coef := make([]float64, len(parents))
		for k := range coef {
			coef[k] = rng.Normal(0, 0.8)
		}
		sigma := 0.3 + rng.Float64()
		if err := n.SetCPD(id, bn.NewLinearGaussian(rng.Normal(0, 1), coef, sigma)); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestDifferentialLWvsExactGaussian: on random linear-Gaussian networks,
// the likelihood-weighting posterior of an upstream node given downstream
// evidence must match the closed-form conditional from the joint Gaussian —
// mean, standard deviation, and a tail probability, each within a band
// scaled to the Monte Carlo error.
func TestDifferentialLWvsExactGaussian(t *testing.T) {
	const nSamples = 120_000
	for trial := uint64(0); trial < 6; trial++ {
		rng := stats.NewRNG(100 + trial)
		nNodes := 4 + rng.Intn(3)
		net := randomGaussianNet(t, nNodes, 0.5, rng)
		jg, err := BuildJointGaussian(net)
		if err != nil {
			t.Fatal(err)
		}
		// Evidence on the last node at a typical value (its own prior mean),
		// query the first node — the deepest upstream propagation.
		evNode, query := nNodes-1, 0
		evMu, _, err := jg.ConditionScalar(evNode, nil)
		if err != nil {
			t.Fatal(err)
		}
		ev := ContinuousEvidence{evNode: evMu}
		exactMu, exactVar, err := jg.ConditionScalar(query, ev)
		if err != nil {
			t.Fatal(err)
		}
		exactStd := math.Sqrt(exactVar)

		ws, err := LikelihoodWeighting(net, query, ev, nSamples, rng.Split(7))
		if err != nil {
			t.Fatal(err)
		}
		// Monte Carlo band: a few standard errors of the weighted mean.
		se := exactStd / math.Sqrt(ws.EffectiveSampleSize())
		tol := 6*se + 1e-3
		if d := math.Abs(ws.Mean() - exactMu); d > tol {
			t.Fatalf("trial %d: LW mean %.4f vs exact %.4f (|d|=%.4g > tol %.4g, ESS %.0f)",
				trial, ws.Mean(), exactMu, d, tol, ws.EffectiveSampleSize())
		}
		if d := math.Abs(ws.Std() - exactStd); d > 0.08*exactStd+1e-3 {
			t.Fatalf("trial %d: LW std %.4f vs exact %.4f", trial, ws.Std(), exactStd)
		}
		// Tail probability at half a standard deviation above the mean.
		h := exactMu + 0.5*exactStd
		wantTail := 1 - stats.NormalCDF(h, exactMu, exactStd)
		if d := math.Abs(ws.Exceedance(h) - wantTail); d > 0.03 {
			t.Fatalf("trial %d: LW tail %.4f vs exact %.4f", trial, ws.Exceedance(h), wantTail)
		}
	}
}

// TestDifferentialLWPriorMatchesExactGaussian: with no evidence at all, LW
// reduces to forward sampling; its marginals must match the joint Gaussian
// on every node, not just the response.
func TestDifferentialLWPriorMatchesExactGaussian(t *testing.T) {
	rng := stats.NewRNG(200)
	net := randomGaussianNet(t, 6, 0.5, rng)
	jg, err := BuildJointGaussian(net)
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 6; q++ {
		mu, v, err := jg.ConditionScalar(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		ws, err := LikelihoodWeighting(net, q, nil, 80_000, rng.Split(uint64(q)))
		if err != nil {
			t.Fatal(err)
		}
		std := math.Sqrt(v)
		if d := math.Abs(ws.Mean() - mu); d > 4*std/math.Sqrt(80_000)+1e-3 {
			t.Fatalf("node %d: prior mean %.4f vs exact %.4f", q, ws.Mean(), mu)
		}
		if d := math.Abs(ws.Std() - std); d > 0.05*std+1e-3 {
			t.Fatalf("node %d: prior std %.4f vs exact %.4f", q, ws.Std(), std)
		}
	}
}
