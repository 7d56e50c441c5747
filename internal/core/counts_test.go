package core

import (
	"math"
	"testing"

	"kertbn/internal/bn"
	"kertbn/internal/simsvc"
	"kertbn/internal/stats"
)

func TestTimeoutCountKERTContinuous(t *testing.T) {
	cs := simsvc.EDiaMoNDCountSystem()
	rng := stats.NewRNG(1)
	train, err := cs.GenerateDataset(500, rng)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultKERTConfig(cs.Workflow)
	cfg.Metric = TimeoutCountMetric
	m, err := BuildKERT(cfg, train)
	if err != nil {
		t.Fatal(err)
	}
	// D's CPD must be the sum function: f(1..1) = 6.
	det := m.Net.Node(m.DNode).CPD.(*bn.DetFunc)
	ones := []float64{1, 1, 1, 1, 1, 1}
	if det.F(ones) != 6 {
		t.Fatalf("timeout-count f(1,..,1) = %g, want 6", det.F(ones))
	}
	// Likelihood on held-out count data must be finite: D ≡ Σ X exactly.
	test, err := cs.GenerateDataset(100, rng)
	if err != nil {
		t.Fatal(err)
	}
	ll, err := m.Log10Likelihood(test)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(ll) || math.IsInf(ll, 0) {
		t.Fatalf("ll = %g", ll)
	}
}

func TestTimeoutCountKERTDiscrete(t *testing.T) {
	cs := simsvc.EDiaMoNDCountSystem()
	rng := stats.NewRNG(2)
	train, err := cs.GenerateDataset(800, rng)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultKERTConfig(cs.Workflow)
	cfg.Metric = TimeoutCountMetric
	cfg.Type = DiscreteModel
	cfg.Bins = 5
	cfg.Leak = 0.05
	m, err := BuildKERT(cfg, train)
	if err != nil {
		t.Fatal(err)
	}
	// pAccel analogue: predicting fewer timeouts at the worst service must
	// lower the projected end-to-end count.
	worst := 5 // ogsa_dai_remote has the highest base rate
	cur := stats.Mean(train.Col(worst))
	lower, err := PAccel(m, worst, 0.3*cur, PAccelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	higher, err := PAccel(m, worst, 2*cur, PAccelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if lower.Mean() >= higher.Mean() {
		t.Fatalf("fewer service timeouts should project fewer end-to-end timeouts: %g vs %g",
			lower.Mean(), higher.Mean())
	}
}

func TestMetricKindString(t *testing.T) {
	if ResponseTimeMetric.String() != "response-time" || TimeoutCountMetric.String() != "timeout-count" {
		t.Fatal("metric strings wrong")
	}
	if MetricKind(9).String() == "" {
		t.Fatal("unknown metric should render")
	}
}
