package core

import (
	"bytes"
	"math"
	"testing"

	"kertbn/internal/bn"
	"kertbn/internal/simsvc"
	"kertbn/internal/stats"
)

func roundTrip(t *testing.T, m *Model) *Model {
	t.Helper()
	var buf bytes.Buffer
	if err := SaveModel(&buf, m); err != nil {
		t.Fatal(err)
	}
	back, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return back
}

func TestPersistDiscreteKERT(t *testing.T) {
	sys, train := edData(t, 600, 40)
	cfg := DefaultKERTConfig(sys.Workflow)
	cfg.Type = DiscreteModel
	cfg.Bins = 5
	cfg.Leak = 0.05
	m, err := BuildKERT(cfg, train)
	if err != nil {
		t.Fatal(err)
	}
	back := roundTrip(t, m)
	if back.Type != DiscreteModel || !back.Knowledge || back.DNode != m.DNode {
		t.Fatalf("metadata lost: %+v", back)
	}
	// Same likelihood on the same test data → identical parameters+codec.
	_, test := edData(t, 100, 41)
	llA, err := m.Log10Likelihood(test)
	if err != nil {
		t.Fatal(err)
	}
	llB, err := back.Log10Likelihood(test)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(llA-llB) > 1e-9 {
		t.Fatalf("likelihood changed after round trip: %g vs %g", llA, llB)
	}
	// Queries keep working.
	post, err := PAccel(back, 3, 0.2, PAccelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if post.Mean() <= 0 {
		t.Fatal("loaded model query failed")
	}
}

func TestPersistContinuousKERT(t *testing.T) {
	sys, train := edData(t, 400, 42)
	m, err := BuildKERT(DefaultKERTConfig(sys.Workflow), train)
	if err != nil {
		t.Fatal(err)
	}
	back := roundTrip(t, m)
	// The re-derived DetFunc must evaluate the same f.
	x := []float64{1, 2, 3, 4, 5, 6}
	if a, b := detF(t, m)(x), detF(t, back)(x); a != b {
		t.Fatalf("f changed after round trip: %g vs %g", a, b)
	}
	_, test := edData(t, 100, 43)
	llA, _ := m.Log10Likelihood(test)
	llB, _ := back.Log10Likelihood(test)
	if math.Abs(llA-llB) > 1e-9 {
		t.Fatalf("likelihood changed: %g vs %g", llA, llB)
	}
}

func TestPersistNRT(t *testing.T) {
	_, train := edData(t, 400, 44)
	m, err := BuildNRT(DefaultNRTConfig(), train)
	if err != nil {
		t.Fatal(err)
	}
	back := roundTrip(t, m)
	if back.Knowledge || back.Wf != nil {
		t.Fatal("NRT metadata lost")
	}
	_, test := edData(t, 100, 45)
	llA, _ := m.Log10Likelihood(test)
	llB, _ := back.Log10Likelihood(test)
	if math.Abs(llA-llB) > 1e-9 {
		t.Fatalf("likelihood changed: %g vs %g", llA, llB)
	}
}

func TestPersistTimeoutCountMetric(t *testing.T) {
	cs := simsvc.EDiaMoNDCountSystem()
	rng := stats.NewRNG(46)
	train, err := cs.GenerateDataset(300, rng)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultKERTConfig(cs.Workflow)
	cfg.Metric = TimeoutCountMetric
	m, err := BuildKERT(cfg, train)
	if err != nil {
		t.Fatal(err)
	}
	back := roundTrip(t, m)
	if back.Metric != TimeoutCountMetric {
		t.Fatal("metric kind lost")
	}
	// f must be the sum, not the Cardoso reduction.
	if got := detF(t, back)([]float64{1, 1, 1, 1, 1, 1}); got != 6 {
		t.Fatalf("persisted count f(1,…,1) = %g, want the sum 6", got)
	}
	test, err := cs.GenerateDataset(50, rng)
	if err != nil {
		t.Fatal(err)
	}
	llA, _ := m.Log10Likelihood(test)
	llB, _ := back.Log10Likelihood(test)
	if math.Abs(llA-llB) > 1e-9 {
		t.Fatalf("count-metric likelihood changed: %g vs %g", llA, llB)
	}
}

func TestLoadModelGarbage(t *testing.T) {
	if _, err := LoadModel(bytes.NewBufferString("not a gob stream")); err == nil {
		t.Fatal("garbage input should error")
	}
}

// detF returns the deterministic function of m's D node.
func detF(t *testing.T, m *Model) func([]float64) float64 {
	t.Helper()
	df, ok := m.Net.Node(m.DNode).CPD.(*bn.DetFunc)
	if !ok {
		t.Fatalf("D's CPD is %T, want *bn.DetFunc", m.Net.Node(m.DNode).CPD)
	}
	return df.F
}
