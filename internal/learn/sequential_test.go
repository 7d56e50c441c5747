package learn

import (
	"math"
	"testing"

	"kertbn/internal/bn"
	"kertbn/internal/stats"
)

func seqNet(t *testing.T) *bn.Network {
	t.Helper()
	net := bn.NewNetwork()
	a, _ := net.AddDiscreteNode("a", 2)
	b, _ := net.AddDiscreteNode("b", 2)
	if err := net.AddEdge(a.ID, b.ID); err != nil {
		t.Fatal(err)
	}
	_ = net.SetCPD(a.ID, bn.NewTabular(2, nil))
	_ = net.SetCPD(b.ID, bn.NewTabular(2, []int{2}))
	return net
}

// rootObservations is how many rows node 0 (a root of seqNet, two states,
// pseudo-count 1 each) has counted.
func rootObservations(u *SequentialUpdater) float64 {
	return u.counts[0][0] + u.counts[0][1] - 2
}

func TestSequentialUpdaterConverges(t *testing.T) {
	net := seqNet(t)
	u, err := NewSequentialUpdaterSkip(net, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(1)
	for i := 0; i < 5000; i++ {
		a := 0.0
		if rng.Bernoulli(0.3) {
			a = 1
		}
		b := 0.0
		if (a == 1 && rng.Bernoulli(0.9)) || (a == 0 && rng.Bernoulli(0.1)) {
			b = 1
		}
		if err := u.Observe([]float64{a, b}); err != nil {
			t.Fatal(err)
		}
	}
	if n := rootObservations(u); n != 5000 {
		t.Fatalf("root counted %g observations, want 5000", n)
	}
	tb := net.Node(1).CPD.(*bn.Tabular)
	if math.Abs(tb.Prob(1, []int{1})-0.9) > 0.03 {
		t.Fatalf("P(b=1|a=1) = %g, want ~0.9", tb.Prob(1, []int{1}))
	}
}

func TestSequentialUpdaterStaleness(t *testing.T) {
	// The Section-2 effect in miniature: after the environment flips, the
	// accumulated counts hold the model back.
	net := seqNet(t)
	u, _ := NewSequentialUpdaterSkip(net, 1, nil)
	// Phase 1: P(a=1) = 0.1 for 2000 observations.
	for i := 0; i < 2000; i++ {
		a := 0.0
		if i%10 == 0 {
			a = 1
		}
		_ = u.Observe([]float64{a, 0})
	}
	// Phase 2: P(a=1) = 0.9 for 500 observations.
	for i := 0; i < 500; i++ {
		a := 1.0
		if i%10 == 0 {
			a = 0
		}
		_ = u.Observe([]float64{a, 0})
	}
	ta := net.Node(0).CPD.(*bn.Tabular)
	got := ta.Prob(1, nil)
	// True current value is 0.9 but stale counts keep the estimate far
	// below; it must sit near the all-history average (2000·0.1+500·0.9)/2500 ≈ 0.26.
	if got > 0.5 {
		t.Fatalf("sequential estimate %g recovered too fast — staleness effect missing", got)
	}
	if math.Abs(got-0.26) > 0.05 {
		t.Fatalf("estimate %g should reflect the full history (~0.26)", got)
	}
}

func TestSequentialUpdaterValidation(t *testing.T) {
	net := seqNet(t)
	if _, err := NewSequentialUpdaterSkip(net, 0, nil); err == nil {
		t.Fatal("alpha <= 0 should error")
	}
	u, _ := NewSequentialUpdaterSkip(net, 1, nil)
	if err := u.Observe([]float64{0}); err == nil {
		t.Fatal("short row should error")
	}
	if err := u.Observe([]float64{0, 9}); err == nil {
		t.Fatal("out-of-range state should error")
	}
	if err := u.Observe([]float64{math.NaN(), 0}); err == nil {
		t.Fatal("missing cell should error")
	}
	// Continuous network rejected.
	c := bn.NewNetwork()
	a, _ := c.AddContinuousNode("a")
	_ = c.SetCPD(a.ID, bn.NewLinearGaussian(0, nil, 1))
	if _, err := NewSequentialUpdaterSkip(c, 1, nil); err == nil {
		t.Fatal("continuous network should error")
	}
	// Missing CPD rejected.
	noCPD := seqNet(t).CloneStructure()
	if _, err := NewSequentialUpdaterSkip(noCPD, 1, nil); err == nil {
		t.Fatal("missing CPDs should error")
	}
}

func TestSequentialUpdaterBatch(t *testing.T) {
	net := seqNet(t)
	u, _ := NewSequentialUpdaterSkip(net, 1, nil)
	rows := [][]float64{{0, 0}, {1, 1}, {0, 1}}
	if err := u.ObserveBatch(rows); err != nil {
		t.Fatal(err)
	}
	if n := rootObservations(u); n != 3 {
		t.Fatalf("root counted %g observations, want 3", n)
	}
	if err := u.ObserveBatch([][]float64{{0, 0}, {5, 0}}); err == nil {
		t.Fatal("bad batch row should error")
	}
}
