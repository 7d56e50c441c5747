package bn

import (
	"math"
	"testing"
	"testing/quick"

	"kertbn/internal/stats"
)

// Additional CPD edge-case coverage.

func TestTabularThreeState(t *testing.T) {
	tab := NewTabular(3, []int{2})
	_ = tab.SetRow(0, []float64{0.2, 0.3, 0.5})
	_ = tab.SetRow(1, []float64{0.6, 0.3, 0.1})
	if tab.Rows() != 2 {
		t.Fatalf("rows=%d", tab.Rows())
	}
	rng := stats.NewRNG(1)
	counts := make([]int, 3)
	for i := 0; i < 30000; i++ {
		counts[int(tab.Sample(rng, []float64{0}))]++
	}
	for s, want := range []float64{0.2, 0.3, 0.5} {
		got := float64(counts[s]) / 30000
		if math.Abs(got-want) > 0.02 {
			t.Fatalf("state %d rate %g want %g", s, got, want)
		}
	}
}

func TestLinearGaussianNoParents(t *testing.T) {
	g := NewLinearGaussian(3, nil, 1)
	if g.NumParents() != 0 || g.Mean(nil) != 3 {
		t.Fatal("parameterless Gaussian wrong")
	}
}

func TestLinearGaussianArityPanics(t *testing.T) {
	g := NewLinearGaussian(0, []float64{1}, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on arity mismatch")
		}
	}()
	g.Mean([]float64{1, 2})
}

func TestDetFuncZeroArity(t *testing.T) {
	d, err := NewDetFunc(func([]float64) float64 { return 7 }, 0, 0, 0.1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumParents() != 0 || d.F(nil) != 7 {
		t.Fatal("constant DetFunc wrong")
	}
	rng := stats.NewRNG(2)
	s := stats.NewSummary()
	for i := 0; i < 10000; i++ {
		s.Add(d.Sample(rng, nil))
	}
	if math.Abs(s.Mean()-7) > 0.01 {
		t.Fatalf("constant DetFunc mean %g", s.Mean())
	}
}

func TestDetFuncNegativeArityRejected(t *testing.T) {
	if _, err := NewDetFunc(func([]float64) float64 { return 0 }, -1, 0, 0.1, 0, 0); err == nil {
		t.Fatal("negative arity should be rejected")
	}
}

func TestNamesAndSortedIDs(t *testing.T) {
	n := NewNetwork()
	_, _ = n.AddDiscreteNode("first", 2)
	_, _ = n.AddContinuousNode("second")
	names := n.Names()
	if names[0] != "first" || names[1] != "second" {
		t.Fatalf("names = %v", names)
	}
	ids := n.SortedIDs()
	if len(ids) != 2 || ids[0] != 0 || ids[1] != 1 {
		t.Fatalf("ids = %v", ids)
	}
}

// Property: DetFunc log-density integrates to ~1 over a wide grid for
// random sigma and leak settings (the mixture is a proper density).
func TestDetFuncDensityIntegratesProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		sigma := 0.05 + rng.Float64()*0.5
		leak := rng.Float64() * 0.5
		d, err := NewDetFunc(func(p []float64) float64 { return 5 }, 0, leak, sigma, 0, 10)
		if err != nil {
			return false
		}
		// Trapezoid integration over [-5, 15].
		const steps = 4000
		lo, hi := -5.0, 15.0
		h := (hi - lo) / steps
		total := 0.0
		for i := 0; i <= steps; i++ {
			x := lo + float64(i)*h
			w := 1.0
			if i == 0 || i == steps {
				w = 0.5
			}
			total += w * math.Exp(d.LogProb(x, nil)) * h
		}
		return math.Abs(total-1) < 0.01
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: ancestral sampling respects CPT zeros — a state with zero
// probability never appears.
func TestSamplingRespectsZerosProperty(t *testing.T) {
	f := func(seed uint64) bool {
		n := NewNetwork()
		a, _ := n.AddDiscreteNode("a", 3)
		tab := NewTabular(3, nil)
		if err := tab.SetRow(0, []float64{0.5, 0, 0.5}); err != nil {
			return false
		}
		_ = n.SetCPD(a.ID, tab)
		rng := stats.NewRNG(seed)
		for i := 0; i < 500; i++ {
			row, err := n.Sample(rng)
			if err != nil || row[0] == 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
