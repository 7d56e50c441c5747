package bn

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"kertbn/internal/factor"
	"kertbn/internal/stats"
)

// buildSprinkler returns the classic rain/sprinkler/grass network.
func buildSprinkler(t *testing.T) *Network {
	t.Helper()
	n := NewNetwork()
	rain, err := n.AddDiscreteNode("rain", 2)
	if err != nil {
		t.Fatal(err)
	}
	spr, err := n.AddDiscreteNode("sprinkler", 2)
	if err != nil {
		t.Fatal(err)
	}
	wet, err := n.AddDiscreteNode("wet", 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range [][2]int{{rain.ID, spr.ID}, {rain.ID, wet.ID}, {spr.ID, wet.ID}} {
		if err := n.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	tr := NewTabular(2, nil)
	if err := tr.SetRow(0, []float64{0.8, 0.2}); err != nil {
		t.Fatal(err)
	}
	if err := n.SetCPD(rain.ID, tr); err != nil {
		t.Fatal(err)
	}
	ts := NewTabular(2, []int{2})
	_ = ts.SetRow(0, []float64{0.6, 0.4}) // no rain
	_ = ts.SetRow(1, []float64{0.99, 0.01})
	if err := n.SetCPD(spr.ID, ts); err != nil {
		t.Fatal(err)
	}
	tw := NewTabular(2, []int{2, 2}) // parents sorted: rain(0), sprinkler(1)
	_ = tw.SetRow(tw.ConfigIndex([]int{0, 0}), []float64{1.0, 0.0})
	_ = tw.SetRow(tw.ConfigIndex([]int{0, 1}), []float64{0.1, 0.9})
	_ = tw.SetRow(tw.ConfigIndex([]int{1, 0}), []float64{0.2, 0.8})
	_ = tw.SetRow(tw.ConfigIndex([]int{1, 1}), []float64{0.01, 0.99})
	if err := n.SetCPD(wet.ID, tw); err != nil {
		t.Fatal(err)
	}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	return n
}

func TestNetworkConstruction(t *testing.T) {
	n := buildSprinkler(t)
	if n.N() != 3 || n.EdgeCount() != 3 {
		t.Fatalf("N=%d edges=%d", n.N(), n.EdgeCount())
	}
	if n.NodeByName("rain") == nil || n.NodeByName("nope") != nil {
		t.Fatal("NodeByName wrong")
	}
	ps := n.Parents(2)
	if len(ps) != 2 || ps[0] != 0 || ps[1] != 1 {
		t.Fatalf("Parents(wet) = %v", ps)
	}
}

func TestDuplicateNameRejected(t *testing.T) {
	n := NewNetwork()
	if _, err := n.AddDiscreteNode("a", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddContinuousNode("a"); err == nil {
		t.Fatal("duplicate name should be rejected")
	}
}

func TestDiscreteNodeCardValidation(t *testing.T) {
	n := NewNetwork()
	if _, err := n.AddDiscreteNode("bad", 1); err == nil {
		t.Fatal("card < 2 should be rejected")
	}
}

func TestValidateMissingCPD(t *testing.T) {
	n := NewNetwork()
	_, _ = n.AddDiscreteNode("a", 2)
	if err := n.Validate(); err == nil {
		t.Fatal("missing CPD should fail validation")
	}
}

func TestSetCPDArityMismatch(t *testing.T) {
	n := NewNetwork()
	a, _ := n.AddDiscreteNode("a", 2)
	if err := n.SetCPD(a.ID, NewTabular(2, []int{2})); err == nil {
		t.Fatal("arity mismatch should be rejected")
	}
}

func TestValidateCardMismatch(t *testing.T) {
	n := NewNetwork()
	a, _ := n.AddDiscreteNode("a", 3)
	node := n.Node(a.ID)
	node.CPD = NewTabular(2, nil) // bypass SetCPD checks deliberately
	if err := n.Validate(); err == nil {
		t.Fatal("card mismatch should fail validation")
	}
}

func TestCloneStructure(t *testing.T) {
	n := buildSprinkler(t)
	c := n.CloneStructure()
	if c.N() != n.N() || c.EdgeCount() != n.EdgeCount() {
		t.Fatal("clone structure mismatch")
	}
	if c.Node(0).CPD != nil {
		t.Fatal("clone should have no CPDs")
	}
	if c.NodeByName("wet").Card != 2 {
		t.Fatal("clone lost cardinality")
	}
}

func TestTabularRowNormalization(t *testing.T) {
	tab := NewTabular(2, nil)
	if err := tab.SetRow(0, []float64{2, 2}); err != nil {
		t.Fatal(err)
	}
	if tab.Prob(0, nil) != 0.5 {
		t.Fatal("row not normalized")
	}
	if err := tab.SetRow(0, []float64{0, 0}); err == nil {
		t.Fatal("all-zero row should be rejected")
	}
	if err := tab.SetRow(0, []float64{-1, 2}); err == nil {
		t.Fatal("negative probability should be rejected")
	}
	if err := tab.SetRow(0, []float64{1}); err == nil {
		t.Fatal("short row should be rejected")
	}
}

func TestTabularConfigRoundTrip(t *testing.T) {
	tab := NewTabular(2, []int{2, 3, 4})
	for cfg := 0; cfg < tab.Rows(); cfg++ {
		a := tab.ConfigAssignment(cfg)
		if tab.ConfigIndex(a) != cfg {
			t.Fatalf("config round-trip failed at %d", cfg)
		}
	}
}

func TestTabularLogProbSample(t *testing.T) {
	tab := NewTabular(2, []int{2})
	_ = tab.SetRow(0, []float64{0.9, 0.1})
	_ = tab.SetRow(1, []float64{0.2, 0.8})
	if math.Abs(math.Exp(tab.LogProb(1, []float64{1}))-0.8) > 1e-12 {
		t.Fatal("LogProb wrong")
	}
	rng := stats.NewRNG(1)
	ones := 0
	for i := 0; i < 10000; i++ {
		if tab.Sample(rng, []float64{1}) == 1 {
			ones++
		}
	}
	if r := float64(ones) / 10000; math.Abs(r-0.8) > 0.02 {
		t.Fatalf("sample rate %g, want ~0.8", r)
	}
}

func TestTabularFactorMatchesCPT(t *testing.T) {
	tab := NewTabular(2, []int{2})
	_ = tab.SetRow(0, []float64{0.7, 0.3})
	_ = tab.SetRow(1, []float64{0.4, 0.6})
	// node id 5, parent id 2.
	f := tab.Factor(5, []int{2})
	if f.Values[1] != 0.3 { // parent=0 (var 2), node=1 (var 5)
		t.Fatalf("factor entry wrong: %v", f.Values)
	}
	if f.Values[2] != 0.4 { // parent=1, node=0
		t.Fatalf("factor entry wrong: %v", f.Values)
	}
}

// referenceTabularFactor is the entry-by-entry conversion Tabular.Factor
// replaced: each row's parent assignment is decoded and every entry is
// placed with Set.
func referenceTabularFactor(t *Tabular, nodeID int, parentIDs []int) *factor.Factor {
	vars := append(append([]int(nil), parentIDs...), nodeID)
	card := append(append([]int(nil), t.ParentCard...), t.Card)
	f := factor.New(vars, card)
	assign := make([]int, len(vars))
	for cfg := 0; cfg < t.Rows(); cfg++ {
		pa := t.ConfigAssignment(cfg)
		for s := 0; s < t.Card; s++ {
			for i, v := range f.Vars {
				if v == nodeID {
					assign[i] = s
					continue
				}
				for j, p := range parentIDs {
					if p == v {
						assign[i] = pa[j]
						break
					}
				}
			}
			f.Set(assign, t.P[cfg*t.Card+s])
		}
	}
	return f
}

// TestTabularFactorMatchesReference: the factor equals the entry-by-entry
// conversion bit for bit, with the parent ids all below the node id (P read
// in place), all above it, and on both sides of it (strided copies).
func TestTabularFactorMatchesReference(t *testing.T) {
	rng := stats.NewRNG(11)
	for _, tc := range []struct {
		node    int
		parents []int
	}{
		{9, []int{1, 4, 6}},
		{0, []int{2, 3, 7}},
		{5, []int{1, 3, 8, 9}},
		{4, nil},
	} {
		parentCard := make([]int, len(tc.parents))
		for i := range parentCard {
			parentCard[i] = 1 + rng.Intn(4)
		}
		tab := NewTabular(2+rng.Intn(3), parentCard)
		for i := range tab.P {
			tab.P[i] = rng.Float64()
		}
		got := tab.Factor(tc.node, tc.parents)
		want := referenceTabularFactor(tab, tc.node, tc.parents)
		if !slices.Equal(got.Vars, want.Vars) || !slices.Equal(got.Card, want.Card) {
			t.Fatalf("node %d parents %v: scope %v/%v, want %v/%v", tc.node, tc.parents, got.Vars, got.Card, want.Vars, want.Card)
		}
		for i := range want.Values {
			if math.Float64bits(got.Values[i]) != math.Float64bits(want.Values[i]) {
				t.Fatalf("node %d parents %v: entry %d = %v, want %v", tc.node, tc.parents, i, got.Values[i], want.Values[i])
			}
		}
	}
}

func TestLinearGaussian(t *testing.T) {
	g := NewLinearGaussian(1, []float64{2, -1}, 0.5)
	if g.Mean([]float64{3, 4}) != 1+6-4 {
		t.Fatal("mean wrong")
	}
	lp := g.LogProb(3, []float64{3, 4})
	want := stats.NormalLogPDF(3, 3, 0.5)
	if math.Abs(lp-want) > 1e-12 {
		t.Fatal("LogProb wrong")
	}
	rng := stats.NewRNG(2)
	s := stats.NewSummary()
	for i := 0; i < 50000; i++ {
		s.Add(g.Sample(rng, []float64{1, 1}))
	}
	if math.Abs(s.Mean()-2) > 0.02 {
		t.Fatalf("sample mean %g, want ~2", s.Mean())
	}
}

func TestLinearGaussianSigmaFloor(t *testing.T) {
	g := NewLinearGaussian(0, nil, 0)
	if g.Sigma <= 0 {
		t.Fatal("sigma must be floored positive")
	}
}

func TestDetFuncValidation(t *testing.T) {
	if _, err := NewDetFunc(nil, 1, 0, 1, 0, 0); err == nil {
		t.Fatal("nil function should be rejected")
	}
	f := func(p []float64) float64 { return p[0] }
	if _, err := NewDetFunc(f, 1, 1.5, 1, 0, 1); err == nil {
		t.Fatal("leak out of range should be rejected")
	}
	if _, err := NewDetFunc(f, 1, 0.1, 1, 5, 5); err == nil {
		t.Fatal("empty leak range should be rejected")
	}
}

func TestDetFuncNoLeak(t *testing.T) {
	sum := func(p []float64) float64 { return p[0] + p[1] }
	d, err := NewDetFunc(sum, 2, 0, 0.1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	lp := d.LogProb(5, []float64{2, 3})
	if math.Abs(lp-stats.NormalLogPDF(5, 5, 0.1)) > 1e-12 {
		t.Fatal("DetFunc LogProb should peak at f(X)")
	}
	if d.LogProb(5, []float64{2, 3}) <= d.LogProb(6, []float64{2, 3}) {
		t.Fatal("density should decrease away from f(X)")
	}
	rng := stats.NewRNG(3)
	s := stats.NewSummary()
	for i := 0; i < 20000; i++ {
		s.Add(d.Sample(rng, []float64{2, 3}))
	}
	if math.Abs(s.Mean()-5) > 0.01 {
		t.Fatalf("DetFunc sample mean %g", s.Mean())
	}
}

func TestDetFuncLeak(t *testing.T) {
	id := func(p []float64) float64 { return p[0] }
	d, err := NewDetFunc(id, 1, 0.2, 0.01, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	// Far from f(X) but inside leak range: density is leak/(hi-lo).
	lp := d.LogProb(90, []float64{5})
	want := math.Log(0.2 / 100)
	if math.Abs(lp-want) > 1e-6 {
		t.Fatalf("leak density = %g, want %g", math.Exp(lp), 0.2/100)
	}
	// Outside leak range and far from mean: -Inf (or hugely negative).
	if d.LogProb(1e6, []float64{5}) > -100 {
		t.Fatal("far outliers should be near-impossible")
	}
	rng := stats.NewRNG(4)
	leaked := 0
	for i := 0; i < 50000; i++ {
		v := d.Sample(rng, []float64{5})
		if math.Abs(v-5) > 1 {
			leaked++
		}
	}
	if r := float64(leaked) / 50000; math.Abs(r-0.2*0.95) > 0.03 {
		t.Fatalf("leak rate %g, want ~0.19", r)
	}
}

func TestSampleShapes(t *testing.T) {
	n := buildSprinkler(t)
	rng := stats.NewRNG(5)
	rows, err := n.SampleN(rng, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 100 || len(rows[0]) != 3 {
		t.Fatal("sample shape wrong")
	}
	for _, row := range rows {
		for _, v := range row {
			if v != 0 && v != 1 {
				t.Fatalf("non-binary sample %v", row)
			}
		}
	}
}

func TestSampleMarginals(t *testing.T) {
	n := buildSprinkler(t)
	rng := stats.NewRNG(6)
	rows, _ := n.SampleN(rng, 100000)
	rainRate := 0.0
	for _, row := range rows {
		rainRate += row[0]
	}
	rainRate /= float64(len(rows))
	if math.Abs(rainRate-0.2) > 0.01 {
		t.Fatalf("P(rain) = %g, want ~0.2", rainRate)
	}
}

func TestLogLikelihoodComputation(t *testing.T) {
	n := buildSprinkler(t)
	// Single row: rain=0, sprinkler=1, wet=1.
	// P = 0.8 * 0.4 * 0.9.
	rows := [][]float64{{0, 1, 1}}
	ll, clamped, err := n.LogLikelihood(rows)
	if err != nil {
		t.Fatal(err)
	}
	if clamped != 0 {
		t.Fatal("nothing should clamp")
	}
	want := math.Log(0.8 * 0.4 * 0.9)
	if math.Abs(ll-want) > 1e-12 {
		t.Fatalf("ll = %g, want %g", ll, want)
	}
	l10, err := n.Log10Likelihood(rows)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(l10-want/math.Ln10) > 1e-12 {
		t.Fatal("log10 conversion wrong")
	}
}

func TestLogLikelihoodClampsImpossible(t *testing.T) {
	n := buildSprinkler(t)
	// rain=0, sprinkler=0, wet=1 has P(wet=1|..)=0 → clamped.
	_, clamped, err := n.LogLikelihood([][]float64{{0, 0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if clamped != 1 {
		t.Fatalf("clamped = %d, want 1", clamped)
	}
}

func TestLogLikelihoodRowWidthMismatch(t *testing.T) {
	n := buildSprinkler(t)
	if _, _, err := n.LogLikelihood([][]float64{{0, 1}}); err == nil {
		t.Fatal("short row should error")
	}
}

// Property: ancestral samples from a chain a→b respect the conditional
// structure: P(b=1|a) differs by construction across a.
func TestChainSampleProperty(t *testing.T) {
	f := func(seed uint64) bool {
		n := NewNetwork()
		a, _ := n.AddDiscreteNode("a", 2)
		b, _ := n.AddDiscreteNode("b", 2)
		if err := n.AddEdge(a.ID, b.ID); err != nil {
			return false
		}
		ta := NewTabular(2, nil)
		_ = ta.SetRow(0, []float64{0.5, 0.5})
		_ = n.SetCPD(a.ID, ta)
		tb := NewTabular(2, []int{2})
		_ = tb.SetRow(0, []float64{0.9, 0.1})
		_ = tb.SetRow(1, []float64{0.1, 0.9})
		_ = n.SetCPD(b.ID, tb)
		rng := stats.NewRNG(seed)
		match := 0
		const N = 2000
		for i := 0; i < N; i++ {
			row, err := n.Sample(rng)
			if err != nil {
				return false
			}
			if row[0] == row[1] {
				match++
			}
		}
		r := float64(match) / N
		return r > 0.85 && r < 0.95
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: log-likelihood of the training sampler's own data is higher for
// the true model than for a uniform model.
func TestLikelihoodPrefersTrueModelProperty(t *testing.T) {
	f := func(seed uint64) bool {
		true0 := 0.8
		n := NewNetwork()
		a, _ := n.AddDiscreteNode("a", 2)
		ta := NewTabular(2, nil)
		_ = ta.SetRow(0, []float64{true0, 1 - true0})
		_ = n.SetCPD(a.ID, ta)

		u := NewNetwork()
		ua, _ := u.AddDiscreteNode("a", 2)
		_ = u.SetCPD(ua.ID, NewTabular(2, nil)) // uniform

		rng := stats.NewRNG(seed)
		rows, err := n.SampleN(rng, 500)
		if err != nil {
			return false
		}
		llTrue, _, _ := n.LogLikelihood(rows)
		llUnif, _, _ := u.LogLikelihood(rows)
		return llTrue > llUnif
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
