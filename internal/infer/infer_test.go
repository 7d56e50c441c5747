package infer

import (
	"math"
	"testing"
	"testing/quick"

	"kertbn/internal/bn"
	"kertbn/internal/stats"
)

// sprinkler builds the classic rain/sprinkler/wet network with known
// posteriors.
func sprinkler(t testing.TB) *bn.Network {
	t.Helper()
	n := bn.NewNetwork()
	rain, _ := n.AddDiscreteNode("rain", 2)
	spr, _ := n.AddDiscreteNode("sprinkler", 2)
	wet, _ := n.AddDiscreteNode("wet", 2)
	for _, e := range [][2]int{{rain.ID, spr.ID}, {rain.ID, wet.ID}, {spr.ID, wet.ID}} {
		if err := n.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	tr := bn.NewTabular(2, nil)
	_ = tr.SetRow(0, []float64{0.8, 0.2})
	_ = n.SetCPD(rain.ID, tr)
	ts := bn.NewTabular(2, []int{2})
	_ = ts.SetRow(0, []float64{0.6, 0.4})
	_ = ts.SetRow(1, []float64{0.99, 0.01})
	_ = n.SetCPD(spr.ID, ts)
	tw := bn.NewTabular(2, []int{2, 2})
	_ = tw.SetRow(tw.ConfigIndex([]int{0, 0}), []float64{1.0, 0.0})
	_ = tw.SetRow(tw.ConfigIndex([]int{0, 1}), []float64{0.1, 0.9})
	_ = tw.SetRow(tw.ConfigIndex([]int{1, 0}), []float64{0.2, 0.8})
	_ = tw.SetRow(tw.ConfigIndex([]int{1, 1}), []float64{0.01, 0.99})
	_ = n.SetCPD(wet.ID, tw)
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	return n
}

// bruteForcePosterior enumerates the joint to compute P(query|ev) exactly.
func bruteForcePosterior(n *bn.Network, query int, ev DiscreteEvidence) []float64 {
	N := n.N()
	cards := make([]int, N)
	for i := 0; i < N; i++ {
		cards[i] = n.Node(i).Card
	}
	out := make([]float64, cards[query])
	assign := make([]int, N)
	var rec func(i int)
	rec = func(i int) {
		if i == N {
			p := 1.0
			row := make([]float64, N)
			for k, a := range assign {
				row[k] = float64(a)
			}
			for k := 0; k < N; k++ {
				p *= math.Exp(n.Node(k).CPD.LogProb(row[k], n.ParentValues(k, row)))
			}
			out[assign[query]] += p
			return
		}
		if v, isEv := ev[i]; isEv {
			assign[i] = v
			rec(i + 1)
			return
		}
		for s := 0; s < cards[i]; s++ {
			assign[i] = s
			rec(i + 1)
		}
	}
	rec(0)
	total := 0.0
	for _, v := range out {
		total += v
	}
	for i := range out {
		out[i] /= total
	}
	return out
}

func TestPosteriorNoEvidence(t *testing.T) {
	n := sprinkler(t)
	f, err := Posterior(n, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.Values[1]-0.2) > 1e-12 {
		t.Fatalf("P(rain)=%v, want [0.8 0.2]", f.Values)
	}
}

func TestPosteriorMatchesBruteForce(t *testing.T) {
	n := sprinkler(t)
	cases := []struct {
		query int
		ev    DiscreteEvidence
	}{
		{0, DiscreteEvidence{2: 1}},       // P(rain | wet)
		{1, DiscreteEvidence{2: 1}},       // P(sprinkler | wet)
		{0, DiscreteEvidence{1: 1, 2: 1}}, // explaining away
		{2, DiscreteEvidence{0: 1}},       // predictive
		{1, nil},                          // prior marginal
	}
	for _, c := range cases {
		got, err := Posterior(n, c.query, c.ev)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteForcePosterior(n, c.query, c.ev)
		for s := range want {
			if math.Abs(got.Values[s]-want[s]) > 1e-9 {
				t.Fatalf("query %d ev %v: got %v want %v", c.query, c.ev, got.Values, want)
			}
		}
	}
}

func TestPosteriorExplainingAway(t *testing.T) {
	n := sprinkler(t)
	// P(rain|wet) should exceed prior; P(rain|wet,sprinkler) should drop.
	pWet, _ := Posterior(n, 0, DiscreteEvidence{2: 1})
	pWetSpr, _ := Posterior(n, 0, DiscreteEvidence{2: 1, 1: 1})
	if pWet.Values[1] <= 0.2 {
		t.Fatal("wet evidence should raise P(rain)")
	}
	if pWetSpr.Values[1] >= pWet.Values[1] {
		t.Fatal("sprinkler explanation should lower P(rain)")
	}
}

func TestPosteriorValidation(t *testing.T) {
	n := sprinkler(t)
	if _, err := Posterior(n, 99, nil); err == nil {
		t.Fatal("bad query should error")
	}
	if _, err := Posterior(n, 0, DiscreteEvidence{0: 1}); err == nil {
		t.Fatal("query==evidence should error")
	}
	if _, err := Posterior(n, 0, DiscreteEvidence{1: 7}); err == nil {
		t.Fatal("out-of-range evidence should error")
	}
}

func TestPosteriorImpossibleEvidence(t *testing.T) {
	n := bn.NewNetwork()
	a, _ := n.AddDiscreteNode("a", 2)
	b, _ := n.AddDiscreteNode("b", 2)
	_ = n.AddEdge(a.ID, b.ID)
	ta := bn.NewTabular(2, nil)
	_ = ta.SetRow(0, []float64{1, 0}) // a always 0
	_ = n.SetCPD(a.ID, ta)
	tb := bn.NewTabular(2, []int{2})
	_ = tb.SetRow(0, []float64{1, 0}) // b=0 when a=0
	_ = tb.SetRow(1, []float64{0, 1})
	_ = n.SetCPD(b.ID, tb)
	if _, err := Posterior(n, a.ID, DiscreteEvidence{b.ID: 1}); err == nil {
		t.Fatal("zero-probability evidence should error")
	}
}

func TestPosteriorRejectsContinuous(t *testing.T) {
	n := bn.NewNetwork()
	a, _ := n.AddContinuousNode("a")
	_ = n.SetCPD(a.ID, bn.NewLinearGaussian(0, nil, 1))
	if _, err := Posterior(n, 0, nil); err == nil {
		t.Fatal("continuous network should be rejected by VE")
	}
}

// gaussianChain builds a→b→c linear-Gaussian chain.
func gaussianChain(t *testing.T) *bn.Network {
	t.Helper()
	n := bn.NewNetwork()
	a, _ := n.AddContinuousNode("a")
	b, _ := n.AddContinuousNode("b")
	c, _ := n.AddContinuousNode("c")
	_ = n.AddEdge(a.ID, b.ID)
	_ = n.AddEdge(b.ID, c.ID)
	_ = n.SetCPD(a.ID, bn.NewLinearGaussian(1, nil, 1))
	_ = n.SetCPD(b.ID, bn.NewLinearGaussian(0, []float64{2}, 0.5))
	_ = n.SetCPD(c.ID, bn.NewLinearGaussian(-1, []float64{1}, 0.2))
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	return n
}

func TestBuildJointGaussian(t *testing.T) {
	n := gaussianChain(t)
	jg, err := BuildJointGaussian(n)
	if err != nil {
		t.Fatal(err)
	}
	// Means: a=1, b=2, c=1.
	want := []float64{1, 2, 1}
	for i, m := range want {
		if math.Abs(jg.Mean[i]-m) > 1e-12 {
			t.Fatalf("mean = %v, want %v", jg.Mean, want)
		}
	}
	// Var(a)=1; Var(b)=4·1+0.25=4.25; Cov(a,b)=2.
	if math.Abs(jg.Cov.At(0, 0)-1) > 1e-12 ||
		math.Abs(jg.Cov.At(1, 1)-4.25) > 1e-12 ||
		math.Abs(jg.Cov.At(0, 1)-2) > 1e-12 {
		t.Fatalf("cov =\n%v", jg.Cov)
	}
	// Var(c) = 1·4.25 + 0.04 = 4.29; Cov(a,c) = 2.
	if math.Abs(jg.Cov.At(2, 2)-4.29) > 1e-12 || math.Abs(jg.Cov.At(0, 2)-2) > 1e-12 {
		t.Fatalf("cov =\n%v", jg.Cov)
	}
}

func TestBuildJointGaussianRejectsTabular(t *testing.T) {
	n := bn.NewNetwork()
	a, _ := n.AddDiscreteNode("a", 2)
	_ = n.SetCPD(a.ID, bn.NewTabular(2, nil))
	if _, err := BuildJointGaussian(n); err == nil {
		t.Fatal("tabular CPD should be rejected")
	}
}

func TestConditionScalar(t *testing.T) {
	n := gaussianChain(t)
	jg, _ := BuildJointGaussian(n)
	// Condition b on a=2: b|a ~ N(2·2, 0.25).
	mu, v, err := jg.ConditionScalar(1, map[int]float64{0: 2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mu-4) > 1e-6 || math.Abs(v-0.25) > 1e-6 {
		t.Fatalf("b|a=2: mu=%g v=%g, want 4, 0.25", mu, v)
	}
}

func TestConditionNoEvidence(t *testing.T) {
	n := gaussianChain(t)
	jg, _ := BuildJointGaussian(n)
	mu, v, err := jg.ConditionScalar(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mu-2) > 1e-12 || math.Abs(v-4.25) > 1e-12 {
		t.Fatalf("marginal b: %g %g", mu, v)
	}
}

func TestConditionTargetIsEvidence(t *testing.T) {
	n := gaussianChain(t)
	jg, _ := BuildJointGaussian(n)
	if _, _, err := jg.ConditionScalar(0, map[int]float64{0: 1}); err == nil {
		t.Fatal("target==evidence should error")
	}
}

func TestConditionPosteriorContraction(t *testing.T) {
	// Observing a child should shrink the parent's variance.
	n := gaussianChain(t)
	jg, _ := BuildJointGaussian(n)
	_, vPrior, _ := jg.ConditionScalar(0, nil)
	_, vPost, err := jg.ConditionScalar(0, map[int]float64{2: 5})
	if err != nil {
		t.Fatal(err)
	}
	if vPost >= vPrior {
		t.Fatalf("evidence should contract variance: %g >= %g", vPost, vPrior)
	}
}

func TestLikelihoodWeightingMatchesExactGaussian(t *testing.T) {
	n := gaussianChain(t)
	jg, _ := BuildJointGaussian(n)
	muExact, vExact, _ := jg.ConditionScalar(0, map[int]float64{2: 5})
	rng := stats.NewRNG(100)
	ws, err := LikelihoodWeighting(n, 0, ContinuousEvidence{2: 5}, 200000, rng)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ws.Mean()-muExact) > 0.05 {
		t.Fatalf("LW mean %g vs exact %g", ws.Mean(), muExact)
	}
	if math.Abs(ws.Variance()-vExact) > 0.1 {
		t.Fatalf("LW var %g vs exact %g", ws.Variance(), vExact)
	}
}

func TestLikelihoodWeightingValidation(t *testing.T) {
	n := gaussianChain(t)
	rng := stats.NewRNG(1)
	if _, err := LikelihoodWeighting(n, 99, nil, 10, rng); err == nil {
		t.Fatal("bad query should error")
	}
	if _, err := LikelihoodWeighting(n, 0, ContinuousEvidence{0: 1}, 10, rng); err == nil {
		t.Fatal("query==evidence should error")
	}
	if _, err := LikelihoodWeighting(n, 0, nil, 0, rng); err == nil {
		t.Fatal("zero samples should error")
	}
}

func TestLikelihoodWeightingThroughDetFunc(t *testing.T) {
	// a, b → D = max(a, b): conditioning on D through a nonlinear f.
	n := bn.NewNetwork()
	a, _ := n.AddContinuousNode("a")
	b, _ := n.AddContinuousNode("b")
	d, _ := n.AddContinuousNode("D")
	_ = n.AddEdge(a.ID, d.ID)
	_ = n.AddEdge(b.ID, d.ID)
	_ = n.SetCPD(a.ID, bn.NewLinearGaussian(5, nil, 1))
	_ = n.SetCPD(b.ID, bn.NewLinearGaussian(3, nil, 1))
	det, _ := bn.NewDetFunc(func(p []float64) float64 { return math.Max(p[0], p[1]) }, 2, 0, 0.1, 0, 0)
	_ = n.SetCPD(d.ID, det)
	rng := stats.NewRNG(200)
	// Prior D mean ≈ E[max(N(5,1), N(3,1))] ≈ slightly above 5.
	ws, err := LikelihoodWeighting(n, d.ID, nil, 50000, rng)
	if err != nil {
		t.Fatal(err)
	}
	if ws.Mean() < 5 || ws.Mean() > 5.5 {
		t.Fatalf("prior D mean = %g, want ~5.1", ws.Mean())
	}
	// Conditioning on a=8 should push D near 8.
	ws2, err := LikelihoodWeighting(n, d.ID, ContinuousEvidence{a.ID: 8}, 50000, rng)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ws2.Mean()-8) > 0.1 {
		t.Fatalf("D|a=8 mean = %g, want ~8", ws2.Mean())
	}
}

func TestWeightedSamplesStats(t *testing.T) {
	ws := &WeightedSamples{Values: []float64{1, 2, 3, 4}, Weights: []float64{0.25, 0.25, 0.25, 0.25}}
	if math.Abs(ws.Mean()-2.5) > 1e-12 {
		t.Fatal("mean wrong")
	}
	if math.Abs(ws.Variance()-1.25) > 1e-12 {
		t.Fatal("variance wrong")
	}
	if ws.Exceedance(2.5) != 0.5 {
		t.Fatal("exceedance wrong")
	}
	if ws.Quantile(0.5) != 2 {
		t.Fatalf("median = %g", ws.Quantile(0.5))
	}
	if math.Abs(ws.EffectiveSampleSize()-4) > 1e-9 {
		t.Fatal("ESS wrong for uniform weights")
	}
}

// Property: VE posteriors equal brute-force enumeration for every
// non-evidence variable of random networks: 3–6 variables of cardinality
// 2–3, random forward edges, and zero, one or two evidence variables.
func TestVEMatchesBruteForceProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		nVars := 3 + rng.Intn(4)
		n := randomDiscreteNet(t, nVars, 0.4, rng)
		ev := DiscreteEvidence{}
		for _, p := range []float64{0.6, 0.3} {
			if rng.Bernoulli(p) {
				v := rng.Intn(nVars)
				ev[v] = rng.Intn(n.Node(v).Card)
			}
		}
		for q := 0; q < nVars; q++ {
			if _, isEv := ev[q]; isEv {
				continue
			}
			got, err := Posterior(n, q, ev)
			if err != nil {
				return false
			}
			want := bruteForcePosterior(n, q, ev)
			for s := range want {
				if math.Abs(got.Values[s]-want[s]) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// randomDiscreteNet builds a random discrete DAG of cardinality-2 or -3
// variables: every pair i<j is an edge with probability pEdge, and CPT
// entries are bounded away from zero.
func randomDiscreteNet(t *testing.T, nNodes int, pEdge float64, rng *stats.RNG) *bn.Network {
	t.Helper()
	n := bn.NewNetwork()
	cards := make([]int, nNodes)
	for i := 0; i < nNodes; i++ {
		cards[i] = 2 + rng.Intn(2)
		if _, err := n.AddDiscreteNode(string(rune('a'+i)), cards[i]); err != nil {
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
		parentCards := make([]int, 0)
		for _, p := range n.Parents(id) {
			parentCards = append(parentCards, cards[p])
		}
		tab := bn.NewTabular(cards[id], parentCards)
		for cfg := 0; cfg < tab.Rows(); cfg++ {
			row := make([]float64, cards[id])
			for s := range row {
				row[s] = 0.05 + rng.Float64()
			}
			if err := tab.SetRow(cfg, row); err != nil {
				t.Fatal(err)
			}
		}
		if err := n.SetCPD(id, tab); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	return n
}
