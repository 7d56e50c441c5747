package learn

import (
	"math"
	"testing"
	"testing/quick"

	"kertbn/internal/bn"
	"kertbn/internal/stats"
)

// genDiscreteChain samples rows from a known a→b chain for recovery tests.
func genDiscreteChain(n int, seed uint64) [][]float64 {
	rng := stats.NewRNG(seed)
	rows := make([][]float64, n)
	for i := range rows {
		a := 0.0
		if rng.Bernoulli(0.3) {
			a = 1
		}
		var b float64
		if a == 1 {
			if rng.Bernoulli(0.9) {
				b = 1
			}
		} else {
			if rng.Bernoulli(0.2) {
				b = 1
			}
		}
		rows[i] = []float64{a, b}
	}
	return rows
}

func TestFitTabularRecoversCPT(t *testing.T) {
	rows := genDiscreteChain(20000, 1)
	tab, cost, err := FitTabular(rows, 1, 2, []int{0}, []int{2}, Options{DirichletAlpha: 0})
	if err != nil {
		t.Fatal(err)
	}
	if cost.DataOps == 0 {
		t.Fatal("cost should be non-zero")
	}
	if math.Abs(tab.Prob(1, []int{1})-0.9) > 0.02 {
		t.Fatalf("P(b=1|a=1) = %g, want ~0.9", tab.Prob(1, []int{1}))
	}
	if math.Abs(tab.Prob(1, []int{0})-0.2) > 0.02 {
		t.Fatalf("P(b=1|a=0) = %g, want ~0.2", tab.Prob(1, []int{0}))
	}
}

func TestFitTabularNoParents(t *testing.T) {
	rows := genDiscreteChain(10000, 2)
	tab, _, err := FitTabular(rows, 0, 2, nil, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tab.Prob(1, nil)-0.3) > 0.02 {
		t.Fatalf("P(a=1) = %g, want ~0.3", tab.Prob(1, nil))
	}
}

func TestFitTabularDirichletSmoothing(t *testing.T) {
	// A config never observed: with alpha=1 it should be uniform.
	rows := [][]float64{{0, 0}, {0, 1}}
	tab, _, err := FitTabular(rows, 1, 2, []int{0}, []int{2}, Options{DirichletAlpha: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tab.Prob(0, []int{1}) != 0.5 {
		t.Fatalf("unseen config should be uniform, got %g", tab.Prob(0, []int{1}))
	}
}

func TestFitTabularOutOfRangeState(t *testing.T) {
	rows := [][]float64{{5, 0}}
	if _, _, err := FitTabular(rows, 0, 2, nil, nil, Options{}); err == nil {
		t.Fatal("out-of-range state should error")
	}
	rows = [][]float64{{0, 9}}
	if _, _, err := FitTabular(rows, 0, 2, []int{1}, []int{2}, Options{}); err == nil {
		t.Fatal("out-of-range parent should error")
	}
}

func TestFitLinearGaussianRecovers(t *testing.T) {
	rng := stats.NewRNG(3)
	rows := make([][]float64, 5000)
	for i := range rows {
		x := rng.Normal(2, 1)
		y := 1 + 3*x + rng.Normal(0, 0.5)
		rows[i] = []float64{x, y}
	}
	g, cost, err := FitLinearGaussian(rows, 1, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if cost.DataOps == 0 {
		t.Fatal("cost should be non-zero")
	}
	if math.Abs(g.Intercept-1) > 0.1 || math.Abs(g.Coef[0]-3) > 0.05 {
		t.Fatalf("fit = %+v, want intercept 1 coef 3", g)
	}
	if math.Abs(g.Sigma-0.5) > 0.05 {
		t.Fatalf("sigma = %g, want ~0.5", g.Sigma)
	}
}

func TestFitLinearGaussianEmpty(t *testing.T) {
	if _, _, err := FitLinearGaussian(nil, 0, nil); err == nil {
		t.Fatal("empty data should error")
	}
}

func TestFitNodeSkipsDetFunc(t *testing.T) {
	net := bn.NewNetwork()
	a, _ := net.AddContinuousNode("a")
	d, _ := net.AddContinuousNode("d")
	_ = net.AddEdge(a.ID, d.ID)
	det, _ := bn.NewDetFunc(func(p []float64) float64 { return p[0] }, 1, 0, 0.01, 0, 0)
	_ = net.SetCPD(d.ID, det)
	rows := [][]float64{{1, 1}, {2, 2}}
	cost, err := FitNode(net, d.ID, rows, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cost.DataOps != 0 {
		t.Fatal("DetFunc node should not be learned")
	}
	if _, ok := net.Node(d.ID).CPD.(*bn.DetFunc); !ok {
		t.Fatal("DetFunc CPD should remain installed")
	}
}

func TestFitParametersEndToEnd(t *testing.T) {
	// Build a small continuous network, sample from it, relearn, compare.
	truth := bn.NewNetwork()
	a, _ := truth.AddContinuousNode("a")
	b, _ := truth.AddContinuousNode("b")
	_ = truth.AddEdge(a.ID, b.ID)
	_ = truth.SetCPD(a.ID, bn.NewLinearGaussian(5, nil, 1))
	_ = truth.SetCPD(b.ID, bn.NewLinearGaussian(-1, []float64{2}, 0.3))
	rng := stats.NewRNG(4)
	rows, err := truth.SampleN(rng, 5000)
	if err != nil {
		t.Fatal(err)
	}
	learned := truth.CloneStructure()
	cost, err := FitParameters(learned, rows, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cost.DataOps == 0 {
		t.Fatal("zero cost")
	}
	gb := learned.Node(b.ID).CPD.(*bn.LinearGaussian)
	if math.Abs(gb.Intercept+1) > 0.15 || math.Abs(gb.Coef[0]-2) > 0.05 {
		t.Fatalf("relearned b: %+v", gb)
	}
}

func TestCHScorerPrefersTrueParent(t *testing.T) {
	rows := genDiscreteChain(2000, 5)
	sc := &CHScorer{Specs: []VarSpec{{Name: "a", Card: 2}, {Name: "b", Card: 2}}}
	withParent, _ := sc.Score(rows, 1, []int{0})
	without, _ := sc.Score(rows, 1, nil)
	if withParent <= without {
		t.Fatalf("CH score should prefer true parent: with=%g without=%g", withParent, without)
	}
}

func TestCHScorerPenalizesSpuriousParent(t *testing.T) {
	// Independent variables: adding a parent should not help.
	rng := stats.NewRNG(6)
	rows := make([][]float64, 1000)
	for i := range rows {
		rows[i] = []float64{float64(rng.Intn(2)), float64(rng.Intn(2))}
	}
	sc := &CHScorer{Specs: []VarSpec{{Name: "a", Card: 2}, {Name: "b", Card: 2}}}
	withParent, _ := sc.Score(rows, 1, []int{0})
	without, _ := sc.Score(rows, 1, nil)
	if withParent > without {
		t.Fatalf("CH score should penalize spurious parent: with=%g without=%g", withParent, without)
	}
}

func TestBICScorerPrefersTrueParent(t *testing.T) {
	rng := stats.NewRNG(7)
	rows := make([][]float64, 500)
	for i := range rows {
		x := rng.Normal(0, 1)
		y := 2*x + rng.Normal(0, 0.1)
		rows[i] = []float64{x, y}
	}
	sc := BICScorer{}
	withParent, _ := sc.Score(rows, 1, []int{0})
	without, _ := sc.Score(rows, 1, nil)
	if withParent <= without {
		t.Fatalf("BIC should prefer true parent: with=%g without=%g", withParent, without)
	}
}

func TestBICScorerEmptyData(t *testing.T) {
	s, _ := BICScorer{}.Score(nil, 0, nil)
	if !math.IsInf(s, -1) {
		t.Fatal("empty data should score -Inf")
	}
}

func TestNewScorerDispatch(t *testing.T) {
	if _, err := NewScorer(nil); err == nil {
		t.Fatal("empty specs should error")
	}
	if _, err := NewScorer([]VarSpec{{Continuous: true}, {Continuous: false, Card: 2}}); err == nil {
		t.Fatal("mixed specs should error")
	}
	sc, err := NewScorer([]VarSpec{{Continuous: true}, {Continuous: true}})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sc.(BICScorer); !ok {
		t.Fatal("continuous specs should pick BIC")
	}
	sc, err = NewScorer([]VarSpec{{Card: 2}, {Card: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sc.(*CHScorer); !ok {
		t.Fatal("discrete specs should pick CH")
	}
}

func TestK2RecoversChain(t *testing.T) {
	rows := genDiscreteChain(5000, 8)
	specs := []VarSpec{{Name: "a", Card: 2}, {Name: "b", Card: 2}}
	sc := &CHScorer{Specs: specs}
	res, err := K2(specs, rows, sc, K2Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.DAG.HasEdge(0, 1) {
		t.Fatal("K2 should recover a→b")
	}
	if res.Cost.ScoreEvals == 0 {
		t.Fatal("K2 should count score evaluations")
	}
}

func TestK2RespectsOrdering(t *testing.T) {
	rows := genDiscreteChain(5000, 9)
	specs := []VarSpec{{Name: "a", Card: 2}, {Name: "b", Card: 2}}
	sc := &CHScorer{Specs: specs}
	// Reverse ordering: b before a → only edge b→a possible.
	res, err := K2(specs, rows, sc, K2Options{Order: []int{1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if res.DAG.HasEdge(0, 1) {
		t.Fatal("K2 must not add edges against the ordering")
	}
}

func TestK2MaxParents(t *testing.T) {
	rng := stats.NewRNG(10)
	// c depends on both a and b.
	rows := make([][]float64, 3000)
	for i := range rows {
		a := float64(rng.Intn(2))
		b := float64(rng.Intn(2))
		c := 0.0
		if (a == 1) != (b == 1) { // XOR-ish
			if rng.Bernoulli(0.9) {
				c = 1
			}
		} else if rng.Bernoulli(0.1) {
			c = 1
		}
		rows[i] = []float64{a, b, c}
	}
	specs := []VarSpec{{Name: "a", Card: 2}, {Name: "b", Card: 2}, {Name: "c", Card: 2}}
	sc := &CHScorer{Specs: specs}
	res, err := K2(specs, rows, sc, K2Options{MaxParents: 1})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 3; v++ {
		if len(res.DAG.Parents(v)) > 1 {
			t.Fatalf("MaxParents=1 violated at node %d", v)
		}
	}
}

func TestK2BadOrdering(t *testing.T) {
	specs := []VarSpec{{Name: "a", Card: 2}}
	sc := &CHScorer{Specs: specs}
	if _, err := K2(specs, [][]float64{{0}}, sc, K2Options{Order: []int{0, 1}}); err == nil {
		t.Fatal("wrong-length ordering should error")
	}
	if _, err := K2(specs, [][]float64{{0}}, sc, K2Options{Order: []int{5}}); err == nil {
		t.Fatal("out-of-range ordering should error")
	}
	specs2 := []VarSpec{{Name: "a", Card: 2}, {Name: "b", Card: 2}}
	sc2 := &CHScorer{Specs: specs2}
	if _, err := K2(specs2, [][]float64{{0, 0}}, sc2, K2Options{Order: []int{0, 0}}); err == nil {
		t.Fatal("non-permutation ordering should error")
	}
}

func TestK2RandomRestartsImprovesOrNoWorse(t *testing.T) {
	rows := genDiscreteChain(2000, 11)
	specs := []VarSpec{{Name: "a", Card: 2}, {Name: "b", Card: 2}}
	sc := &CHScorer{Specs: specs}
	base, err := K2(specs, rows, sc, K2Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(12)
	best, err := K2RandomRestarts(specs, rows, sc, K2Options{}, 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	if best.Score < base.Score {
		t.Fatalf("restarts returned worse score: %g < %g", best.Score, base.Score)
	}
	if best.Cost.ScoreEvals <= base.Cost.ScoreEvals {
		t.Fatal("restart cost should accumulate")
	}
}

func TestScoreDAG(t *testing.T) {
	rows := genDiscreteChain(1000, 13)
	specs := []VarSpec{{Name: "a", Card: 2}, {Name: "b", Card: 2}}
	sc := &CHScorer{Specs: specs}
	res, err := K2(specs, rows, sc, K2Options{})
	if err != nil {
		t.Fatal(err)
	}
	// K2's reported score is the sum of the learned DAG's family scores.
	total := 0.0
	for v := 0; v < res.DAG.N(); v++ {
		s, _ := sc.Score(rows, v, res.DAG.Parents(v))
		total += s
	}
	if math.Abs(total-res.Score) > 1e-9 {
		t.Fatalf("family scores sum to %g != K2 score %g", total, res.Score)
	}
}

func TestCostAdd(t *testing.T) {
	c := Cost{DataOps: 1, ScoreEvals: 2}
	c.Add(Cost{DataOps: 10, ScoreEvals: 20})
	if c.DataOps != 11 || c.ScoreEvals != 22 {
		t.Fatalf("Cost.Add wrong: %+v", c)
	}
}

// Property: K2's score-evaluation count grows at least quadratically-ish in
// n — the paper's core complexity claim for NRT-BN construction.
func TestK2CostGrowsSuperlinearly(t *testing.T) {
	rng := stats.NewRNG(14)
	mkRows := func(n, rows int) [][]float64 {
		out := make([][]float64, rows)
		for i := range out {
			r := make([]float64, n)
			for j := range r {
				r[j] = float64(rng.Intn(2))
			}
			out[i] = r
		}
		return out
	}
	evals := func(n int) int64 {
		specs := make([]VarSpec, n)
		for i := range specs {
			specs[i] = VarSpec{Card: 2}
		}
		sc := &CHScorer{Specs: specs}
		res, err := K2(specs, mkRows(n, 50), sc, K2Options{MaxParents: 3})
		if err != nil {
			t.Fatal(err)
		}
		return res.Cost.ScoreEvals
	}
	e10, e40 := evals(10), evals(40)
	if e40 < 4*e10 {
		t.Fatalf("K2 cost should grow superlinearly: evals(10)=%d evals(40)=%d", e10, e40)
	}
}

// Property: learned tabular rows always sum to 1.
func TestFitTabularRowsNormalizedProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		rows := make([][]float64, 50)
		for i := range rows {
			rows[i] = []float64{float64(rng.Intn(3)), float64(rng.Intn(2))}
		}
		tab, _, err := FitTabular(rows, 1, 2, []int{0}, []int{3}, Options{DirichletAlpha: 1})
		if err != nil {
			return false
		}
		for cfg := 0; cfg < tab.Rows(); cfg++ {
			s := 0.0
			for _, p := range tab.P[cfg*tab.Card : (cfg+1)*tab.Card] {
				s += p
			}
			if math.Abs(s-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCHScorerBDeu(t *testing.T) {
	rows := genDiscreteChain(3000, 21)
	specs := []VarSpec{{Name: "a", Card: 2}, {Name: "b", Card: 2}}
	sc := &CHScorer{Specs: specs, ESS: 1}
	withParent, _ := sc.Score(rows, 1, []int{0})
	without, _ := sc.Score(rows, 1, nil)
	if withParent <= without {
		t.Fatalf("BDeu should prefer the true parent: %g vs %g", withParent, without)
	}
	// BDeu with independent data should penalize the spurious parent.
	rng := stats.NewRNG(22)
	ind := make([][]float64, 1000)
	for i := range ind {
		ind[i] = []float64{float64(rng.Intn(2)), float64(rng.Intn(2))}
	}
	withP, _ := sc.Score(ind, 1, []int{0})
	withoutP, _ := sc.Score(ind, 1, nil)
	if withP > withoutP {
		t.Fatalf("BDeu should penalize spurious parent: %g vs %g", withP, withoutP)
	}
}

func TestK2WithBDeuScorer(t *testing.T) {
	rows := genDiscreteChain(3000, 23)
	specs := []VarSpec{{Name: "a", Card: 2}, {Name: "b", Card: 2}}
	sc := &CHScorer{Specs: specs, ESS: 2}
	res, err := K2(specs, rows, sc, K2Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.DAG.HasEdge(0, 1) {
		t.Fatal("K2+BDeu should recover a→b")
	}
}
