package health

import (
	"math"
	"testing"

	"kertbn/internal/core"
	"kertbn/internal/dataset"
	"kertbn/internal/simsvc"
	"kertbn/internal/stats"
)

// buildTestModel trains a continuous KERT-BN on eDiaMoND data and returns
// the model plus a fresh evaluation dataset from the same system.
func buildTestModel(t *testing.T, modelType core.ModelType) (*core.Model, [][]float64) {
	t.Helper()
	sys := simsvc.EDiaMoNDSystem()
	rng := stats.NewRNG(7)
	train, err := sys.GenerateDataset(400, rng.Split(0))
	if err != nil {
		t.Fatalf("generate train: %v", err)
	}
	cfg := core.KERTConfig{Workflow: sys.Workflow, Type: modelType}
	m, err := core.BuildKERT(cfg, train)
	if err != nil {
		t.Fatalf("build model: %v", err)
	}
	eval, err := sys.GenerateDataset(200, rng.Split(1))
	if err != nil {
		t.Fatalf("generate eval: %v", err)
	}
	return m, eval.Rows
}

// TestScoreRowMatchesLog10Likelihood pins the contract that Scorer's
// clamped per-row totals sum to exactly what Model.Log10Likelihood reports
// over the same rows — the health stream is the same quantity the paper's
// accuracy metric integrates, just decomposed per row and node.
func TestScoreRowMatchesLog10Likelihood(t *testing.T) {
	for _, mt := range []core.ModelType{core.ContinuousModel, core.DiscreteModel} {
		m, rows := buildTestModel(t, mt)
		s, err := NewScorer(m)
		if err != nil {
			t.Fatalf("%v: NewScorer: %v", mt, err)
		}
		perNode := make([]float64, len(s.Names()))
		sum := 0.0
		for _, row := range rows {
			total, err := s.ScoreRow(row, perNode, nil)
			if err != nil {
				t.Fatalf("%v: ScoreRow: %v", mt, err)
			}
			// The total must equal the sum of the per-node terms.
			ps := 0.0
			for _, lp := range perNode {
				ps += lp
			}
			if math.Abs(ps-total) > 1e-9 {
				t.Fatalf("%v: per-node sum %g != total %g", mt, ps, total)
			}
			sum += total
		}
		ds := &dataset.Dataset{Columns: m.Net.Names(), Rows: rows}
		want, err := m.Log10Likelihood(ds)
		if err != nil {
			t.Fatalf("%v: Log10Likelihood: %v", mt, err)
		}
		if got := sum / math.Ln10; math.Abs(got-want) > 1e-6*math.Abs(want) {
			t.Errorf("%v: scorer total %g (log10) != model log10-likelihood %g", mt, got, want)
		}
	}
}

// TestScoreRowClamping verifies the -1e3 floor matches bn.LogLikelihood:
// an impossible observation contributes exactly ClampPenalty.
func TestScoreRowClamping(t *testing.T) {
	m, rows := buildTestModel(t, core.ContinuousModel)
	s, err := NewScorer(m)
	if err != nil {
		t.Fatal(err)
	}
	row := append([]float64(nil), rows[0]...)
	row[m.DNode] = 1e9 // astronomically far from f(X): density underflows
	perNode := make([]float64, len(s.Names()))
	if _, err := s.ScoreRow(row, perNode, nil); err != nil {
		t.Fatal(err)
	}
	if perNode[m.DNode] != ClampPenalty {
		t.Errorf("impossible D term = %g, want clamp penalty %g", perNode[m.DNode], ClampPenalty)
	}
}

// TestPITCalibratedOnHeldOutData: on data drawn from the same system the
// model was trained on, PIT values must be roughly uniform — the KS
// statistic over a 200-row window stays well below the ~0.5 a badly
// miscalibrated model produces.
func TestPITCalibratedOnHeldOutData(t *testing.T) {
	m, rows := buildTestModel(t, core.ContinuousModel)
	s, err := NewScorer(m)
	if err != nil {
		t.Fatal(err)
	}
	const bins = 20
	counts := make([][]int64, len(s.Names()))
	for i := range counts {
		counts[i] = make([]int64, bins)
	}
	perNode := make([]float64, len(s.Names()))
	pit := make([]float64, len(s.Names()))
	for _, row := range rows {
		if _, err := s.ScoreRow(row, perNode, pit); err != nil {
			t.Fatal(err)
		}
		for i, u := range pit {
			if math.IsNaN(u) {
				t.Fatalf("node %d: NaN PIT on in-distribution row", i)
			}
			if u < 0 || u > 1 {
				t.Fatalf("node %d: PIT %g outside [0,1]", i, u)
			}
			b := int(u * bins)
			if b >= bins {
				b = bins - 1
			}
			counts[i][b]++
		}
	}
	for i := range counts {
		if ks := pitKS(counts[i]); ks > 0.25 {
			t.Errorf("node %s: PIT KS %g > 0.25 on in-distribution data", s.Names()[i], ks)
		}
	}
}

// TestPITDiscreteMidRank checks the discrete mid-PIT identity on a known
// CPT: u = P(X < x) + P(X = x)/2.
func TestPITDiscreteMidRank(t *testing.T) {
	m, rows := buildTestModel(t, core.DiscreteModel)
	s, err := NewScorer(m)
	if err != nil {
		t.Fatal(err)
	}
	perNode := make([]float64, len(s.Names()))
	pit := make([]float64, len(s.Names()))
	for _, row := range rows[:50] {
		if _, err := s.ScoreRow(row, perNode, pit); err != nil {
			t.Fatal(err)
		}
		for i, u := range pit {
			// Mid-PIT lands in [0,1]; the closed endpoints are reachable
			// when the observed state has zero CPT mass.
			if math.IsNaN(u) || u < 0 || u > 1 {
				t.Fatalf("node %d: discrete mid-PIT %g outside [0,1]", i, u)
			}
		}
	}
}
