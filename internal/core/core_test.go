package core

import (
	"math"
	"sync"
	"testing"

	"kertbn/internal/bn"
	"kertbn/internal/dataset"
	"kertbn/internal/simsvc"
	"kertbn/internal/stats"
	"kertbn/internal/workflow"
)

// edData generates eDiaMoND training/test data.
func edData(t *testing.T, n int, seed uint64) (*simsvc.System, *dataset.Dataset) {
	t.Helper()
	sys := simsvc.EDiaMoNDSystem()
	rng := stats.NewRNG(seed)
	d, err := sys.GenerateDataset(n, rng)
	if err != nil {
		t.Fatal(err)
	}
	return sys, d
}

func TestBuildContinuousKERT(t *testing.T) {
	sys, train := edData(t, 200, 1)
	m, err := BuildKERT(DefaultKERTConfig(sys.Workflow), train)
	if err != nil {
		t.Fatal(err)
	}
	if m.Type != ContinuousModel || !m.Knowledge {
		t.Fatal("model flags wrong")
	}
	if m.NumServices != 6 || m.DNode != 6 || m.Net.N() != 7 {
		t.Fatalf("layout wrong: %+v", m)
	}
	// Structure: X1→X2, X2→X3, X2→X4, X3→X5, X4→X6, all → D.
	wantEdges := [][2]int{{0, 1}, {1, 2}, {1, 3}, {2, 4}, {3, 5}}
	for _, e := range wantEdges {
		if !m.Net.DAG().HasEdge(e[0], e[1]) {
			t.Fatalf("missing workflow edge %v", e)
		}
	}
	for i := 0; i < 6; i++ {
		if !m.Net.DAG().HasEdge(i, m.DNode) {
			t.Fatalf("missing D edge from %d", i)
		}
	}
	// D carries the knowledge-given CPD.
	if _, ok := m.Net.Node(m.DNode).CPD.(*bn.DetFunc); !ok {
		t.Fatal("D should have a DetFunc CPD")
	}
	if err := m.Net.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildKERTValidation(t *testing.T) {
	_, train := edData(t, 50, 2)
	if _, err := BuildKERT(KERTConfig{}, train); err == nil {
		t.Fatal("missing workflow should error")
	}
	sys := simsvc.EDiaMoNDSystem()
	short := dataset.New([]string{"a", "b"})
	_ = short.Append([]float64{1, 2})
	if _, err := BuildKERT(DefaultKERTConfig(sys.Workflow), short); err == nil {
		t.Fatal("wrong column count should error")
	}
	empty := dataset.New(train.Columns)
	if _, err := BuildKERT(DefaultKERTConfig(sys.Workflow), empty); err == nil {
		t.Fatal("empty training data should error")
	}
	// Sparse service indices rejected.
	bad := workflow.Seq(workflow.Task(0, "a"), workflow.Task(2, "c"))
	cols := dataset.New([]string{"a", "c", "D"})
	_ = cols.Append([]float64{1, 2, 3})
	if _, err := BuildKERT(DefaultKERTConfig(bad), cols); err == nil {
		t.Fatal("sparse service indices should error")
	}
}

func TestContinuousKERTLikelihood(t *testing.T) {
	sys, train := edData(t, 400, 4)
	_, test := edData(t, 100, 5)
	m, err := BuildKERT(DefaultKERTConfig(sys.Workflow), train)
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

func TestBuildDiscreteKERT(t *testing.T) {
	sys, train := edData(t, 600, 6)
	cfg := DefaultKERTConfig(sys.Workflow)
	cfg.Type = DiscreteModel
	cfg.Bins = 4
	m, err := BuildKERT(cfg, train)
	if err != nil {
		t.Fatal(err)
	}
	if m.Type != DiscreteModel || m.Codec == nil {
		t.Fatal("discrete model flags wrong")
	}
	// D's CPT is generated, not learned: check rows are proper and that the
	// dominant D bin tracks f.
	tab, ok := m.Net.Node(m.DNode).CPD.(*bn.Tabular)
	if !ok {
		t.Fatal("discrete D should have a tabular CPD")
	}
	if tab.Rows() != 4*4*4*4*4*4 {
		t.Fatalf("D CPT rows = %d", tab.Rows())
	}
	_, test := edData(t, 100, 7)
	ll, err := m.Log10Likelihood(test)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(ll) {
		t.Fatal("discrete ll NaN")
	}
}

func TestDiscreteKERTCPTGuard(t *testing.T) {
	rng := stats.NewRNG(8)
	sys, err := simsvc.RandomSystem(20, simsvc.DefaultRandomSystemOptions(), rng)
	if err != nil {
		t.Fatal(err)
	}
	train, _ := sys.GenerateDataset(50, rng)
	cfg := DefaultKERTConfig(sys.Workflow)
	cfg.Type = DiscreteModel
	cfg.Bins = 5
	if _, err := BuildKERT(cfg, train); err == nil {
		t.Fatal("20 services at 5 bins should trip the CPT guard")
	}
}

func TestKERTWithLeak(t *testing.T) {
	sys, train := edData(t, 300, 9)
	cfg := DefaultKERTConfig(sys.Workflow)
	cfg.Leak = 0.1
	m, err := BuildKERT(cfg, train)
	if err != nil {
		t.Fatal(err)
	}
	det := m.Net.Node(m.DNode).CPD.(*bn.DetFunc)
	if det.Leak != 0.1 || det.LeakHi <= det.LeakLo {
		t.Fatalf("leak config wrong: %+v", det)
	}
}

func TestKERTWithResources(t *testing.T) {
	sys := simsvc.EDiaMoNDSystem()
	sys.Resources = []workflow.ResourceSharing{{Name: "db", Services: []int{4, 5}}}
	rng := stats.NewRNG(10)
	train, err := sys.GenerateDataset(300, rng)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultKERTConfig(sys.Workflow)
	cfg.Resources = sys.Resources
	m, err := BuildKERT(cfg, train)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumResources != 1 || m.DNode != 7 || m.Net.N() != 8 {
		t.Fatalf("resource layout wrong: %+v", m)
	}
	// Resource node has the sharing services as parents (Section 3.2).
	ps := m.Net.Parents(6)
	if len(ps) != 2 || ps[0] != 4 || ps[1] != 5 {
		t.Fatalf("resource parents = %v", ps)
	}
}

func TestBuildNRTContinuous(t *testing.T) {
	_, train := edData(t, 400, 11)
	m, err := BuildNRT(DefaultNRTConfig(), train)
	if err != nil {
		t.Fatal(err)
	}
	if m.Knowledge {
		t.Fatal("NRT must not claim knowledge")
	}
	if m.Net.N() != 7 || m.DNode != 6 {
		t.Fatalf("NRT layout wrong")
	}
	if m.Cost.ScoreEvals == 0 {
		t.Fatal("K2 cost missing")
	}
	_, test := edData(t, 100, 12)
	if _, err := m.Log10Likelihood(test); err != nil {
		t.Fatal(err)
	}
}

func TestBuildNRTDiscrete(t *testing.T) {
	_, train := edData(t, 600, 13)
	cfg := DefaultNRTConfig()
	cfg.Type = DiscreteModel
	cfg.Bins = 4
	m, err := BuildNRT(cfg, train)
	if err != nil {
		t.Fatal(err)
	}
	if m.Codec == nil {
		t.Fatal("discrete NRT needs a codec")
	}
	_, test := edData(t, 100, 14)
	if _, err := m.Log10Likelihood(test); err != nil {
		t.Fatal(err)
	}
}

func TestBuildNRTValidation(t *testing.T) {
	if _, err := BuildNRT(DefaultNRTConfig(), dataset.New([]string{"a", "b"})); err == nil {
		t.Fatal("empty training set should error")
	}
	one := dataset.New([]string{"a"})
	_ = one.Append([]float64{1})
	if _, err := BuildNRT(DefaultNRTConfig(), one); err == nil {
		t.Fatal("single column should error")
	}
	_, train := edData(t, 50, 15)
	cfg := DefaultNRTConfig()
	cfg.Restarts = 2 // no RNG
	if _, err := BuildNRT(cfg, train); err == nil {
		t.Fatal("restarts without RNG should error")
	}
}

func TestKERTBeatsNRTOnSmallData(t *testing.T) {
	// The paper's core accuracy claim at small training sets.
	sys, train := edData(t, 36, 16)
	_, test := edData(t, 100, 17)
	kert, err := BuildKERT(DefaultKERTConfig(sys.Workflow), train)
	if err != nil {
		t.Fatal(err)
	}
	nrt, err := BuildNRT(DefaultNRTConfig(), train)
	if err != nil {
		t.Fatal(err)
	}
	kll, _ := kert.Log10Likelihood(test)
	nll, _ := nrt.Log10Likelihood(test)
	if kll <= nll {
		t.Fatalf("KERT-BN ll %g should beat NRT-BN ll %g on 36 points", kll, nll)
	}
}

func TestPosteriorStats(t *testing.T) {
	p, err := NewPosterior([]float64{1, 2, 3}, []float64{1, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.Mean()-2) > 1e-12 {
		t.Fatalf("mean %g", p.Mean())
	}
	if math.Abs(p.Variance()-0.5) > 1e-12 {
		t.Fatalf("variance %g", p.Variance())
	}
	if p.Exceedance(2) != 0.25 {
		t.Fatalf("exceedance %g", p.Exceedance(2))
	}
	if p.Quantile(0.5) != 2 {
		t.Fatalf("median %g", p.Quantile(0.5))
	}
}

func TestPosteriorEdgesExceedance(t *testing.T) {
	p, _ := NewPosterior([]float64{1, 3}, []float64{0.5, 0.5})
	p.Edges = [][2]float64{{0, 2}, {2, 4}}
	// h=1: half of bin0 above + all of bin1 = 0.25 + 0.5.
	if math.Abs(p.Exceedance(1)-0.75) > 1e-12 {
		t.Fatalf("edge exceedance %g", p.Exceedance(1))
	}
	if p.Exceedance(-1) != 1 || p.Exceedance(5) != 0 {
		t.Fatal("boundary exceedance wrong")
	}
}

func TestPosteriorValidation(t *testing.T) {
	if _, err := NewPosterior(nil, nil); err == nil {
		t.Fatal("empty posterior should error")
	}
	if _, err := NewPosterior([]float64{1}, []float64{-1}); err == nil {
		t.Fatal("negative mass should error")
	}
	if _, err := NewPosterior([]float64{1}, []float64{0}); err == nil {
		t.Fatal("zero mass should error")
	}
	if _, err := NewPosterior([]float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("length mismatch should error")
	}
}

func TestDCompDiscrete(t *testing.T) {
	sys, train := edData(t, 800, 18)
	cfg := DefaultKERTConfig(sys.Workflow)
	cfg.Type = DiscreteModel
	cfg.Bins = 5
	cfg.Leak = 0.05
	m, err := BuildKERT(cfg, train)
	if err != nil {
		t.Fatal(err)
	}
	// Observe everything except X4 (index 3).
	means := make(map[int]float64)
	for j := 0; j < train.NumCols(); j++ {
		if j == 3 {
			continue
		}
		means[j] = stats.Mean(train.Col(j))
	}
	post, err := DComp(m, 3, means, DCompOptions{})
	if err != nil {
		t.Fatal(err)
	}
	prior, err := PriorMarginal(m, 3, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if post.Std() >= prior.Std() {
		t.Fatalf("posterior std %g should shrink below prior %g", post.Std(), prior.Std())
	}
}

func TestDCompContinuous(t *testing.T) {
	sys, train := edData(t, 400, 19)
	m, err := BuildKERT(DefaultKERTConfig(sys.Workflow), train)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(20)
	obs := map[int]float64{0: 0.1, 1: 0.15}
	post, err := DComp(m, 3, obs, DCompOptions{NSamples: 5000, RNG: rng})
	if err != nil {
		t.Fatal(err)
	}
	if post.Mean() <= 0 {
		t.Fatalf("posterior mean %g", post.Mean())
	}
}

func TestDCompValidation(t *testing.T) {
	sys, train := edData(t, 200, 21)
	m, _ := BuildKERT(DefaultKERTConfig(sys.Workflow), train)
	if _, err := DComp(m, 3, nil, DCompOptions{}); err == nil {
		t.Fatal("no observations should error")
	}
	if _, err := DComp(m, 3, map[int]float64{3: 1}, DCompOptions{}); err == nil {
		t.Fatal("target in evidence should error")
	}
	if _, err := DComp(m, 99, map[int]float64{0: 1}, DCompOptions{}); err == nil {
		t.Fatal("bad target should error")
	}
}

func TestPAccelDiscrete(t *testing.T) {
	sys, train := edData(t, 800, 22)
	cfg := DefaultKERTConfig(sys.Workflow)
	cfg.Type = DiscreteModel
	cfg.Bins = 5
	cfg.Leak = 0.05
	m, err := BuildKERT(cfg, train)
	if err != nil {
		t.Fatal(err)
	}
	x4 := stats.Mean(train.Col(3))
	slow, err := PAccel(m, 3, x4*1.5, PAccelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := PAccel(m, 3, x4*0.5, PAccelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if fast.Mean() >= slow.Mean() {
		t.Fatalf("accelerating X4 should lower projected D: fast %g slow %g", fast.Mean(), slow.Mean())
	}
	if _, err := PAccel(m, m.DNode, 1, PAccelOptions{}); err == nil {
		t.Fatal("pAccel on D should error")
	}
}

func TestResponseTimePosterior(t *testing.T) {
	sys, train := edData(t, 600, 23)
	cfg := DefaultKERTConfig(sys.Workflow)
	cfg.Type = DiscreteModel
	cfg.Bins = 5
	cfg.Leak = 0.05
	m, _ := BuildKERT(cfg, train)
	post, err := ResponseTimePosterior(m, map[int]float64{0: stats.Mean(train.Col(0))}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if post.Mean() <= 0 {
		t.Fatal("posterior mean should be positive")
	}
}

func TestThresholdViolationError(t *testing.T) {
	post, _ := NewPosterior([]float64{1, 2, 3, 4}, []float64{0.25, 0.25, 0.25, 0.25})
	realD := []float64{1, 2, 3, 4}
	// P_real(D>2.5) = 0.5; P_bn = 0.5 → ε = 0.
	eps, err := ThresholdViolationError(post, realD, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	if eps != 0 {
		t.Fatalf("eps = %g, want 0", eps)
	}
	// Undefined when real probability is zero.
	if _, err := ThresholdViolationError(post, realD, 100); err == nil {
		t.Fatal("zero real probability should error")
	}
	sweep := ThresholdSweep(post, realD, []float64{2.5, 100})
	if sweep[0] != 0 || !math.IsNaN(sweep[1]) {
		t.Fatalf("sweep = %v", sweep)
	}
}

func TestScheduleConfig(t *testing.T) {
	cfg := ScheduleConfig{TData: 10e9, Alpha: 12, K: 3}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.WindowPoints() != 36 {
		t.Fatalf("window points = %d", cfg.WindowPoints())
	}
	if cfg.TCon() != 120e9 {
		t.Fatalf("TCon = %v", cfg.TCon())
	}
	if cfg.WindowDuration() != 360e9 {
		t.Fatalf("W = %v", cfg.WindowDuration())
	}
	for _, bad := range []ScheduleConfig{
		{TData: 0, Alpha: 1, K: 1},
		{TData: 1, Alpha: 0, K: 1},
		{TData: 1, Alpha: 1, K: 0},
	} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("config %+v should fail validation", bad)
		}
	}
}

func TestSchedulerRebuilds(t *testing.T) {
	sys, _ := edData(t, 1, 24)
	builds := 0
	builder := func(w *dataset.Dataset) (*Model, error) {
		builds++
		return BuildKERT(DefaultKERTConfig(sys.Workflow), w)
	}
	cfg := ScheduleConfig{TData: 1, Alpha: 10, K: 3}
	sched, err := NewSchedulerIncremental(cfg, newWindowBuilder(t, cfg, core_testColumns(), builder))
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(25)
	for i := 0; i < 35; i++ {
		row, _ := sys.Sample(rng)
		m, err := sched.Push(row)
		if err != nil {
			t.Fatal(err)
		}
		wantRebuild := (i+1)%10 == 0
		if (m != nil) != wantRebuild {
			t.Fatalf("push %d: rebuild=%v, want %v", i, m != nil, wantRebuild)
		}
	}
	if builds != 3 || sched.Rebuilds() != 3 {
		t.Fatalf("builds = %d, rebuilds = %d", builds, sched.Rebuilds())
	}
	if sched.Model() == nil {
		t.Fatal("scheduler should expose latest model")
	}
	// Window never exceeds K·α = 30 points.
	if sched.WindowLen() > 30 {
		t.Fatalf("window len %d", sched.WindowLen())
	}
}

func core_testColumns() []string {
	return ColumnNames(workflow.EDiaMoNDServiceNames, nil)
}

func TestSchedulerValidation(t *testing.T) {
	cfg := ScheduleConfig{TData: 1, Alpha: 1, K: 1}
	if _, err := NewSchedulerIncremental(ScheduleConfig{}, newWindowBuilder(t, cfg, []string{"a"}, nil)); err == nil {
		t.Fatal("bad config should error")
	}
	if _, err := NewSchedulerIncremental(cfg, nil); err == nil {
		t.Fatal("nil builder should error")
	}
}

func TestColumnNames(t *testing.T) {
	names := ColumnNames([]string{"a", "b"}, []workflow.ResourceSharing{{Name: "cpu"}})
	if len(names) != 4 || names[2] != "res_cpu" || names[3] != "D" {
		t.Fatalf("names = %v", names)
	}
}

func TestModelTypeString(t *testing.T) {
	if ContinuousModel.String() != "continuous" || DiscreteModel.String() != "discrete" {
		t.Fatal("type strings wrong")
	}
	if ModelType(9).String() == "" {
		t.Fatal("unknown type should still render")
	}
}

func TestLearnDCPDAblationContinuous(t *testing.T) {
	sys, train := edData(t, 400, 50)
	cfg := DefaultKERTConfig(sys.Workflow)
	cfg.LearnDCPD = true
	m, err := BuildKERT(cfg, train)
	if err != nil {
		t.Fatal(err)
	}
	// D must carry a *learned* linear-Gaussian CPD, not a DetFunc.
	if _, isDet := m.Net.Node(m.DNode).CPD.(*bn.DetFunc); isDet {
		t.Fatal("LearnDCPD must not install the knowledge CPD")
	}
	if _, isLG := m.Net.Node(m.DNode).CPD.(*bn.LinearGaussian); !isLG {
		t.Fatalf("D CPD = %T, want LinearGaussian", m.Net.Node(m.DNode).CPD)
	}
	// Knowledge D-CPD should outscore the misspecified learned one on
	// held-out data (max() is not linear).
	full, err := BuildKERT(DefaultKERTConfig(sys.Workflow), train)
	if err != nil {
		t.Fatal(err)
	}
	_, test := edData(t, 100, 51)
	ablLL, _ := m.Log10Likelihood(test)
	fullLL, _ := full.Log10Likelihood(test)
	if fullLL <= ablLL {
		t.Fatalf("knowledge D-CPD should win: full %g vs ablated %g", fullLL, ablLL)
	}
}

func TestLearnDCPDAblationDiscrete(t *testing.T) {
	sys, train := edData(t, 600, 52)
	cfg := DefaultKERTConfig(sys.Workflow)
	cfg.Type = DiscreteModel
	cfg.Bins = 4
	cfg.LearnDCPD = true
	m, err := BuildKERT(cfg, train)
	if err != nil {
		t.Fatal(err)
	}
	tab, ok := m.Net.Node(m.DNode).CPD.(*bn.Tabular)
	if !ok {
		t.Fatal("discrete D must be tabular")
	}
	// With 4^6 = 4096 parent configs and 600 points, most rows must be the
	// smoothed prior — the data-hunger the Eq.4 CPD avoids.
	uniform := 0
	for cfgIdx := 0; cfgIdx < tab.Rows(); cfgIdx++ {
		row := tab.P[cfgIdx*tab.Card : (cfgIdx+1)*tab.Card]
		isUniform := true
		for _, p := range row {
			if math.Abs(p-0.25) > 1e-9 {
				isUniform = false
				break
			}
		}
		if isUniform {
			uniform++
		}
	}
	if float64(uniform)/float64(tab.Rows()) < 0.7 {
		t.Fatalf("expected mostly-prior learned D CPT, got %d/%d uniform rows", uniform, tab.Rows())
	}
}

func TestPLocalRanksSlowService(t *testing.T) {
	// Train on the healthy system, then observe a violation generated by a
	// slowed-down remote chain: pLocal must rank the slow chain on top.
	sys, train := edData(t, 1000, 60)
	cfg := DefaultKERTConfig(sys.Workflow)
	cfg.Type = DiscreteModel
	cfg.Bins = 6
	cfg.Leak = 0.05
	m, err := BuildKERT(cfg, train)
	if err != nil {
		t.Fatal(err)
	}
	// A response time deep in the tail of the healthy distribution.
	dCol := train.Col(train.NumCols() - 1)
	highD := stats.Quantile(dCol, 0.97)
	sus, err := PLocal(m, highD, PLocalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sus) != 6 {
		t.Fatalf("suspicions = %d", len(sus))
	}
	// Every service's posterior mean should not drop given a slow request,
	// and the ranking must be sorted by shift.
	for i := 1; i < len(sus); i++ {
		if sus[i].Shift > sus[i-1].Shift {
			t.Fatal("suspicions not sorted")
		}
	}
	// The dominant-path services (remote chain: 3 and 5) should outrank the
	// fastest upstream service (0) — a slow request implicates the services
	// with the most room to move the max().
	rank := map[int]int{}
	for i, s := range sus {
		rank[s.Service] = i
	}
	if rank[3] > rank[0] && rank[5] > rank[0] {
		t.Fatalf("slow-path services should outrank image_list: %+v", sus)
	}
	// KL must be non-negative and positive for at least one service.
	anyKL := false
	for _, s := range sus {
		if s.KL < -1e-9 {
			t.Fatalf("negative KL %g", s.KL)
		}
		if s.KL > 1e-6 {
			anyKL = true
		}
	}
	if !anyKL {
		t.Fatal("violation evidence should move some posterior")
	}
}

func TestPLocalValidation(t *testing.T) {
	sys, train := edData(t, 200, 61)
	m, _ := BuildKERT(DefaultKERTConfig(sys.Workflow), train)
	if _, err := PLocal(m, 0, PLocalOptions{}); err == nil {
		t.Fatal("non-positive observation should error")
	}
}

func TestSchedulerConcurrentPush(t *testing.T) {
	sys, _ := edData(t, 1, 70)
	builder := func(w *dataset.Dataset) (*Model, error) {
		return BuildKERT(DefaultKERTConfig(sys.Workflow), w)
	}
	cfg := ScheduleConfig{TData: 1, Alpha: 25, K: 2}
	sched, err := NewSchedulerIncremental(cfg, newWindowBuilder(t, cfg, core_testColumns(), builder))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := stats.NewRNG(seed)
			for i := 0; i < 50; i++ {
				row, err := sys.Sample(rng)
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := sched.Push(row); err != nil {
					t.Error(err)
					return
				}
			}
		}(uint64(g + 100))
	}
	wg.Wait()
	// 400 pushes at alpha=25 → exactly 16 rebuilds.
	if sched.Rebuilds() != 16 {
		t.Fatalf("rebuilds = %d, want 16", sched.Rebuilds())
	}
	if sched.Model() == nil || sched.LastBuildTime() <= 0 {
		t.Fatal("scheduler state incomplete after concurrent pushes")
	}
}
