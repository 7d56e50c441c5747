package kertbn_test

import (
	"math"
	"testing"

	"kertbn"
)

// TestPublicAPIEndToEnd exercises the full documented user journey through
// the package root only: workflow → data → model → applications.
func TestPublicAPIEndToEnd(t *testing.T) {
	wf := kertbn.EDiaMoND()
	if err := wf.Validate(); err != nil {
		t.Fatal(err)
	}
	sys := kertbn.EDiaMoNDSystem()
	rng := kertbn.NewRNG(1)
	train, err := sys.GenerateDataset(600, rng)
	if err != nil {
		t.Fatal(err)
	}
	test, err := sys.GenerateDataset(100, rng)
	if err != nil {
		t.Fatal(err)
	}

	cfg := kertbn.DefaultKERTConfig(wf)
	cfg.Type = kertbn.DiscreteModel
	cfg.Bins = 5
	cfg.Leak = 0.02
	model, err := kertbn.BuildKERT(cfg, train)
	if err != nil {
		t.Fatal(err)
	}
	ll, err := model.Log10Likelihood(test)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(ll) {
		t.Fatal("likelihood NaN")
	}

	// dComp.
	observed := map[int]float64{}
	for j := 0; j < train.NumCols(); j++ {
		if j != 3 {
			observed[j] = mean(train.Col(j))
		}
	}
	post, err := kertbn.DComp(model, 3, observed, kertbn.DCompOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if post.Mean() <= 0 {
		t.Fatal("dComp posterior mean should be positive")
	}

	// pAccel.
	proj, err := kertbn.PAccel(model, 3, 0.9*mean(train.Col(3)), kertbn.PAccelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if proj.Mean() <= 0 {
		t.Fatal("pAccel posterior mean should be positive")
	}

	// Equation 5: a threshold beyond all data is undefined.
	realD := test.Col(test.NumCols() - 1)
	if _, err := kertbn.ThresholdViolationError(proj, realD, 1e9); err == nil {
		t.Fatal("epsilon should be undefined when no real violations exist")
	}
	eps := kertbn.ThresholdSweep(proj, realD, []float64{1.0, 1.2})
	if len(eps) != 2 {
		t.Fatal("sweep length wrong")
	}
}

func TestPublicAPIContinuousAndNRT(t *testing.T) {
	rng := kertbn.NewRNG(2)
	sys, err := kertbn.RandomSystem(8, kertbn.DefaultRandomSystemOptions(), rng)
	if err != nil {
		t.Fatal(err)
	}
	train, err := sys.GenerateDataset(200, rng)
	if err != nil {
		t.Fatal(err)
	}
	kert, err := kertbn.BuildKERT(kertbn.DefaultKERTConfig(sys.Workflow), train)
	if err != nil {
		t.Fatal(err)
	}
	nrt, err := kertbn.BuildNRT(kertbn.DefaultNRTConfig(), train)
	if err != nil {
		t.Fatal(err)
	}
	if kert.Cost.ScoreEvals != 0 {
		t.Fatal("KERT must not do structure learning")
	}
	if nrt.Cost.ScoreEvals == 0 {
		t.Fatal("NRT must do structure learning")
	}
}

func TestPublicAPIDecentralized(t *testing.T) {
	rng := kertbn.NewRNG(3)
	sys, err := kertbn.RandomSystem(10, kertbn.DefaultRandomSystemOptions(), rng)
	if err != nil {
		t.Fatal(err)
	}
	train, err := sys.GenerateDataset(100, rng)
	if err != nil {
		t.Fatal(err)
	}
	model, err := kertbn.BuildKERT(kertbn.DefaultKERTConfig(sys.Workflow), train.Head(2))
	if err != nil {
		t.Fatal(err)
	}
	plans, err := kertbn.PlanFromNetwork(model.Net, nil)
	if err != nil {
		t.Fatal(err)
	}
	cols := make(kertbn.Columns, train.NumCols())
	for j := range cols {
		cols[j] = train.Col(j)
	}
	res, err := kertbn.LearnDecentralized(plans, cols, kertbn.InProcShipper{}, kertbn.DefaultLearnOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := kertbn.InstallCPDs(model.Net, res); err != nil {
		t.Fatal(err)
	}
	if err := model.Net.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIScheduler(t *testing.T) {
	sys := kertbn.EDiaMoNDSystem()
	cfg := kertbn.ScheduleConfig{TData: 1, Alpha: 5, K: 2}
	ik, err := kertbn.NewIncrementalKERT(kertbn.DefaultKERTConfig(sys.Workflow), cfg.WindowPoints())
	if err != nil {
		t.Fatal(err)
	}
	sched, err := kertbn.NewScheduler(cfg, ik)
	if err != nil {
		t.Fatal(err)
	}
	rng := kertbn.NewRNG(4)
	rebuilds := 0
	for i := 0; i < 20; i++ {
		row, err := sys.Sample(rng)
		if err != nil {
			t.Fatal(err)
		}
		m, err := sched.Push(row)
		if err != nil {
			t.Fatal(err)
		}
		if m != nil {
			rebuilds++
		}
	}
	if rebuilds != 4 {
		t.Fatalf("rebuilds = %d, want 4", rebuilds)
	}
}

func TestPublicAPIMonitorPipeline(t *testing.T) {
	cols := kertbn.ColumnNames(kertbn.EDiaMoNDServiceNames, nil)
	var rows [][]float64
	srv, err := kertbn.NewMonitorServer(len(cols), func(row []float64) {
		rows = append(rows, row)
	})
	if err != nil {
		t.Fatal(err)
	}
	agent, err := kertbn.NewMonitorAgent("host1", 7, srv)
	if err != nil {
		t.Fatal(err)
	}
	points := make([]interface{ Observe(int64, float64) }, len(cols))
	for j := range cols {
		points[j] = agent.NewPoint(j)
	}
	for req := int64(0); req < 5; req++ {
		for j := range cols {
			points[j].Observe(req, float64(j))
		}
	}
	if err := agent.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("assembled %d rows, want 5", len(rows))
	}
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// TestPublicAPIMissingDataPath exercises the dComp motivation: a
// monitoring point goes dark, so the management server assembles no
// complete rows, and dComp estimates the dark service's elapsed time from
// what the other points observed.
func TestPublicAPIMissingDataPath(t *testing.T) {
	const dark = 3 // image_locator_remote loses instrumentation
	sys := kertbn.EDiaMoNDSystem()
	rng := kertbn.NewRNG(9)

	// Train a discrete model while everything was still observable.
	train, err := sys.GenerateDataset(800, rng)
	if err != nil {
		t.Fatal(err)
	}
	cfg := kertbn.DefaultKERTConfig(kertbn.EDiaMoND())
	cfg.Type = kertbn.DiscreteModel
	cfg.Bins = 5
	cfg.Leak = 0.05
	model, err := kertbn.BuildKERT(cfg, train)
	if err != nil {
		t.Fatal(err)
	}

	// Live phase: the dark service reports nothing.
	cols := kertbn.ColumnNames(kertbn.EDiaMoNDServiceNames, nil)
	srv, err := kertbn.NewMonitorServer(len(cols), func([]float64) {
		t.Fatal("no complete rows should assemble with a dark column")
	})
	if err != nil {
		t.Fatal(err)
	}
	agent, err := kertbn.NewMonitorAgent("host", 64, srv)
	if err != nil {
		t.Fatal(err)
	}
	points := make([]*kertbn.MonitorPoint, len(cols))
	for j := range cols {
		points[j] = agent.NewPoint(j)
	}
	const nReq = 200
	observed := map[int]float64{}
	for req := int64(0); req < nReq; req++ {
		row, err := sys.Sample(rng)
		if err != nil {
			t.Fatal(err)
		}
		for j := range cols {
			if j == dark {
				continue
			}
			points[j].Observe(req, row[j])
			observed[j] += row[j] / nReq
		}
	}
	if err := agent.Flush(); err != nil {
		t.Fatal(err)
	}

	// dComp: estimate the dark service from observation means.
	post, err := kertbn.DComp(model, dark, observed, kertbn.DCompOptions{})
	if err != nil {
		t.Fatal(err)
	}
	actual := mean(train.Col(dark))
	if post.Mean() <= 0 || post.Mean() > 3*actual {
		t.Fatalf("dComp estimate %g implausible vs actual %g", post.Mean(), actual)
	}

}
