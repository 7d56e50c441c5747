// Benchmarks regenerating the unit of work behind every figure of the
// paper's evaluation, plus ablation benches for the design choices
// DESIGN.md calls out. Run with:
//
//	go test -bench=. -benchmem
//
// Figure-level series (full sweeps) come from `go run ./cmd/kertbench`;
// these benches time the building blocks each figure measures.
package kertbn

import (
	"context"
	"testing"

	"kertbn/internal/core"
	"kertbn/internal/dataset"
	"kertbn/internal/decentral"
	"kertbn/internal/experiments"
	"kertbn/internal/infer"
	"kertbn/internal/learn"
	"kertbn/internal/simsvc"
	"kertbn/internal/stats"
	"kertbn/internal/workflow"
)

// benchSystem memoizes one random system + data per size so repeated
// benches don't pay generation cost.
func benchData(b *testing.B, services, trainN int) (*simsvc.System, *dataset.Dataset) {
	b.Helper()
	rng := stats.NewRNG(uint64(services)*1000 + uint64(trainN))
	sys, err := simsvc.RandomSystem(services, simsvc.DefaultRandomSystemOptions(), rng)
	if err != nil {
		b.Fatal(err)
	}
	train, err := sys.GenerateDataset(trainN, rng)
	if err != nil {
		b.Fatal(err)
	}
	return sys, train
}

// --- Figure 3: construction time vs training size (30 services) ---

func benchKERTBuild(b *testing.B, services, trainN int) {
	sys, train := benchData(b, services, trainN)
	cfg := core.DefaultKERTConfig(sys.Workflow)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.BuildKERT(cfg, train); err != nil {
			b.Fatal(err)
		}
	}
}

func benchNRTBuild(b *testing.B, services, trainN int) {
	_, train := benchData(b, services, trainN)
	cfg := core.DefaultNRTConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.BuildNRT(cfg, train); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3_KERTBuild_30svc_36pts(b *testing.B)   { benchKERTBuild(b, 30, 36) }
func BenchmarkFig3_NRTBuild_30svc_36pts(b *testing.B)    { benchNRTBuild(b, 30, 36) }
func BenchmarkFig3_KERTBuild_30svc_360pts(b *testing.B)  { benchKERTBuild(b, 30, 360) }
func BenchmarkFig3_NRTBuild_30svc_360pts(b *testing.B)   { benchNRTBuild(b, 30, 360) }
func BenchmarkFig3_KERTBuild_30svc_1080pts(b *testing.B) { benchKERTBuild(b, 30, 1080) }
func BenchmarkFig3_NRTBuild_30svc_1080pts(b *testing.B)  { benchNRTBuild(b, 30, 1080) }

// --- Figure 4: construction time vs environment size (36-point window) ---

func BenchmarkFig4_KERTBuild_10svc(b *testing.B)  { benchKERTBuild(b, 10, 36) }
func BenchmarkFig4_NRTBuild_10svc(b *testing.B)   { benchNRTBuild(b, 10, 36) }
func BenchmarkFig4_KERTBuild_50svc(b *testing.B)  { benchKERTBuild(b, 50, 36) }
func BenchmarkFig4_NRTBuild_50svc(b *testing.B)   { benchNRTBuild(b, 50, 36) }
func BenchmarkFig4_KERTBuild_100svc(b *testing.B) { benchKERTBuild(b, 100, 36) }
func BenchmarkFig4_NRTBuild_100svc(b *testing.B)  { benchNRTBuild(b, 100, 36) }

// --- Figure 5: decentralized vs centralized parameter learning ---

func benchDecentral(b *testing.B, services int, shipper decentral.Shipper) {
	sys, train := benchData(b, services, 360)
	model, err := core.BuildKERT(core.DefaultKERTConfig(sys.Workflow), train.Head(2))
	if err != nil {
		b.Fatal(err)
	}
	plans, err := decentral.PlanFromNetwork(model.Net, nil)
	if err != nil {
		b.Fatal(err)
	}
	cols := make(decentral.Columns, train.NumCols())
	for j := range cols {
		cols[j] = train.Col(j)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decentral.Learn(plans, cols, shipper, learn.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// benchCentralSerial times the same CPD computations done serially on one
// node — the centralized comparison point.
func benchCentralSerial(b *testing.B, services int) {
	sys, train := benchData(b, services, 360)
	model, err := core.BuildKERT(core.DefaultKERTConfig(sys.Workflow), train.Head(2))
	if err != nil {
		b.Fatal(err)
	}
	net := model.Net
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := learn.FitParameters(net.CloneStructure(), train.Rows, learn.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5_Decentralized_50svc(b *testing.B) {
	benchDecentral(b, 50, decentral.InProcShipper{})
}
func BenchmarkFig5_CentralizedSerial_50svc(b *testing.B) { benchCentralSerial(b, 50) }
func BenchmarkFig5_Decentralized_100svc(b *testing.B) {
	benchDecentral(b, 100, decentral.InProcShipper{})
}
func BenchmarkFig5_CentralizedSerial_100svc(b *testing.B) { benchCentralSerial(b, 100) }

// --- Figures 6–8: the eDiaMoND applications ---

func edModel(b *testing.B) (*core.Model, *dataset.Dataset) {
	b.Helper()
	sys := simsvc.EDiaMoNDSystem()
	rng := stats.NewRNG(99)
	train, err := sys.GenerateDataset(1200, rng)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultKERTConfig(sys.Workflow)
	cfg.Type = core.DiscreteModel
	cfg.Bins = 8
	cfg.Leak = 0.02
	m, err := core.BuildKERT(cfg, train)
	if err != nil {
		b.Fatal(err)
	}
	return m, train
}

func BenchmarkFig6_DComp(b *testing.B) {
	m, train := edModel(b)
	observed := map[int]float64{}
	for j := 0; j < train.NumCols(); j++ {
		if j != 3 {
			observed[j] = stats.Mean(train.Col(j))
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.DComp(m, 3, observed, core.DCompOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7_PAccel(b *testing.B) {
	m, train := edModel(b)
	predicted := 0.9 * stats.Mean(train.Col(3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.PAccel(m, 3, predicted, core.PAccelOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8_ThresholdSweep(b *testing.B) {
	m, train := edModel(b)
	predicted := 0.9 * stats.Mean(train.Col(3))
	post, err := core.PAccel(m, 3, predicted, core.PAccelOptions{})
	if err != nil {
		b.Fatal(err)
	}
	realD := train.Col(train.NumCols() - 1)
	thresholds := []float64{0.9, 1.0, 1.1, 1.2, 1.3, 1.4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.ThresholdSweep(post, realD, thresholds)
	}
}

// --- Ablations (design choices called out in DESIGN.md) ---

// Ablation: D-CPT generation — center-point vs empirical within-bin
// integration.
func benchDiscreteKERT(b *testing.B, samples, bins int) {
	sys := simsvc.EDiaMoNDSystem()
	rng := stats.NewRNG(7)
	train, err := sys.GenerateDataset(1200, rng)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultKERTConfig(sys.Workflow)
	cfg.Type = core.DiscreteModel
	cfg.Bins = bins
	cfg.DetCPTSamples = samples
	cfg.MaxCPTEntries = 20_000_000 // allow the 10-bin ablation point
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.BuildKERT(cfg, train); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_DetCPT_CenterPoint(b *testing.B)    { benchDiscreteKERT(b, 1, 8) }
func BenchmarkAblation_DetCPT_Empirical16(b *testing.B)    { benchDiscreteKERT(b, 16, 8) }
func BenchmarkAblation_Discretization_4bins(b *testing.B)  { benchDiscreteKERT(b, 16, 4) }
func BenchmarkAblation_Discretization_10bins(b *testing.B) { benchDiscreteKERT(b, 16, 10) }

// Ablation: K2 parent bound.
func benchNRTMaxParents(b *testing.B, maxParents int) {
	_, train := benchData(b, 30, 360)
	cfg := core.DefaultNRTConfig()
	cfg.MaxParents = maxParents
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.BuildNRT(cfg, train); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_K2MaxParents2(b *testing.B)         { benchNRTMaxParents(b, 2) }
func BenchmarkAblation_K2MaxParentsUnbounded(b *testing.B) { benchNRTMaxParents(b, 0) }

// Ablation: column-shipping transport.
func BenchmarkAblation_ShippingInProc(b *testing.B) {
	benchDecentral(b, 30, decentral.InProcShipper{})
}

func BenchmarkAblation_ShippingTCP(b *testing.B) {
	fabric, err := decentral.NewTCPFabric()
	if err != nil {
		b.Fatal(err)
	}
	defer fabric.Close()
	benchDecentral(b, 30, fabric)
}

// Ablation: variable-elimination inference cost vs bins.
func benchPosterior(b *testing.B, bins int) {
	sys := simsvc.EDiaMoNDSystem()
	rng := stats.NewRNG(13)
	train, err := sys.GenerateDataset(600, rng)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultKERTConfig(sys.Workflow)
	cfg.Type = core.DiscreteModel
	cfg.Bins = bins
	cfg.MaxCPTEntries = 20_000_000 // allow the 10-bin ablation point
	m, err := core.BuildKERT(cfg, train)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.PriorMarginal(m, 3, 0, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_VE_5bins(b *testing.B)  { benchPosterior(b, 5) }
func BenchmarkAblation_VE_10bins(b *testing.B) { benchPosterior(b, 10) }

// Sanity: the whole quick experiment suite end-to-end (guards against
// regressions in the harness itself; not a per-figure timing).
func BenchmarkExperiments_Fig5Quick(b *testing.B) {
	cfg := experiments.DefaultFig5Config()
	cfg.Sizes = []int{10, 20}
	cfg.ModelsPerSize = 2
	cfg.TrainSize = 60
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig5(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation: exact Gaussian conditioning vs likelihood weighting on a
// linear (sequence-only) workflow.
func linearModel(b *testing.B, leak float64) (*core.Model, *dataset.Dataset) {
	b.Helper()
	rng := stats.NewRNG(31)
	wf, err := workflow.Generate(12, workflow.GenOptions{PPar: 0, MaxBranch: 3}, rng)
	if err != nil {
		b.Fatal(err)
	}
	sys := &simsvc.System{Workflow: wf, Services: make([]simsvc.ServiceSpec, 12)}
	for i := range sys.Services {
		sys.Services[i] = simsvc.ServiceSpec{
			Base: simsvc.DelayDist{Kind: simsvc.DistGamma, A: 2, B: 0.05},
		}
	}
	train, err := sys.GenerateDataset(400, rng)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultKERTConfig(wf)
	cfg.Leak = leak
	m, err := core.BuildKERT(cfg, train)
	if err != nil {
		b.Fatal(err)
	}
	return m, train
}

func BenchmarkAblation_PAccel_ExactGaussian(b *testing.B) {
	m, train := linearModel(b, 0)
	predicted := 0.9 * stats.Mean(train.Col(3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.PAccel(m, 3, predicted, core.PAccelOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_PAccel_LikelihoodWeighting(b *testing.B) {
	m, train := linearModel(b, 0.001) // leak forces the Monte-Carlo path
	predicted := 0.9 * stats.Mean(train.Col(3))
	rng := stats.NewRNG(32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.PAccel(m, 3, predicted, core.PAccelOptions{NSamples: 20000, RNG: rng}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Parallel inference (the BENCH_parallel.json comparison) ---

// lwBenchModel builds the continuous eDiaMoND KERT-BN and the pAccel-style
// evidence the parallel benchmark queries (same setup as
// experiments.ParallelBench).
func lwBenchModel(b *testing.B) (*core.Model, infer.ContinuousEvidence) {
	b.Helper()
	sys := simsvc.EDiaMoNDSystem()
	rng := stats.NewRNG(42)
	train, err := sys.GenerateDataset(1200, rng)
	if err != nil {
		b.Fatal(err)
	}
	m, err := core.BuildKERT(core.DefaultKERTConfig(sys.Workflow), train)
	if err != nil {
		b.Fatal(err)
	}
	return m, infer.ContinuousEvidence{0: stats.Mean(train.Col(0))}
}

func BenchmarkParallel_LW_Serial(b *testing.B) {
	m, ev := lwBenchModel(b)
	rng := stats.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := infer.LikelihoodWeighting(m.Net, m.DNode, ev, 100_000, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func benchLWParallel(b *testing.B, workers int) {
	m, ev := lwBenchModel(b)
	root := stats.NewRNG(1)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := infer.LikelihoodWeightingParallel(ctx, m.Net, m.DNode, ev, 100_000, workers, root.Split(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParallel_LW_1worker(b *testing.B)  { benchLWParallel(b, 1) }
func BenchmarkParallel_LW_4workers(b *testing.B) { benchLWParallel(b, 4) }
func BenchmarkParallel_LW_8workers(b *testing.B) { benchLWParallel(b, 8) }

func benchPosteriorBatch(b *testing.B, workers int) {
	m, _ := lwBenchModel(b)
	queries := make([]core.Query, 16)
	for i := range queries {
		queries[i] = core.Query{
			Target:   m.DNode,
			Evidence: map[int]float64{0: 0.05 + 0.002*float64(i)},
		}
	}
	root := stats.NewRNG(10)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.PosteriorBatch(ctx, m, queries, core.BatchOptions{
			NSamples: 6_000, Workers: workers, RNG: root.Split(uint64(i)),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParallel_PosteriorBatch16_1worker(b *testing.B)  { benchPosteriorBatch(b, 1) }
func BenchmarkParallel_PosteriorBatch16_4workers(b *testing.B) { benchPosteriorBatch(b, 4) }
