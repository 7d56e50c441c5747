package core

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"testing"

	"kertbn/internal/bn"
	"kertbn/internal/dataset"
	"kertbn/internal/learn"
	"kertbn/internal/stats"
	"kertbn/internal/workflow"
)

// referenceDetCPT is the D-CPT without the lane evaluator: it decodes every
// row's parent assignment with ConfigAssignment and calls the workflow's
// own f once per lane. With one sample it maps the bin centers through f,
// the center-point table of the Equation-4 translation.
func referenceDetCPT(cfg KERTConfig, codec *dataset.Codec, dDisc *dataset.Discretizer, n int, pools [][][]float64) (*bn.Tabular, learn.Cost, error) {
	parentCard := make([]int, n)
	for i := range parentCard {
		parentCard[i] = cfg.Bins
	}
	tab := bn.NewTabular(cfg.Bins, parentCard)
	var cost learn.Cost
	x := make([]float64, n)
	row := make([]float64, cfg.Bins)
	samples := cfg.DetCPTSamples
	f := cfg.Workflow.ResponseTime
	if cfg.Metric == TimeoutCountMetric {
		f = cfg.Workflow.TimeoutCount
	}
	lanes := detCPTLanes(codec, n, cfg.Bins, samples, pools)

	for cfgIdx := 0; cfgIdx < tab.Rows(); cfgIdx++ {
		assign := tab.ConfigAssignment(cfgIdx)
		for k := range row {
			row[k] = cfg.Leak / float64(cfg.Bins)
		}
		if samples <= 1 {
			for i, b := range assign {
				x[i] = codec.Discretizers[i].Center(b)
			}
			row[dDisc.Bin(f(x))] += 1 - cfg.Leak
			cost.DataOps += int64(n + cfg.Bins)
		} else {
			w := (1 - cfg.Leak) / float64(samples)
			for s := 0; s < samples; s++ {
				for i, b := range assign {
					x[i] = lanes[i][b][s]
				}
				row[dDisc.Bin(f(x))] += w
			}
			cost.DataOps += int64(samples*n + cfg.Bins)
		}
		if err := tab.SetRow(cfgIdx, row); err != nil {
			return nil, cost, err
		}
	}
	return tab, cost, nil
}

// resampledRow is one D-CPT row as per-row resampling builds it, the
// estimator the shared lanes replaced, kept as the accuracy reference: each
// of samples draws takes every parent's value uniformly from its bin's pool
// (the bin center for an empty pool), from an RNG seeded by seed and the
// row index.
func resampledRow(cfg KERTConfig, codec *dataset.Codec, dDisc *dataset.Discretizer, pools [][][]float64, cfgIdx int, assign []int, samples int, seed uint64) []float64 {
	f := cfg.metricFunc()
	x := make([]float64, len(assign))
	row := make([]float64, cfg.Bins)
	for k := range row {
		row[k] = cfg.Leak / float64(cfg.Bins)
	}
	rng := stats.NewRNG(seed ^ uint64(cfgIdx))
	w := (1 - cfg.Leak) / float64(samples)
	for s := 0; s < samples; s++ {
		for i, b := range assign {
			vals := pools[i][b]
			if len(vals) == 0 {
				x[i] = codec.Discretizers[i].Center(b)
				continue
			}
			x[i] = vals[rng.Intn(len(vals))]
		}
		row[dDisc.Bin(f(x))] += w
	}
	return row
}

// relabel returns wf with every service index s replaced by perm[s], so a
// construct's children no longer come in service-index order.
func relabel(wf *workflow.Node, perm []int) *workflow.Node {
	kids := make([]*workflow.Node, len(wf.Children()))
	for i, c := range wf.Children() {
		kids[i] = relabel(c, perm)
	}
	switch {
	case wf.IsTask():
		return workflow.Task(perm[wf.Service()], wf.Name())
	case wf.IsSeq():
		return workflow.Seq(kids...)
	case wf.IsPar():
		return workflow.Par(kids...)
	case wf.IsChoice():
		return workflow.Choice(wf.ChoiceProbs(), kids...)
	default:
		return workflow.Loop(wf.LoopP(), kids[0])
	}
}

// randomWorkflow draws a workflow over n services with every construct
// kind, its services relabeled by a random permutation.
func randomWorkflow(t *testing.T, n int, rng *stats.RNG) *workflow.Node {
	t.Helper()
	wf, err := workflow.Generate(n, workflow.GenOptions{PPar: 0.3, PChoice: 0.25, PLoop: 0.2, MaxBranch: 3}, rng)
	if err != nil {
		t.Fatal(err)
	}
	return relabel(wf, rng.Perm(n))
}

// binPools groups each service's training values by bin.
func binPools(codec *dataset.Codec, n, bins int, train *dataset.Dataset) [][][]float64 {
	pools := newBinPools(n, bins)
	for _, r := range train.Rows {
		for i := 0; i < n; i++ {
			b := codec.Discretizers[i].Bin(r[i])
			pools[i][b] = append(pools[i][b], r[i])
		}
	}
	return pools
}

// TestDetCPTMatchesPerLaneReference: over seeded random workflows (every
// construct kind, services relabeled out of index order, single-task roots
// included), both metrics, empty pools and S ∈ {1, 3, 16}, every D-CPT
// entry and the cost equal the reference that calls f once per lane, bit
// for bit. At S = 1 that reference is the center-point table.
func TestDetCPTMatchesPerLaneReference(t *testing.T) {
	rng := stats.NewRNG(20)
	for trial := 0; trial < 200; trial++ {
		n := 1 + trial%5
		bins := 2 + rng.Intn(3)
		cfg := DefaultKERTConfig(randomWorkflow(t, n, rng))
		cfg.Type = DiscreteModel
		cfg.Bins = bins
		cfg.Leak = []float64{0, 0.05}[rng.Intn(2)]
		cfg.Metric = []MetricKind{ResponseTimeMetric, TimeoutCountMetric}[trial%2]
		cfg.DetCPTSamples = []int{1, 3, 16}[rng.Intn(3)]
		cfg.fillDefaults()
		f := cfg.metricFunc()

		cols := make([]string, n+1)
		for i := range cols {
			cols[i] = fmt.Sprintf("c%d", i)
		}
		train := dataset.New(cols)
		for r := 5 + rng.Intn(60); r > 0; r-- {
			row := make([]float64, n+1)
			for i := 0; i < n; i++ {
				row[i] = rng.Exponential(1 + float64(i))
			}
			row[n] = f(row[:n]) + rng.Normal(0, 0.1)
			if err := train.Append(row); err != nil {
				t.Fatal(err)
			}
		}
		codec, err := dataset.FitCodec(train, bins, dataset.Quantile)
		if err != nil {
			t.Fatal(err)
		}
		pools := binPools(codec, n, bins, train)
		for i := range pools {
			for b := range pools[i] {
				if rng.Float64() < 0.2 {
					pools[i][b] = nil
				}
			}
		}
		dDisc := codec.Discretizers[n]
		got, gotCost, err := detCPTFromPools(cfg, codec, dDisc, n, pools)
		if err != nil {
			t.Fatal(err)
		}
		want, wantCost, err := referenceDetCPT(cfg, codec, dDisc, n, pools)
		if err != nil {
			t.Fatal(err)
		}
		if gotCost != wantCost {
			t.Errorf("trial %d: cost %+v, want %+v", trial, gotCost, wantCost)
		}
		for i := range want.P {
			if math.Float64bits(got.P[i]) != math.Float64bits(want.P[i]) {
				t.Fatalf("trial %d (%v, %v, S=%d): P[%d] = %v, want %v bit for bit",
					trial, cfg.Workflow, cfg.Metric, cfg.DetCPTSamples, i, got.P[i], want.P[i])
			}
		}
	}
}

// TestDetCPTLanesStratified: each lane takes one value per equal-count
// stratum of its sorted pool, the lanes do not depend on the pool's order,
// and an empty pool or a single sample gives the bin center.
func TestDetCPTLanesStratified(t *testing.T) {
	sys, train := edData(t, 300, 3)
	n := len(sys.Services)
	const bins = 6
	codec, err := dataset.FitCodec(train, bins, dataset.Quantile)
	if err != nil {
		t.Fatal(err)
	}
	pools := binPools(codec, n, bins, train)
	pools[2][0] = nil
	shuffled := newBinPools(n, bins)
	rng := stats.NewRNG(9)
	for i := range pools {
		for b, pool := range pools[i] {
			p := append([]float64(nil), pool...)
			rng.Shuffle(len(p), func(x, y int) { p[x], p[y] = p[y], p[x] })
			shuffled[i][b] = p
		}
	}
	for _, samples := range []int{1, 3, 16} {
		lanes := detCPTLanes(codec, n, bins, samples, pools)
		again := detCPTLanes(codec, n, bins, samples, shuffled)
		for i := range lanes {
			for b, lane := range lanes[i] {
				if !slices.Equal(lane, again[i][b]) {
					t.Fatalf("S=%d: lanes[%d][%d] depend on pool order: %v vs %v", samples, i, b, lane, again[i][b])
				}
				pool := pools[i][b]
				if samples == 1 || len(pool) == 0 {
					for _, v := range lane {
						if v != codec.Discretizers[i].Center(b) {
							t.Fatalf("S=%d: lanes[%d][%d] = %v, want the bin center", samples, i, b, lane)
						}
					}
					continue
				}
				sorted := append([]float64(nil), pool...)
				sort.Float64s(sorted)
				want := make([]float64, samples)
				for k := range want {
					want[k] = sorted[int((float64(k)+0.5)*float64(len(sorted))/float64(samples))]
				}
				got := append([]float64(nil), lane...)
				sort.Float64s(got)
				if !slices.Equal(got, want) {
					t.Fatalf("S=%d: lanes[%d][%d] = %v, want the strata %v in some order", samples, i, b, lane, want)
				}
			}
		}
	}
}

// kertmonDetCPTConfig is kertmon's discrete model (eDiaMoND, 6 bins, Leak
// 0.02, the default 16 samples) over a 300-row window drawn from seed.
func kertmonDetCPTConfig(t *testing.T, seed uint64) (KERTConfig, *dataset.Codec, *dataset.Dataset, [][][]float64) {
	t.Helper()
	sys, train := edData(t, 300, seed)
	cfg := DefaultKERTConfig(sys.Workflow)
	cfg.Type = DiscreteModel
	cfg.Bins = 6
	cfg.Leak = 0.02
	cfg.fillDefaults()
	codec, err := dataset.FitCodec(train, cfg.Bins, cfg.Binning)
	if err != nil {
		t.Fatal(err)
	}
	return cfg, codec, train, binPools(codec, len(sys.Services), cfg.Bins, train)
}

// totalVariation is half the L1 distance between two distributions.
func totalVariation(p, q []float64) float64 {
	d := 0.0
	for k := range p {
		d += math.Abs(p[k] - q[k])
	}
	return d / 2
}

// TestDetCPTLanesAccuracy: on kertmon's config the lanes' D-CPT is closer
// to a 512-sample per-row resampled reference than 16-sample per-row
// resampling is. Per-row total variation is averaged over the rows the
// window occupies, weighted by how many window rows fall in each; the P(D)
// marginal mixes the rows with the same weights.
func TestDetCPTLanesAccuracy(t *testing.T) {
	const refSeed = 0x5DEECE66D
	for _, seed := range []uint64{1, 2, 3} {
		cfg, codec, train, pools := kertmonDetCPTConfig(t, seed)
		n := len(pools)
		dDisc := codec.Discretizers[n]
		tab, _, err := detCPTFromPools(cfg, codec, dDisc, n, pools)
		if err != nil {
			t.Fatal(err)
		}
		weight := map[int]float64{}
		assign := make([]int, n)
		for _, r := range train.Rows {
			for i := range assign {
				assign[i] = codec.Discretizers[i].Bin(r[i])
			}
			weight[tab.ConfigIndex(assign)] += 1 / float64(len(train.Rows))
		}
		rows := make([]int, 0, len(weight))
		for c := range weight {
			rows = append(rows, c)
		}
		sort.Ints(rows)
		var tvLanes, tvResampled float64
		margLanes := make([]float64, cfg.Bins)
		margRef := make([]float64, cfg.Bins)
		for _, c := range rows {
			w := weight[c]
			a := tab.ConfigAssignment(c)
			ref := resampledRow(cfg, codec, dDisc, pools, c, a, 512, refSeed)
			old := resampledRow(cfg, codec, dDisc, pools, c, a, 16, 0x9E3779B97F4A7C15)
			lanes := tab.P[c*cfg.Bins : (c+1)*cfg.Bins]
			tvLanes += w * totalVariation(lanes, ref)
			tvResampled += w * totalVariation(old, ref)
			for k := range margRef {
				margLanes[k] += w * lanes[k]
				margRef[k] += w * ref[k]
			}
		}
		margTV := totalVariation(margLanes, margRef)
		t.Logf("seed %d: per-row TV lanes %.4f vs resampled %.4f (ratio %.2f), P(D) TV %.4f",
			seed, tvLanes, tvResampled, tvLanes/tvResampled, margTV)
		if tvLanes > 0.8*tvResampled {
			t.Errorf("seed %d: lanes' per-row TV %.4f > 0.8 × resampling's %.4f", seed, tvLanes, tvResampled)
		}
		if margTV > 0.015 {
			t.Errorf("seed %d: lanes' P(D) marginal TV %.4f > 0.015", seed, margTV)
		}
	}
}

// TestDetCPTAllocBudget bounds what one kertmon-config D-CPT allocates: the
// rebuild-disc scheduler pays it on every generation. The 279,936-entry
// table is 2.24 MB of the budget; the lanes and the evaluator add a few
// dozen small objects and nothing per row.
func TestDetCPTAllocBudget(t *testing.T) {
	cfg, codec, _, pools := kertmonDetCPTConfig(t, 3)
	n := len(pools)
	run := func() {
		if _, _, err := detCPTFromPools(cfg, codec, codec.Discretizers[n], n, pools); err != nil {
			t.Fatal(err)
		}
	}
	run()
	const maxAllocs, maxBytes = 200, 2_500_000
	allocs := testing.AllocsPerRun(3, run)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const calls = 3
	for i := 0; i < calls; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / calls
	t.Logf("one D-CPT: %v allocations, %d bytes", allocs, bytes)
	if allocs > maxAllocs {
		t.Errorf("one D-CPT makes %v allocations, want <= %d", allocs, maxAllocs)
	}
	if bytes > maxBytes {
		t.Errorf("one D-CPT allocates %d bytes, want <= %d", bytes, maxBytes)
	}
}

// TestMetricFuncTimeoutCountMatchesTimeoutCount: a timeout-count model's f
// is bit-identical to Workflow.TimeoutCount on random workflows and inputs
// of mixed magnitude, where summation order shows.
func TestMetricFuncTimeoutCountMatchesTimeoutCount(t *testing.T) {
	rng := stats.NewRNG(4)
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(8)
		cfg := KERTConfig{Workflow: randomWorkflow(t, n, rng), Metric: TimeoutCountMetric}
		f := cfg.metricFunc()
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.Normal(0, 1) * math.Pow(10, float64(rng.Intn(13)-6))
		}
		if got, want := f(x), cfg.Workflow.TimeoutCount(x); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%v at %v: f = %v, TimeoutCount = %v", cfg.Workflow, x, got, want)
		}
	}
}

var sinkF float64

// TestMetricFuncTimeoutCountZeroAlloc: DetFunc sampling and health scoring
// call a timeout-count model's f per sample and per row; it allocates
// nothing.
func TestMetricFuncTimeoutCountZeroAlloc(t *testing.T) {
	cfg := KERTConfig{Workflow: workflow.EDiaMoND(), Metric: TimeoutCountMetric}
	f := cfg.metricFunc()
	x := []float64{1, 2, 3, 4, 5, 6}
	if allocs := testing.AllocsPerRun(100, func() { sinkF = f(x) }); allocs != 0 {
		t.Errorf("timeout-count f makes %v allocations per call, want 0", allocs)
	}
}
