package core

import (
	"math"
	"testing"

	"kertbn/internal/bn"
	"kertbn/internal/dataset"
	"kertbn/internal/learn"
	"kertbn/internal/stats"
)

// referenceDetCPTFromPools is the D-CPT loop detCPTFromPools replaced: it
// decodes every row's parent assignment with ConfigAssignment instead of
// stepping one in place.
func referenceDetCPTFromPools(cfg KERTConfig, codec *dataset.Codec, dDisc *dataset.Discretizer, n int, binVals [][][]float64) (*bn.Tabular, learn.Cost, error) {
	parentCard := make([]int, n)
	for i := range parentCard {
		parentCard[i] = cfg.Bins
	}
	tab := bn.NewTabular(cfg.Bins, parentCard)
	var cost learn.Cost
	x := make([]float64, n)
	row := make([]float64, cfg.Bins)
	samples := cfg.DetCPTSamples
	f := cfg.metricFunc()

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
			rng := stats.NewRNG(0x9E3779B97F4A7C15 ^ uint64(cfgIdx))
			w := (1 - cfg.Leak) / float64(samples)
			for s := 0; s < samples; s++ {
				for i, b := range assign {
					vals := binVals[i][b]
					if len(vals) == 0 {
						x[i] = codec.Discretizers[i].Center(b)
						continue
					}
					x[i] = vals[rng.Intn(len(vals))]
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

// TestDetCPTFromPoolsMatchesReference: kertmon's D-CPT (6 bins, Leak
// 0.02), Monte-Carlo and bin-center variants, is bit-identical to the
// decode-every-row loop, and so is its cost.
func TestDetCPTFromPoolsMatchesReference(t *testing.T) {
	sys, train := edData(t, 300, 3)
	n := len(sys.Services)
	for _, samples := range []int{16, 1} {
		cfg := DefaultKERTConfig(sys.Workflow)
		cfg.Type = DiscreteModel
		cfg.Bins = 6
		cfg.Leak = 0.02
		cfg.DetCPTSamples = samples
		cfg.fillDefaults()
		codec, err := dataset.FitCodec(train, cfg.Bins, cfg.Binning)
		if err != nil {
			t.Fatal(err)
		}
		dDisc := codec.Discretizers[train.NumCols()-1]
		pools := newBinPools(n, cfg.Bins)
		for _, r := range train.Rows {
			for i := 0; i < n; i++ {
				b := codec.Discretizers[i].Bin(r[i])
				pools[i][b] = append(pools[i][b], r[i])
			}
		}
		got, gotCost, err := detCPTFromPools(cfg, codec, dDisc, n, pools)
		if err != nil {
			t.Fatal(err)
		}
		want, wantCost, err := referenceDetCPTFromPools(cfg, codec, dDisc, n, pools)
		if err != nil {
			t.Fatal(err)
		}
		if gotCost != wantCost {
			t.Errorf("samples %d: cost %+v, want %+v", samples, gotCost, wantCost)
		}
		for i := range want.P {
			if math.Float64bits(got.P[i]) != math.Float64bits(want.P[i]) {
				t.Fatalf("samples %d: P[%d] = %v, want %v bit for bit", samples, i, got.P[i], want.P[i])
			}
		}
	}
}
