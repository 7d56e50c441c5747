package core

import (
	"context"
	"fmt"
	"time"

	"kertbn/internal/obs"
	"kertbn/internal/pool"
	"kertbn/internal/stats"
)

func init() {
	obs.RegisterPrefix("core", "internal/core")
	obs.RegisterPrefix("sched", "internal/core")
	obs.RegisterPrefix("build", "internal/core")
}

var (
	batchCalls   = obs.C("core.batch.calls")
	batchRows    = obs.HCount("core.batch.rows")
	batchSeconds = obs.H("core.batch.seconds")
)

// Query is one row of a batched posterior request: a target node and the
// evidence to condition on.
type Query struct {
	Target   int
	Evidence map[int]float64
}

// BatchOptions tunes PosteriorBatch.
type BatchOptions struct {
	// NSamples sizes Monte-Carlo inference per row (continuous models;
	// default 20000).
	NSamples int
	// Workers bounds concurrency (<= 0 means GOMAXPROCS).
	Workers int
	// RNG is the root stream; row i draws from RNG.Split(i), so results are
	// independent of Workers and a one-row batch reproduces the single-query
	// path bit-for-bit. Nil defaults to seed 1.
	RNG *stats.RNG
}

// PosteriorBatch answers many posterior queries against one shared model
// concurrently — the autonomic-manager pattern of Section 5, where a
// monitoring cycle needs dComp posteriors for several silent services and
// pAccel projections for several candidate actions at once. The model is
// only read, so all rows share it without copying.
//
// The returned slice is parallel to queries. An empty batch succeeds with an
// empty result. The first row error (wrapped with its row index) cancels the
// remaining rows; ctx cancellation does the same with ctx.Err().
func PosteriorBatch(ctx context.Context, m *Model, queries []Query, opts BatchOptions) ([]*Posterior, error) {
	start := time.Now()
	defer func() { batchSeconds.Observe(time.Since(start).Seconds()) }()
	batchCalls.Inc()
	batchRows.Observe(float64(len(queries)))
	root := opts.RNG
	if root == nil {
		root = stats.NewRNG(1)
	}
	out := make([]*Posterior, len(queries))
	err := pool.ForEach(ctx, "core.batch", len(queries), opts.Workers, func(i int) error {
		post, err := posteriorForNode(m, queries[i].Target, queries[i].Evidence, opts.NSamples, 1, root.Split(uint64(i)), nil)
		if err != nil {
			return fmt.Errorf("core: batch row %d: %w", i, err)
		}
		out[i] = post
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// DCompBatch runs Section 5.1's dComp for one unobservable target across
// many observation rows (e.g. successive monitoring windows) concurrently.
// Row i draws from opts.RNG.Split(i); see BatchOptions for the determinism
// contract.
func DCompBatch(ctx context.Context, m *Model, target int, observedRows []map[int]float64, opts BatchOptions) ([]*Posterior, error) {
	queries := make([]Query, len(observedRows))
	for i, obsRow := range observedRows {
		if len(obsRow) == 0 {
			return nil, fmt.Errorf("core: dComp batch row %d has no observed nodes", i)
		}
		queries[i] = Query{Target: target, Evidence: obsRow}
	}
	return PosteriorBatch(ctx, m, queries, opts)
}

// PAccelBatch runs Section 5.2's pAccel projection p(D | Z = E(z)) for many
// candidate predicted means of one service concurrently — the what-if sweep
// an autonomic manager runs before picking a resource-allocation action.
func PAccelBatch(ctx context.Context, m *Model, service int, predictedMeans []float64, opts BatchOptions) ([]*Posterior, error) {
	if service == m.DNode {
		return nil, fmt.Errorf("core: pAccel conditions on a service node, not D")
	}
	queries := make([]Query, len(predictedMeans))
	for i, mean := range predictedMeans {
		queries[i] = Query{Target: m.DNode, Evidence: map[int]float64{service: mean}}
	}
	return PosteriorBatch(ctx, m, queries, opts)
}

// ThresholdSweepParallel evaluates Equation 5's ε over thresholds with up to
// workers goroutines. Output is identical to ThresholdSweep — including the
// NaN-skip contract for thresholds where P_real(D > h) = 0 — because each
// entry is a pure function of its threshold.
func ThresholdSweepParallel(ctx context.Context, post *Posterior, realD []float64, thresholds []float64, workers int) ([]float64, error) {
	out := make([]float64, len(thresholds))
	err := pool.ForEach(ctx, "core.sweep", len(thresholds), workers, func(i int) error {
		out[i] = thresholdEntry(post, realD, thresholds[i])
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
