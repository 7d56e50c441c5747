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
