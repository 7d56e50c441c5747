package infer

import (
	"context"
	"errors"
	"math"
	"testing"

	"kertbn/internal/stats"
)

// TestLWParallelDeterministicAcrossWorkers is the seed-splitting contract:
// for a fixed seed the sharded sampler must be bit-for-bit identical at any
// worker count.
func TestLWParallelDeterministicAcrossWorkers(t *testing.T) {
	n := gaussianChain(t)
	ev := ContinuousEvidence{2: 5}
	const samples = 10_000
	ref, err := LikelihoodWeightingParallel(context.Background(), n, 0, ev, samples, 1, stats.NewRNG(42))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		got, err := LikelihoodWeightingParallel(context.Background(), n, 0, ev, samples, workers, stats.NewRNG(42))
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Values) != len(ref.Values) {
			t.Fatalf("workers=%d: %d samples vs %d at workers=1", workers, len(got.Values), len(ref.Values))
		}
		for i := range ref.Values {
			if got.Values[i] != ref.Values[i] || got.Weights[i] != ref.Weights[i] {
				t.Fatalf("workers=%d: sample %d differs: (%g,%g) vs (%g,%g)",
					workers, i, got.Values[i], got.Weights[i], ref.Values[i], ref.Weights[i])
			}
		}
	}
}

// TestLWParallelMatchesSerialPosterior checks the sharded kernel estimates
// the same posterior as the committed serial path (statistically — the
// streams differ, the distribution must not).
func TestLWParallelMatchesSerialPosterior(t *testing.T) {
	n := gaussianChain(t)
	ev := ContinuousEvidence{2: 5}
	const samples = 200_000
	serial, err := LikelihoodWeighting(n, 0, ev, samples, stats.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	par, err := LikelihoodWeightingParallel(context.Background(), n, 0, ev, samples, 4, stats.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(par.Mean() - serial.Mean()); d > 0.05 {
		t.Fatalf("parallel mean %g vs serial %g (|Δ|=%g)", par.Mean(), serial.Mean(), d)
	}
	if d := math.Abs(par.Variance() - serial.Variance()); d > 0.1 {
		t.Fatalf("parallel var %g vs serial %g (|Δ|=%g)", par.Variance(), serial.Variance(), d)
	}
}

func TestLWParallelNonShardMultiple(t *testing.T) {
	// nSamples not a multiple of the shard size: the tail shard is short,
	// the total count must still be exact.
	n := gaussianChain(t)
	ws, err := LikelihoodWeightingParallel(context.Background(), n, 0, nil, 3000, 4, stats.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(ws.Values) != 3000 {
		t.Fatalf("got %d samples, want 3000 (no evidence, none rejected)", len(ws.Values))
	}
	total := 0.0
	for _, w := range ws.Weights {
		total += w
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("weights sum to %g, want 1", total)
	}
}

func TestLWParallelValidationAndNilRNG(t *testing.T) {
	n := gaussianChain(t)
	if _, err := LikelihoodWeightingParallel(context.Background(), n, 99, nil, 10, 2, nil); err == nil {
		t.Fatal("bad query should error")
	}
	if _, err := LikelihoodWeightingParallel(context.Background(), n, 0, ContinuousEvidence{0: 1}, 10, 2, nil); err == nil {
		t.Fatal("query==evidence should error")
	}
	if _, err := LikelihoodWeightingParallel(context.Background(), n, 0, nil, 0, 2, nil); err == nil {
		t.Fatal("zero samples should error")
	}
	// nil rng defaults to seed 1 — same as an explicit NewRNG(1).
	a, err := LikelihoodWeightingParallel(context.Background(), n, 0, nil, 4096, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := LikelihoodWeightingParallel(context.Background(), n, 0, nil, 4096, 2, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Values {
		if a.Values[i] != b.Values[i] {
			t.Fatal("nil rng must behave as seed 1")
		}
	}
}

func TestLWParallelCancellation(t *testing.T) {
	n := gaussianChain(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := LikelihoodWeightingParallel(ctx, n, 0, nil, 1_000_000, 4, stats.NewRNG(1))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}
