package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"kertbn/internal/stats"
)

// edKERT builds a continuous eDiaMoND KERT-BN model (Monte-Carlo inference
// path, since the workflow's max() is nonlinear).
func edKERT(t *testing.T) *Model {
	t.Helper()
	sys, train := edData(t, 300, 11)
	m, err := BuildKERT(DefaultKERTConfig(sys.Workflow), train)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestBatchOneRowMatchesSingleQuery is the batch determinism contract: a
// one-row batch must reproduce the single-query path bit-for-bit, because
// row 0 draws from RNG.Split(0).
func TestBatchOneRowMatchesSingleQuery(t *testing.T) {
	m := edKERT(t)
	ev := map[int]float64{0: 0.3, m.DNode: 1.2}
	const samples = 5000
	batch, err := PosteriorBatch(context.Background(), m,
		[]Query{{Target: 3, Evidence: ev}},
		BatchOptions{NSamples: samples, Workers: 4, RNG: stats.NewRNG(99)})
	if err != nil {
		t.Fatal(err)
	}
	single, err := posteriorForNode(m, 3, ev, samples, 1, stats.NewRNG(99).Split(0), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch[0].Support) != len(single.Support) {
		t.Fatalf("support sizes differ: %d vs %d", len(batch[0].Support), len(single.Support))
	}
	for i := range single.Support {
		if batch[0].Support[i] != single.Support[i] || batch[0].Probs[i] != single.Probs[i] {
			t.Fatalf("row 0 differs from single query at %d", i)
		}
	}
}

func TestBatchDeterministicAcrossWorkers(t *testing.T) {
	m := edKERT(t)
	queries := make([]Query, 6)
	for i := range queries {
		queries[i] = Query{Target: i, Evidence: map[int]float64{m.DNode: 1.0}}
	}
	run := func(workers int) []*Posterior {
		out, err := PosteriorBatch(context.Background(), m, queries,
			BatchOptions{NSamples: 2000, Workers: workers, RNG: stats.NewRNG(5)})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	ref := run(1)
	for _, workers := range []int{2, 4} {
		got := run(workers)
		for r := range ref {
			for i := range ref[r].Probs {
				if got[r].Probs[i] != ref[r].Probs[i] {
					t.Fatalf("workers=%d: row %d differs from workers=1", workers, r)
				}
			}
		}
	}
}

func TestBatchEmpty(t *testing.T) {
	m := edKERT(t)
	out, err := PosteriorBatch(context.Background(), m, nil, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("empty batch returned %d rows", len(out))
	}
}

func TestBatchRowErrorCarriesIndex(t *testing.T) {
	m := edKERT(t)
	queries := []Query{
		{Target: 0, Evidence: map[int]float64{m.DNode: 1.0}},
		{Target: 99, Evidence: nil}, // out of range
	}
	_, err := PosteriorBatch(context.Background(), m, queries, BatchOptions{NSamples: 500})
	if err == nil {
		t.Fatal("bad row should fail the batch")
	}
	if !strings.Contains(err.Error(), "row 1") {
		t.Fatalf("error should name the failing row: %v", err)
	}
}

func TestBatchCancellationMidBatch(t *testing.T) {
	m := edKERT(t)
	queries := make([]Query, 64)
	for i := range queries {
		queries[i] = Query{Target: i % m.NumServices, Evidence: map[int]float64{m.DNode: 1.0}}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := PosteriorBatch(ctx, m, queries, BatchOptions{NSamples: 20000, Workers: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}
