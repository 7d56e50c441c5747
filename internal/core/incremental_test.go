package core

import (
	"sync"
	"testing"
	"time"

	"kertbn/internal/simsvc"
	"kertbn/internal/stats"
)

// The headline guarantee: after streaming (with evictions) the incremental
// build must match a from-scratch BuildKERT over the same window contents
// within 1e-9, on the system sizes the Fig. 3/4/5 experiments use.
func TestIncrementalKERTContinuousEquivalence(t *testing.T) {
	for _, services := range []int{10, 30, 60} {
		rng := stats.NewRNG(uint64(services))
		sys, err := simsvc.RandomSystem(services, simsvc.DefaultRandomSystemOptions(), rng)
		if err != nil {
			t.Fatal(err)
		}
		const window = 120
		ik, err := NewIncrementalKERT(DefaultKERTConfig(sys.Workflow), window)
		if err != nil {
			t.Fatal(err)
		}
		// Stream 3 windows' worth so eviction reverse-updates are exercised,
		// rebuilding at several points along the way.
		data, err := sys.GenerateDataset(3*window, rng)
		if err != nil {
			t.Fatal(err)
		}
		for i, row := range data.Rows {
			if err := ik.Ingest(row); err != nil {
				t.Fatal(err)
			}
			if i != window-1 && i != 2*window-1 && i != len(data.Rows)-1 {
				continue
			}
			inc, err := ik.Build()
			if err != nil {
				t.Fatal(err)
			}
			full, err := BuildKERT(DefaultKERTConfig(sys.Workflow), ik.Snapshot())
			if err != nil {
				t.Fatal(err)
			}
			diff, err := MaxParamDiff(inc, full)
			if err != nil {
				t.Fatal(err)
			}
			if diff > 1e-9 {
				t.Fatalf("services=%d row=%d: incremental vs full param diff %g > 1e-9", services, i, diff)
			}
		}
	}
}

// A continuous model with Leak > 0 and the leak range left unpinned
// derives that range from the buffered rows inside the build, which runs
// under the stream lock. The build must return (it reads the window it
// holds the lock for) and match a from-scratch BuildKERT within 1e-9.
func TestIncrementalKERTContinuousLeakEquivalence(t *testing.T) {
	sys := simsvc.EDiaMoNDSystem()
	rng := stats.NewRNG(31)
	cfg := DefaultKERTConfig(sys.Workflow)
	cfg.Leak = 0.05
	const window = 120
	ik, err := NewIncrementalKERT(cfg, window)
	if err != nil {
		t.Fatal(err)
	}
	data, err := sys.GenerateDataset(2*window+17, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range data.Rows {
		if err := ik.Ingest(row); err != nil {
			t.Fatal(err)
		}
		if i != window-1 && i != len(data.Rows)-1 {
			continue
		}
		type built struct {
			m   *Model
			err error
		}
		done := make(chan built, 1)
		go func() {
			m, err := ik.Build()
			done <- built{m, err}
		}()
		var inc *Model
		select {
		case b := <-done:
			if b.err != nil {
				t.Fatal(b.err)
			}
			inc = b.m
		case <-time.After(10 * time.Second):
			t.Fatalf("row %d: IncrementalKERT.Build did not return within 10s (leak range read deadlocked on the stream lock)", i)
		}
		full, err := BuildKERT(cfg, ik.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		diff, err := MaxParamDiff(inc, full)
		if err != nil {
			t.Fatal(err)
		}
		if diff > 1e-9 {
			t.Fatalf("row %d: incremental vs full param diff %g > 1e-9", i, diff)
		}
	}
}

// Discrete models: with the codec frozen by the first incremental build,
// count-based refits and the pooled Monte-Carlo D-CPT must reproduce a full
// BuildKERT (given the same codec) exactly.
func TestIncrementalKERTDiscreteEquivalence(t *testing.T) {
	sys := simsvc.EDiaMoNDSystem()
	rng := stats.NewRNG(9)
	cfg := DefaultKERTConfig(sys.Workflow)
	cfg.Type = DiscreteModel
	cfg.Bins = 4
	cfg.Leak = 0.02
	const window = 150
	ik, err := NewIncrementalKERT(cfg, window)
	if err != nil {
		t.Fatal(err)
	}
	data, err := sys.GenerateDataset(2*window+37, rng)
	if err != nil {
		t.Fatal(err)
	}
	var built bool
	for i, row := range data.Rows {
		if err := ik.Ingest(row); err != nil {
			t.Fatal(err)
		}
		if i != window-1 && i != len(data.Rows)-1 {
			continue
		}
		inc, err := ik.Build()
		if err != nil {
			t.Fatal(err)
		}
		built = true
		// The reference build shares the frozen codec — the geometry the
		// accumulators were counted under.
		refCfg := ik.Config()
		full, err := BuildKERT(refCfg, ik.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		diff, err := MaxParamDiff(inc, full)
		if err != nil {
			t.Fatal(err)
		}
		if diff != 0 {
			t.Fatalf("row %d: discrete incremental vs full param diff %g, want bit-identical", i, diff)
		}
	}
	if !built {
		t.Fatal("no builds exercised")
	}
}

// The LearnDCPD ablation path (D's CPD learned like any other) must also
// hold the equivalence.
func TestIncrementalKERTLearnDCPDEquivalence(t *testing.T) {
	sys := simsvc.EDiaMoNDSystem()
	rng := stats.NewRNG(21)
	cfg := DefaultKERTConfig(sys.Workflow)
	cfg.LearnDCPD = true
	const window = 90
	ik, err := NewIncrementalKERT(cfg, window)
	if err != nil {
		t.Fatal(err)
	}
	data, err := sys.GenerateDataset(2*window, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range data.Rows {
		if err := ik.Ingest(row); err != nil {
			t.Fatal(err)
		}
	}
	inc, err := ik.Build()
	if err != nil {
		t.Fatal(err)
	}
	full, err := BuildKERT(cfg, ik.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	diff, err := MaxParamDiff(inc, full)
	if err != nil {
		t.Fatal(err)
	}
	if diff > 1e-9 {
		t.Fatalf("LearnDCPD incremental vs full param diff %g > 1e-9", diff)
	}
}

// Monitor rows arriving concurrently with incremental rebuilds must be
// race-free (run with -race) and leave the accumulators exactly consistent
// with the window.
func TestIncrementalKERTConcurrentIngest(t *testing.T) {
	sys := simsvc.EDiaMoNDSystem()
	rng := stats.NewRNG(13)
	const window = 80
	ik, err := NewIncrementalKERT(DefaultKERTConfig(sys.Workflow), window)
	if err != nil {
		t.Fatal(err)
	}
	seed, err := sys.GenerateDataset(window, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range seed.Rows {
		if err := ik.Ingest(row); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ik.Build(); err != nil { // bind accumulators before the storm
		t.Fatal(err)
	}
	const feeders = 4
	var wg sync.WaitGroup
	for f := 0; f < feeders; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			frng := stats.NewRNG(100 + uint64(f))
			batch, err := sys.GenerateDataset(150, frng)
			if err != nil {
				t.Error(err)
				return
			}
			for _, row := range batch.Rows {
				if err := ik.Ingest(row); err != nil {
					t.Error(err)
					return
				}
			}
		}(f)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if _, err := ik.Build(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	// After the dust settles the accumulators must still match the window.
	inc, err := ik.Build()
	if err != nil {
		t.Fatal(err)
	}
	full, err := BuildKERT(DefaultKERTConfig(sys.Workflow), ik.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	diff, err := MaxParamDiff(inc, full)
	if err != nil {
		t.Fatal(err)
	}
	if diff > 1e-9 {
		t.Fatalf("post-concurrency param diff %g > 1e-9", diff)
	}
}

// The scheduler's incremental mode must rebuild on the same cadence as the
// full-refit mode and report window length through the builder.
func TestSchedulerIncremental(t *testing.T) {
	sys := simsvc.EDiaMoNDSystem()
	rng := stats.NewRNG(2)
	cfg := ScheduleConfig{TData: time.Millisecond, Alpha: 25, K: 3}
	ik, err := NewIncrementalKERT(DefaultKERTConfig(sys.Workflow), cfg.WindowPoints())
	if err != nil {
		t.Fatal(err)
	}
	sched, err := NewSchedulerIncremental(cfg, ik)
	if err != nil {
		t.Fatal(err)
	}
	data, err := sys.GenerateDataset(100, rng)
	if err != nil {
		t.Fatal(err)
	}
	var rebuilds int
	for _, row := range data.Rows {
		m, err := sched.Push(row)
		if err != nil {
			t.Fatal(err)
		}
		if m != nil {
			rebuilds++
			if m.Net == nil || m.DNode != 6 {
				t.Fatal("scheduler returned malformed model")
			}
		}
	}
	if rebuilds != 4 {
		t.Fatalf("rebuilds = %d, want 4 (100 rows / α=25)", rebuilds)
	}
	if sched.Rebuilds() != 4 || sched.WindowLen() != 75 {
		t.Fatalf("scheduler state: rebuilds=%d windowLen=%d", sched.Rebuilds(), sched.WindowLen())
	}
	if sched.Model() == nil {
		t.Fatal("scheduler lost its model")
	}
}
