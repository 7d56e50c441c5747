package core

import (
	"testing"
	"time"

	"kertbn/internal/dataset"
	"kertbn/internal/simsvc"
	"kertbn/internal/stats"
)

// TestIncrementalKERTTruncateEquivalence: after TruncateWindow the
// accumulators must still summarize exactly the buffered rows, so an
// incremental Build matches a from-scratch BuildKERT over the truncated
// snapshot — for both model types.
func TestIncrementalKERTTruncateEquivalence(t *testing.T) {
	sys := simsvc.EDiaMoNDSystem()
	root := stats.NewRNG(77)
	for _, mt := range []ModelType{ContinuousModel, DiscreteModel} {
		cfg := DefaultKERTConfig(sys.Workflow)
		cfg.Type = mt
		if mt == DiscreteModel {
			cfg.Bins = 5
		}
		const window = 160
		ik, err := NewIncrementalKERT(cfg, window)
		if err != nil {
			t.Fatalf("%v: %v", mt, err)
		}
		data, err := sys.GenerateDataset(window+40, root.Split(uint64(mt)))
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range data.Rows {
			if err := ik.Ingest(row); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := ik.Build(); err != nil { // bind accumulators
			t.Fatal(err)
		}
		dropped, err := ik.TruncateWindow(50)
		if err != nil {
			t.Fatalf("%v: truncate: %v", mt, err)
		}
		if dropped != window-50 {
			t.Fatalf("%v: dropped %d rows, want %d", mt, dropped, window-50)
		}
		if got := ik.Len(); got != 50 {
			t.Fatalf("%v: window holds %d rows after truncate, want 50", mt, got)
		}
		inc, err := ik.Build()
		if err != nil {
			t.Fatalf("%v: build after truncate: %v", mt, err)
		}
		full, err := BuildKERT(ik.Config(), ik.Snapshot())
		if err != nil {
			t.Fatalf("%v: reference build: %v", mt, err)
		}
		diff, err := MaxParamDiff(inc, full)
		if err != nil {
			t.Fatal(err)
		}
		if diff > 1e-9 {
			t.Errorf("%v: incremental-vs-full param diff %g after truncation, want <= 1e-9", mt, diff)
		}
	}
}

// TestDriftRebuildTruncatesWindow: a drift-forced reconstruction must
// shrink the training window to one construction interval (K collapses to
// 1) so post-change traffic dominates subsequent rebuilds.
func TestDriftRebuildTruncatesWindow(t *testing.T) {
	builder := func(w *dataset.Dataset) (*Model, error) { return &Model{}, nil }
	cfg := ScheduleConfig{TData: time.Second, Alpha: 5, K: 3}
	wb := newWindowBuilder(t, cfg, []string{"x", "D"}, builder)
	s, err := NewSchedulerIncremental(cfg, wb)
	if err != nil {
		t.Fatal(err)
	}
	policy := &stubPolicy{alarmAt: 8} // 8th observed row raises the alarm
	if err := s.SetHealthPolicy(policy, true); err != nil {
		t.Fatal(err)
	}
	// Two cadence intervals fill the window to 10 rows, then 3 more rows;
	// the 8th observed row (13th pushed) trips the drift rebuild.
	for i := 0; i < 13; i++ {
		if _, err := s.Push([]float64{1, 2}); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.DriftRebuilds(); got != 1 {
		t.Fatalf("DriftRebuilds() = %d, want 1", got)
	}
	if got := s.WindowLen(); got != cfg.Alpha {
		t.Errorf("window holds %d rows after drift rebuild, want α = %d", got, cfg.Alpha)
	}
	if wb.invalidations != 1 {
		t.Errorf("drift rebuild invalidated the builder's structure %d times, want 1", wb.invalidations)
	}
	// The window refills normally afterwards.
	for i := 0; i < 12; i++ {
		if _, err := s.Push([]float64{1, 2}); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := s.WindowLen(), cfg.WindowPoints(); got != want {
		t.Errorf("window holds %d rows after refill, want %d", got, want)
	}
}
