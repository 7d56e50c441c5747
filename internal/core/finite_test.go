package core

import (
	"math"
	"strings"
	"testing"
	"time"

	"kertbn/internal/dataset"
)

// TestNonFiniteRowRefused: a NaN or infinite measurement is refused where
// rows enter a model — BuildKERT, IncrementalKERT.Ingest (by its window),
// and Scheduler.Push before the health policy scores the row — with an
// error naming its column, and nothing of the row is ingested or scored.
func TestNonFiniteRowRefused(t *testing.T) {
	sys, data := edData(t, 300, 3)
	cfg := DefaultKERTConfig(sys.Workflow)
	cfg.Type = DiscreteModel
	cfg.Bins = 6
	const col = 2
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		row := append([]float64(nil), data.Rows[7]...)
		row[col] = bad

		train := &dataset.Dataset{Columns: data.Columns, Rows: append(append([][]float64(nil), data.Rows[:299]...), row)}
		if _, err := BuildKERT(cfg, train); err == nil || !strings.Contains(err.Error(), data.Columns[col]) {
			t.Errorf("BuildKERT with %v in %q: err = %v, want one naming the column", bad, data.Columns[col], err)
		}

		ik, err := NewIncrementalKERT(cfg, 300)
		if err != nil {
			t.Fatal(err)
		}
		if err := ik.Ingest(row); err == nil || !strings.Contains(err.Error(), data.Columns[col]) {
			t.Errorf("Ingest with %v in %q: err = %v, want one naming the column", bad, data.Columns[col], err)
		}
		if ik.Len() != 0 {
			t.Errorf("Ingest kept a row holding %v", bad)
		}

		scfg := ScheduleConfig{TData: time.Second, Alpha: 50, K: 2}
		s, err := NewSchedulerIncremental(scfg, ik)
		if err != nil {
			t.Fatal(err)
		}
		policy := &stubPolicy{}
		if err := s.SetHealthPolicy(policy, false); err != nil {
			t.Fatal(err)
		}
		for _, r := range data.Rows[:scfg.Alpha] {
			if _, err := s.Push(r); err != nil {
				t.Fatal(err)
			}
		}
		if s.Model() == nil {
			t.Fatal("no model deployed after α rows")
		}
		observed, window := policy.observed, s.WindowLen()
		if _, err := s.Push(row); err == nil || !strings.Contains(err.Error(), "column 2") {
			t.Errorf("Push with %v in column %d: err = %v, want one naming the column", bad, col, err)
		}
		if policy.observed != observed || s.WindowLen() != window {
			t.Errorf("Push of a row holding %v: health observed %d → %d rows, window %d → %d; want both unchanged",
				bad, observed, policy.observed, window, s.WindowLen())
		}
	}
}
