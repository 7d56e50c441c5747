package stats

import (
	"math"
	"testing"
)

// A NaN observation must not poison the moments or extremes; it is skipped
// and counted instead.
func TestSummaryNaNSkipAndCount(t *testing.T) {
	s := NewSummary()
	s.Add(1)
	s.Add(math.NaN())
	s.Add(3)
	if s.N != 2 || s.NaNs != 1 {
		t.Fatalf("N=%d NaNs=%d, want 2/1", s.N, s.NaNs)
	}
	if s.Mean() != 2 {
		t.Fatalf("mean %g, want 2 (NaN must be skipped)", s.Mean())
	}
	if math.IsNaN(s.Variance()) || math.IsNaN(s.Min) || math.IsNaN(s.Max) {
		t.Fatalf("NaN leaked into moments/extremes: var=%g min=%g max=%g", s.Variance(), s.Min, s.Max)
	}
	if s.Min != 1 || s.Max != 3 {
		t.Fatalf("min/max %g/%g, want 1/3", s.Min, s.Max)
	}
	// Summarize obeys the same contract.
	s2 := Summarize([]float64{math.NaN(), 5, math.NaN()})
	if s2.N != 1 || s2.NaNs != 2 || s2.Mean() != 5 {
		t.Fatalf("Summarize skip-and-count broken: %+v", s2)
	}
}

// Remove must invert Add on the moments (sliding-window accumulators).
func TestSummaryRemove(t *testing.T) {
	rng := NewRNG(7)
	s := NewSummary()
	window := make([]float64, 0, 64)
	for i := 0; i < 500; i++ {
		x := rng.Normal(3, 2)
		window = append(window, x)
		s.Add(x)
		if len(window) > 32 {
			s.Remove(window[0])
			window = window[1:]
		}
		want := Summarize(window)
		if math.Abs(s.Mean()-want.Mean()) > 1e-9 || math.Abs(s.Variance()-want.Variance()) > 1e-9 {
			t.Fatalf("step %d: incremental mean/var %g/%g drifted from %g/%g",
				i, s.Mean(), s.Variance(), want.Mean(), want.Variance())
		}
	}
	// Removing down to empty resets the moments exactly.
	e := NewSummary()
	e.Add(42)
	e.Remove(42)
	if e.N != 0 || e.Mean() != 0 || e.Variance() != 0 {
		t.Fatalf("remove-to-empty left residue: %+v", e)
	}
	// Removing a NaN decrements only the NaN counter.
	e.Add(math.NaN())
	e.Remove(math.NaN())
	if e.NaNs != 0 {
		t.Fatalf("NaN remove: NaNs=%d, want 0", e.NaNs)
	}
}

func TestSummaryRemoveEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on Remove from empty summary")
		}
	}()
	NewSummary().Remove(1)
}
