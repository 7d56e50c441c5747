package dataset

import (
	"sync"
	"testing"
)

// sumAcc is a toy accumulator: the running sum of column 0 over the window.
type sumAcc struct {
	sum  float64
	rows int
}

func (a *sumAcc) AddRow(row []float64) error    { a.sum += row[0]; a.rows++; return nil }
func (a *sumAcc) RemoveRow(row []float64) error { a.sum -= row[0]; a.rows--; return nil }

func TestStreamKeepsAccumulatorsInLockstep(t *testing.T) {
	s, err := NewStream([]string{"v"}, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Rows pushed before binding are replayed into the fresh accumulators.
	for i := 1; i <= 3; i++ {
		if err := s.Push([]float64{float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	acc := &sumAcc{}
	rebuilt, err := s.Bind(42, func() ([]Accumulator, error) { return []Accumulator{acc}, nil })
	if err != nil || !rebuilt {
		t.Fatalf("first Bind: rebuilt=%v err=%v", rebuilt, err)
	}
	if acc.sum != 6 || acc.rows != 3 {
		t.Fatalf("replay gave sum=%g rows=%d, want 6/3", acc.sum, acc.rows)
	}
	// Same hash: no-op, accumulators untouched.
	other := &sumAcc{}
	rebuilt, err = s.Bind(42, func() ([]Accumulator, error) { return []Accumulator{other}, nil })
	if err != nil || rebuilt {
		t.Fatalf("re-Bind with same hash: rebuilt=%v err=%v", rebuilt, err)
	}
	// Eviction reverse-updates: window holds {2,3,4,5} → sum 14.
	s.Push([]float64{4})
	s.Push([]float64{5})
	if acc.sum != 14 || acc.rows != 4 {
		t.Fatalf("after eviction sum=%g rows=%d, want 14/4", acc.sum, acc.rows)
	}
	// New hash invalidates: the replacement is replayed from the window.
	rebuilt, err = s.Bind(43, func() ([]Accumulator, error) { return []Accumulator{other}, nil })
	if err != nil || !rebuilt {
		t.Fatalf("Bind with new hash: rebuilt=%v err=%v", rebuilt, err)
	}
	if other.sum != 14 || other.rows != 4 {
		t.Fatalf("invalidation replay sum=%g rows=%d, want 14/4", other.sum, other.rows)
	}
	if h, ok := s.Bound(); !ok || h != 43 {
		t.Fatalf("Bound() = (%d,%v), want (43,true)", h, ok)
	}
}

// Concurrent pushers and viewers must not race (run under -race) and the
// accumulator must end exactly consistent with the window contents.
func TestStreamConcurrentIngestAndView(t *testing.T) {
	const capacity, pushers, perPusher = 64, 4, 500
	s, err := NewStream([]string{"v"}, capacity)
	if err != nil {
		t.Fatal(err)
	}
	acc := &sumAcc{}
	if _, err := s.Bind(1, func() ([]Accumulator, error) { return []Accumulator{acc}, nil }); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for p := 0; p < pushers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perPusher; i++ {
				if err := s.Push([]float64{1}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	// A concurrent reader takes consistent views while ingest runs.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			s.View(func(w *Window) error {
				if acc.rows != w.Len() {
					t.Errorf("torn view: acc rows %d != window len %d", acc.rows, w.Len())
				}
				return nil
			})
		}
	}()
	wg.Wait()
	if acc.rows != capacity || acc.sum != float64(capacity) {
		t.Fatalf("final accumulator rows=%d sum=%g, want %d/%d", acc.rows, acc.sum, capacity, capacity)
	}
	if got := s.Snapshot().NumRows(); got != capacity {
		t.Fatalf("snapshot rows %d, want %d", got, capacity)
	}
}

// TestStreamTruncate: dropping the oldest rows must reverse-update bound
// accumulators so they keep summarizing exactly the buffered window, must
// preserve FIFO order (oldest rows leave first), and must keep the ring
// consistent for subsequent pushes.
func TestStreamTruncate(t *testing.T) {
	s, err := NewStream([]string{"v"}, 6)
	if err != nil {
		t.Fatal(err)
	}
	acc := &sumAcc{}
	if _, err := s.Bind(1, func() ([]Accumulator, error) { return []Accumulator{acc}, nil }); err != nil {
		t.Fatal(err)
	}
	// Push 8 rows through a 6-row window: contents {3..8}, sum 33.
	for i := 1; i <= 8; i++ {
		if err := s.Push([]float64{float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	dropped, err := s.Truncate(2) // keep {7,8}
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 4 {
		t.Fatalf("dropped %d rows, want 4", dropped)
	}
	if s.Len() != 2 || acc.rows != 2 || acc.sum != 15 {
		t.Fatalf("after truncate len=%d acc={sum %g rows %d}, want 2/{15 2}", s.Len(), acc.sum, acc.rows)
	}
	snap := s.Snapshot()
	if snap.Rows[0][0] != 7 || snap.Rows[1][0] != 8 {
		t.Fatalf("kept rows %v, want newest {7,8} oldest-first", snap.Rows)
	}
	// The ring stays usable: refill past capacity again.
	for i := 9; i <= 14; i++ {
		if err := s.Push([]float64{float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 6 || acc.rows != 6 {
		t.Fatalf("after refill len=%d acc rows=%d, want 6/6", s.Len(), acc.rows)
	}
	want := 9.0 + 10 + 11 + 12 + 13 + 14
	if acc.sum != want {
		t.Fatalf("refilled sum %g, want %g", acc.sum, want)
	}
	// Truncating below zero or beyond the window is clamped, not an error.
	if n, err := s.Truncate(100); err != nil || n != 0 {
		t.Fatalf("over-keep truncate: dropped=%d err=%v, want 0/nil", n, err)
	}
	if n, err := s.Truncate(-1); err != nil || n != 6 {
		t.Fatalf("negative keep: dropped=%d err=%v, want 6/nil", n, err)
	}
	if s.Len() != 0 || acc.rows != 0 || acc.sum != 0 {
		t.Fatalf("after full truncate len=%d acc={%g %d}, want empty", s.Len(), acc.sum, acc.rows)
	}
}
