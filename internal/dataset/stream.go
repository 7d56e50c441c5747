package dataset

import (
	"fmt"
	"sync"
)

// Accumulator maintains sufficient statistics over data rows. AddRow folds
// a row in; RemoveRow reverse-updates for a row leaving the sliding window.
// Implementations live in higher layers (learn.TabularStats, learn.LGStats
// and the per-model adapters in core); dataset only routes rows to them.
type Accumulator interface {
	AddRow(row []float64) error
	RemoveRow(row []float64) error
}

// Stream couples a sliding Window with a registry of accumulators that are
// kept in lockstep with the window contents: every Push feeds the new row
// to all bound accumulators and reverse-feeds the evicted row, so at any
// instant the accumulators summarize exactly the rows in the window.
//
// Accumulators are bound under a structure hash (workflow DAG + variable
// specs + discretization, computed by the model layer). Re-binding with a
// different hash discards the old accumulators and replays the buffered
// window into fresh ones — the invalidation path for when the network
// shape changes. All methods are safe for concurrent use; View lets a
// rebuild read accumulator state while ingest continues on other
// goroutines without a torn read.
type Stream struct {
	mu   sync.Mutex
	win  *Window
	hash uint64
	accs []Accumulator
}

// NewStream creates a stream over a sliding window of at most capacity
// rows with the given column names.
func NewStream(columns []string, capacity int) (*Stream, error) {
	w, err := NewWindow(columns, capacity)
	if err != nil {
		return nil, err
	}
	return &Stream{win: w}, nil
}

// Push buffers a row and updates every bound accumulator: the evicted row
// (if the window was full) is removed first, then the new row is added, so
// accumulator N never exceeds the window capacity.
func (s *Stream) Push(row []float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	evicted, err := s.win.Push(row)
	if err != nil {
		return err
	}
	for _, a := range s.accs {
		if evicted != nil {
			if err := a.RemoveRow(evicted); err != nil {
				return fmt.Errorf("dataset: accumulator remove: %w", err)
			}
		}
		if err := a.AddRow(row); err != nil {
			return fmt.Errorf("dataset: accumulator add: %w", err)
		}
	}
	return nil
}

// Bind installs the accumulators for a model structure identified by hash.
// If the stream is already bound to the same hash the call is a no-op and
// reports rebuilt == false. Otherwise build() is invoked for a fresh set,
// the buffered window is replayed into it row by row (oldest first, the
// same order Push would have used), and rebuilt == true is reported —
// callers count these as invalidation events.
func (s *Stream) Bind(hash uint64, build func() ([]Accumulator, error)) (rebuilt bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.accs != nil && s.hash == hash {
		return false, nil
	}
	accs, err := build()
	if err != nil {
		return false, err
	}
	for i := 0; i < s.win.Len(); i++ {
		row := s.win.rows[(s.win.start+i)%s.win.Capacity]
		for _, a := range accs {
			if err := a.AddRow(row); err != nil {
				return false, fmt.Errorf("dataset: replaying window row %d: %w", i, err)
			}
		}
	}
	s.accs, s.hash = accs, hash
	return true, nil
}

// Truncate drops all but the newest keep rows from the window,
// reverse-updating every bound accumulator for each dropped row (oldest
// first, the order eviction uses), and reports how many rows were dropped.
// After Truncate the accumulators still summarize exactly the buffered
// rows. This is the drift-recovery path: a detected environmental change
// invalidates data older than the change, so the window shrinks and
// refills with fresh traffic.
func (s *Stream) Truncate(keep int) (dropped int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if keep < 0 {
		keep = 0
	}
	rows := s.win.DropOldest(s.win.Len() - keep)
	for _, row := range rows {
		for _, a := range s.accs {
			if err := a.RemoveRow(row); err != nil {
				return len(rows), fmt.Errorf("dataset: accumulator remove on truncate: %w", err)
			}
		}
	}
	return len(rows), nil
}

// Bound reports whether accumulators are installed and under which hash.
func (s *Stream) Bound() (hash uint64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hash, s.accs != nil
}

// View runs f under the stream lock, excluding concurrent Push/Bind, so a
// rebuild can read consistent accumulator state (via references retained
// from its build closure) while ingest continues on other goroutines. f
// reads the buffered rows through the window it is passed; it must not
// call the stream's own methods, which take the lock f runs under.
func (s *Stream) View(f func(w *Window) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return f(s.win)
}

// Len returns the number of buffered rows.
func (s *Stream) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.win.Len()
}

// Snapshot copies the buffered rows, oldest first — the input of a batch
// rebuild over the window and the replay source for re-binding.
func (s *Stream) Snapshot() *Dataset {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.win.Snapshot()
}
