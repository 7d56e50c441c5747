package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// Dataset is a rectangular table of float64 observations. Column j of every
// row corresponds to Columns[j]; model builders additionally assume column
// order matches Bayesian-network node ids.
type Dataset struct {
	Columns []string
	Rows    [][]float64
}

// New creates an empty dataset with the given column names.
func New(columns []string) *Dataset {
	return &Dataset{Columns: append([]string(nil), columns...)}
}

// NumRows returns the number of rows.
func (d *Dataset) NumRows() int { return len(d.Rows) }

// NumCols returns the number of columns.
func (d *Dataset) NumCols() int { return len(d.Columns) }

// Append adds a row after checking its width.
func (d *Dataset) Append(row []float64) error {
	if len(row) != len(d.Columns) {
		return fmt.Errorf("dataset: row width %d != %d columns", len(row), len(d.Columns))
	}
	d.Rows = append(d.Rows, append([]float64(nil), row...))
	return nil
}

// Col returns a copy of column j.
func (d *Dataset) Col(j int) []float64 {
	out := make([]float64, len(d.Rows))
	for i, r := range d.Rows {
		out[i] = r[j]
	}
	return out
}

// Head returns a dataset view over the first n rows (shared backing rows).
func (d *Dataset) Head(n int) *Dataset {
	if n > len(d.Rows) {
		n = len(d.Rows)
	}
	return &Dataset{Columns: d.Columns, Rows: d.Rows[:n]}
}

// WriteCSV writes the dataset with a header row.
func (d *Dataset) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(d.Columns); err != nil {
		return err
	}
	rec := make([]string, len(d.Columns))
	for _, row := range d.Rows {
		for j, v := range row {
			rec[j] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a dataset written by WriteCSV.
func ReadCSV(r io.Reader) (*Dataset, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading header: %w", err)
	}
	d := New(header)
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: reading row %d: %w", len(d.Rows)+1, err)
		}
		row := make([]float64, len(rec))
		for j, s := range rec {
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return nil, fmt.Errorf("dataset: row %d col %d: %w", len(d.Rows)+1, j, err)
			}
			row[j] = v
		}
		if err := d.Append(row); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// Window is the sliding data window of the paper's Equation 1: the model
// (re)construction at each interval uses the data of the current interval
// plus the K−1 previous ones, i.e. at most Capacity = K·α_model points.
type Window struct {
	Columns  []string
	Capacity int
	rows     [][]float64
	start    int // ring-buffer start
	count    int
	// spare is the most recently evicted row's backing array, recycled as
	// the copy target of the next Push so a full window ingests rows with
	// zero steady-state allocations.
	spare []float64
}

// NewWindow creates a sliding window holding at most capacity rows.
func NewWindow(columns []string, capacity int) (*Window, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("dataset: window capacity must be positive, got %d", capacity)
	}
	return &Window{
		Columns:  append([]string(nil), columns...),
		Capacity: capacity,
		rows:     make([][]float64, capacity),
	}, nil
}

// Push appends a row, evicting the oldest when full. The evicted row (nil
// while the window is still filling) is returned so streaming accumulators
// can reverse-update their sufficient statistics for rows leaving the
// window.
//
// The evicted slice is valid only until the next Push: its backing array is
// recycled as the copy target of a later row, which is what makes
// steady-state ingest allocation-free. Callers that need the evicted row
// beyond the current call must copy it.
func (w *Window) Push(row []float64) (evicted []float64, err error) {
	if len(row) != len(w.Columns) {
		return nil, fmt.Errorf("dataset: row width %d != %d columns", len(row), len(w.Columns))
	}
	idx := (w.start + w.count) % w.Capacity
	if w.count == w.Capacity {
		evicted = w.rows[w.start]
		w.start = (w.start + 1) % w.Capacity
		idx = (w.start + w.count - 1) % w.Capacity
	}
	buf := w.spare
	w.spare = nil
	if cap(buf) >= len(row) {
		buf = buf[:len(row)]
	} else {
		buf = make([]float64, len(row))
	}
	copy(buf, row)
	w.rows[idx] = buf
	if w.count < w.Capacity {
		w.count++
	}
	// The evicted buffer becomes the next push's copy target — hence the
	// valid-until-next-Push contract on the returned slice.
	w.spare = evicted
	return evicted, nil
}

// Len returns the number of buffered rows.
func (w *Window) Len() int { return w.count }

// DropOldest removes up to n of the oldest buffered rows and returns them,
// oldest first — the same order Push evicts in, so streaming accumulators
// can reverse-update for each dropped row. Used by the drift-triggered
// reconstruction path, where data from before a detected change no longer
// describes the environment.
func (w *Window) DropOldest(n int) [][]float64 {
	if n > w.count {
		n = w.count
	}
	if n <= 0 {
		return nil
	}
	out := make([][]float64, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, w.rows[w.start])
		w.rows[w.start] = nil
		w.start = (w.start + 1) % w.Capacity
		w.count--
	}
	return out
}

// Snapshot copies the window contents, oldest first, into a Dataset.
func (w *Window) Snapshot() *Dataset {
	d := New(w.Columns)
	d.Rows = make([][]float64, 0, w.count)
	for i := 0; i < w.count; i++ {
		d.Rows = append(d.Rows, append([]float64(nil), w.rows[(w.start+i)%w.Capacity]...))
	}
	return d
}
