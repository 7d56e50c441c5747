package linalg

import "fmt"

// Constructors and a matrix-vector product the tests build their inputs
// and expected values with.

// FromRows builds a matrix from row slices. All rows must have equal length.
func FromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 {
		return NewMatrix(0, 0), nil
	}
	c := len(rows[0])
	m := NewMatrix(len(rows), c)
	for i, row := range rows {
		if len(row) != c {
			return nil, fmt.Errorf("linalg: ragged rows: row 0 has %d cols, row %d has %d", c, i, len(row))
		}
		copy(m.Data[i*c:(i+1)*c], row)
	}
	return m, nil
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// MulVec returns m·v.
func (m *Matrix) MulVec(v []float64) ([]float64, error) {
	if m.Cols != len(v) {
		return nil, fmt.Errorf("linalg: dimension mismatch %dx%d * vec(%d)", m.Rows, m.Cols, len(v))
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		s := 0.0
		for j, rv := range row {
			s += rv * v[j]
		}
		out[i] = s
	}
	return out, nil
}
