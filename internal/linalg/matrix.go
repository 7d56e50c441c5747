package linalg

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// Matrix is a dense, row-major matrix of float64.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewMatrix returns a zeroed r×c matrix.
func NewMatrix(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("linalg: negative dimension %dx%d", r, c))
	}
	return &Matrix{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 {
	m.check(i, j)
	return m.Data[i*m.Cols+j]
}

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) {
	m.check(i, j)
	m.Data[i*m.Cols+j] = v
}

// Add increments element (i, j) by v.
func (m *Matrix) Add(i, j int, v float64) {
	m.check(i, j)
	m.Data[i*m.Cols+j] += v
}

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("linalg: index (%d,%d) out of bounds %dx%d", i, j, m.Rows, m.Cols))
	}
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Row returns a copy of row i.
func (m *Matrix) Row(i int) []float64 {
	out := make([]float64, m.Cols)
	copy(out, m.Data[i*m.Cols:(i+1)*m.Cols])
	return out
}

// T returns the transpose of m as a new matrix.
func (m *Matrix) T() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Data[j*t.Cols+i] = m.Data[i*m.Cols+j]
		}
	}
	return t
}

// Mul returns the matrix product a*b.
func Mul(a, b *Matrix) (*Matrix, error) {
	if a.Cols != b.Rows {
		return nil, fmt.Errorf("linalg: dimension mismatch %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	out := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		orow := out.Data[i*out.Cols : (i+1)*out.Cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out, nil
}

// SubMat returns a-b.
func SubMat(a, b *Matrix) (*Matrix, error) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return nil, fmt.Errorf("linalg: dimension mismatch %dx%d - %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	out := NewMatrix(a.Rows, a.Cols)
	for i := range a.Data {
		out.Data[i] = a.Data[i] - b.Data[i]
	}
	return out, nil
}

// Submatrix extracts the rows and columns listed (in order) into a new matrix.
func (m *Matrix) Submatrix(rows, cols []int) *Matrix {
	out := NewMatrix(len(rows), len(cols))
	for i, r := range rows {
		for j, c := range cols {
			out.Data[i*out.Cols+j] = m.At(r, c)
		}
	}
	return out
}

// Symmetrize averages m with its transpose in place (m must be square).
func (m *Matrix) Symmetrize() {
	if m.Rows != m.Cols {
		panic("linalg: Symmetrize on non-square matrix")
	}
	for i := 0; i < m.Rows; i++ {
		for j := i + 1; j < m.Cols; j++ {
			v := 0.5 * (m.At(i, j) + m.At(j, i))
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Matrix %dx%d\n", m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			fmt.Fprintf(&b, "% 10.5g ", m.At(i, j))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ErrNotPositiveDefinite is returned by Cholesky when the input matrix is
// not (numerically) positive definite.
var ErrNotPositiveDefinite = errors.New("linalg: matrix is not positive definite")

// Cholesky computes the lower-triangular factor L with A = L*Lᵀ.
// A must be square and symmetric positive definite.
func Cholesky(a *Matrix) (*Matrix, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("linalg: Cholesky of non-square %dx%d matrix", a.Rows, a.Cols)
	}
	n := a.Rows
	l := NewMatrix(n, n)
	for j := 0; j < n; j++ {
		d := a.At(j, j)
		for k := 0; k < j; k++ {
			ljk := l.At(j, k)
			d -= ljk * ljk
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, ErrNotPositiveDefinite
		}
		ljj := math.Sqrt(d)
		l.Set(j, j, ljj)
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			l.Set(i, j, s/ljj)
		}
	}
	return l, nil
}

// CholSolve solves A x = b given the Cholesky factor L of A.
func CholSolve(l *Matrix, b []float64) ([]float64, error) {
	n := l.Rows
	if len(b) != n {
		return nil, fmt.Errorf("linalg: CholSolve dimension mismatch %d vs %d", n, len(b))
	}
	// Forward solve L y = b.
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= l.At(i, k) * y[k]
		}
		y[i] = s / l.At(i, i)
	}
	// Back solve Lᵀ x = y.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= l.At(k, i) * x[k]
		}
		x[i] = s / l.At(i, i)
	}
	return x, nil
}

// SolveSPD solves A x = b for symmetric positive-definite A.
// If A is singular or indefinite it retries with a small ridge on the
// diagonal before giving up, which is the behaviour parameter learning
// wants when a regressor column is (nearly) constant.
func SolveSPD(a *Matrix, b []float64) ([]float64, error) {
	l, err := Cholesky(a)
	if err != nil {
		ridge := 1e-9
		for attempt := 0; attempt < 8; attempt++ {
			ar := a.Clone()
			for i := 0; i < ar.Rows; i++ {
				ar.Add(i, i, ridge*math.Max(1, math.Abs(a.At(i, i))))
			}
			if l, err = Cholesky(ar); err == nil {
				break
			}
			ridge *= 100
		}
		if err != nil {
			return nil, err
		}
	}
	return CholSolve(l, b)
}

// InverseSPD returns the inverse of a symmetric positive-definite matrix.
func InverseSPD(a *Matrix) (*Matrix, error) {
	l, err := Cholesky(a)
	if err != nil {
		return nil, err
	}
	n := a.Rows
	inv := NewMatrix(n, n)
	e := make([]float64, n)
	for j := 0; j < n; j++ {
		for i := range e {
			e[i] = 0
		}
		e[j] = 1
		col, err := CholSolve(l, e)
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			inv.Set(i, j, col[i])
		}
	}
	inv.Symmetrize()
	return inv, nil
}

// OLS solves the least-squares problem min ||X beta - y||² via the normal
// equations (XᵀX) beta = Xᵀy with ridge fallback. X is n×p with n >= 1;
// returns beta (length p) and the residual variance (SSE/n, the ML
// estimate). A column of ones must be included by the caller if an
// intercept is wanted.
func OLS(x *Matrix, y []float64) (beta []float64, variance float64, err error) {
	if x.Rows != len(y) {
		return nil, 0, fmt.Errorf("linalg: OLS rows %d != len(y) %d", x.Rows, len(y))
	}
	if x.Rows == 0 {
		return nil, 0, errors.New("linalg: OLS with zero observations")
	}
	p := x.Cols
	xtx := NewMatrix(p, p)
	xty := make([]float64, p)
	for i := 0; i < x.Rows; i++ {
		row := x.Data[i*p : (i+1)*p]
		for a := 0; a < p; a++ {
			ra := row[a]
			if ra == 0 {
				continue
			}
			xty[a] += ra * y[i]
			for b := a; b < p; b++ {
				xtx.Add(a, b, ra*row[b])
			}
		}
	}
	// Mirror the upper triangle.
	for a := 0; a < p; a++ {
		for b := a + 1; b < p; b++ {
			xtx.Set(b, a, xtx.At(a, b))
		}
	}
	beta, err = SolveSPD(xtx, xty)
	if err != nil {
		return nil, 0, err
	}
	sse := 0.0
	for i := 0; i < x.Rows; i++ {
		row := x.Data[i*p : (i+1)*p]
		pred := 0.0
		for j, bj := range beta {
			pred += bj * row[j]
		}
		r := y[i] - pred
		sse += r * r
	}
	variance = sse / float64(x.Rows)
	return beta, variance, nil
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
