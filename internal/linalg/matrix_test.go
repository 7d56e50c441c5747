package linalg

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewMatrixZeroed(t *testing.T) {
	m := NewMatrix(3, 4)
	if m.Rows != 3 || m.Cols != 4 {
		t.Fatalf("dims = %dx%d, want 3x4", m.Rows, m.Cols)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("element (%d,%d) = %g, want 0", i, j, m.At(i, j))
			}
		}
	}
}

func TestFromRows(t *testing.T) {
	m, err := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(2, 1) != 6 || m.At(0, 0) != 1 {
		t.Fatalf("unexpected contents: %v", m.Data)
	}
}

func TestFromRowsRagged(t *testing.T) {
	if _, err := FromRows([][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("expected error for ragged rows")
	}
}

func TestFromRowsEmpty(t *testing.T) {
	m, err := FromRows(nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows != 0 || m.Cols != 0 {
		t.Fatalf("dims = %dx%d, want 0x0", m.Rows, m.Cols)
	}
}

func TestSetAtAdd(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 1, 5)
	m.Add(0, 1, 2.5)
	if m.At(0, 1) != 7.5 {
		t.Fatalf("At(0,1) = %g, want 7.5", m.At(0, 1))
	}
}

func TestOutOfBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-bounds access")
		}
	}()
	NewMatrix(2, 2).At(2, 0)
}

func TestTranspose(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.T()
	if tr.Rows != 3 || tr.Cols != 2 {
		t.Fatalf("transpose dims = %dx%d", tr.Rows, tr.Cols)
	}
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestMul(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := FromRows([][]float64{{5, 6}, {7, 8}})
	c, err := Mul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{19, 22}, {43, 50}}
	for i := range want {
		for j := range want[i] {
			if c.At(i, j) != want[i][j] {
				t.Fatalf("Mul mismatch at (%d,%d): got %g want %g", i, j, c.At(i, j), want[i][j])
			}
		}
	}
}

func TestMulDimensionMismatch(t *testing.T) {
	a := NewMatrix(2, 3)
	b := NewMatrix(2, 3)
	if _, err := Mul(a, b); err == nil {
		t.Fatal("expected dimension mismatch error")
	}
}

func TestMulIdentity(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	i2 := Identity(2)
	c, err := Mul(a, i2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Data {
		if c.Data[i] != a.Data[i] {
			t.Fatal("A*I != A")
		}
	}
}

func TestMulVec(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	v, err := a.MulVec([]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if v[0] != 3 || v[1] != 7 {
		t.Fatalf("MulVec = %v, want [3 7]", v)
	}
}

func TestAddSubMat(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := FromRows([][]float64{{4, 3}, {2, 1}})
	s, _ := FromRows([][]float64{{5, 5}, {5, 5}}) // a + b
	d, err := SubMat(s, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range d.Data {
		if d.Data[i] != a.Data[i] {
			t.Fatalf("SubMat: %v", d.Data)
		}
	}
}

func TestSubmatrix(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	s := a.Submatrix([]int{0, 2}, []int{1})
	if s.Rows != 2 || s.Cols != 1 || s.At(0, 0) != 2 || s.At(1, 0) != 8 {
		t.Fatalf("Submatrix = %v", s.Data)
	}
}

func TestCholeskyKnown(t *testing.T) {
	// A = [[4,2],[2,3]] → L = [[2,0],[1,sqrt(2)]].
	a, _ := FromRows([][]float64{{4, 2}, {2, 3}})
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(l.At(0, 0), 2, 1e-12) || !almostEq(l.At(1, 0), 1, 1e-12) ||
		!almostEq(l.At(1, 1), math.Sqrt2, 1e-12) || l.At(0, 1) != 0 {
		t.Fatalf("Cholesky factor wrong:\n%v", l)
	}
}

func TestCholeskyNotPD(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {2, 1}}) // indefinite
	if _, err := Cholesky(a); err != ErrNotPositiveDefinite {
		t.Fatalf("err = %v, want ErrNotPositiveDefinite", err)
	}
}

func TestSolveSPD(t *testing.T) {
	a, _ := FromRows([][]float64{{4, 2}, {2, 3}})
	x, err := SolveSPD(a, []float64{10, 9})
	if err != nil {
		t.Fatal(err)
	}
	// Check A x = b.
	b, _ := a.MulVec(x)
	if !almostEq(b[0], 10, 1e-9) || !almostEq(b[1], 9, 1e-9) {
		t.Fatalf("SolveSPD residual: %v", b)
	}
}

func TestSolveSPDSingularRidge(t *testing.T) {
	// Singular matrix: ridge fallback should still produce a finite answer.
	a, _ := FromRows([][]float64{{1, 1}, {1, 1}})
	x, err := SolveSPD(a, []float64{2, 2})
	if err != nil {
		t.Fatalf("ridge fallback failed: %v", err)
	}
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("non-finite solution %v", x)
		}
	}
}

func TestInverseSPD(t *testing.T) {
	a, _ := FromRows([][]float64{{4, 2}, {2, 3}})
	inv, err := InverseSPD(a)
	if err != nil {
		t.Fatal(err)
	}
	prod, _ := Mul(a, inv)
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if !almostEq(prod.At(i, j), want, 1e-9) {
				t.Fatalf("A*inv(A) =\n%v", prod)
			}
		}
	}
}

func TestOLSExactFit(t *testing.T) {
	// y = 1 + 2x with no noise: OLS must recover it with ~zero variance.
	n := 20
	x := NewMatrix(n, 2)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		xi := float64(i)
		x.Set(i, 0, 1)
		x.Set(i, 1, xi)
		y[i] = 1 + 2*xi
	}
	beta, v, err := OLS(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(beta[0], 1, 1e-8) || !almostEq(beta[1], 2, 1e-8) {
		t.Fatalf("beta = %v, want [1 2]", beta)
	}
	if v > 1e-10 {
		t.Fatalf("variance = %g, want ~0", v)
	}
}

func TestOLSZeroRows(t *testing.T) {
	if _, _, err := OLS(NewMatrix(0, 1), nil); err == nil {
		t.Fatal("expected error for zero observations")
	}
}

func TestOLSConstantColumn(t *testing.T) {
	// Two identical columns → singular XtX; ridge fallback must succeed.
	n := 10
	x := NewMatrix(n, 2)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x.Set(i, 0, 1)
		x.Set(i, 1, 1)
		y[i] = 3
	}
	beta, _, err := OLS(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(beta[0]+beta[1], 3, 1e-4) {
		t.Fatalf("beta = %v, want sum ~3", beta)
	}
}

func TestDot(t *testing.T) {
	if Dot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Fatal("Dot wrong")
	}
}

// Property: for any generated SPD matrix A = MᵀM + I and vector b,
// SolveSPD returns x with small residual.
func TestSolveSPDProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := seed
		next := func() float64 {
			r = r*6364136223846793005 + 1442695040888963407
			return float64(r%1000)/500 - 1
		}
		n := 4
		m := NewMatrix(n, n)
		for i := range m.Data {
			m.Data[i] = next()
		}
		mt := m.T()
		a, _ := Mul(mt, m)
		for i := 0; i < n; i++ {
			a.Add(i, i, 1)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = next()
		}
		x, err := SolveSPD(a, b)
		if err != nil {
			return false
		}
		res, _ := a.MulVec(x)
		for i := range res {
			if !almostEq(res[i], b[i], 1e-6) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Cholesky reconstructs A = L Lᵀ.
func TestCholeskyReconstructProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := seed
		next := func() float64 {
			r = r*6364136223846793005 + 1442695040888963407
			return float64(r%1000)/500 - 1
		}
		n := 3
		m := NewMatrix(n, n)
		for i := range m.Data {
			m.Data[i] = next()
		}
		a, _ := Mul(m.T(), m)
		for i := 0; i < n; i++ {
			a.Add(i, i, 0.5)
		}
		l, err := Cholesky(a)
		if err != nil {
			return false
		}
		rec, _ := Mul(l, l.T())
		for i := range a.Data {
			if !almostEq(rec.Data[i], a.Data[i], 1e-8) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRowClone(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	r := m.Row(1)
	if r[0] != 3 || r[1] != 4 {
		t.Fatal("Row wrong")
	}
	r[0] = 99
	if m.At(1, 0) != 3 {
		t.Fatal("Row must copy")
	}
	cl := m.Clone()
	cl.Set(0, 0, 42)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone must copy")
	}
}

func TestSymmetrize(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 2.0001}, {2, 1}})
	m.Symmetrize()
	if m.At(0, 1) != m.At(1, 0) {
		t.Fatal("Symmetrize failed")
	}
}

func TestSymmetrizePanicsNonSquare(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMatrix(2, 3).Symmetrize()
}

func TestMatrixString(t *testing.T) {
	m := Identity(2)
	s := m.String()
	if len(s) == 0 || s[:6] != "Matrix" {
		t.Fatalf("String() = %q", s)
	}
}

func TestIdentity(t *testing.T) {
	i3 := Identity(3)
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			want := 0.0
			if r == c {
				want = 1
			}
			if i3.At(r, c) != want {
				t.Fatal("Identity wrong")
			}
		}
	}
}

func TestMulVecMismatch(t *testing.T) {
	m := NewMatrix(2, 2)
	if _, err := m.MulVec([]float64{1}); err == nil {
		t.Fatal("length mismatch should error")
	}
}

func TestSubMatMismatch(t *testing.T) {
	a := NewMatrix(2, 2)
	b := NewMatrix(2, 3)
	if _, err := SubMat(a, b); err == nil {
		t.Fatal("SubMat mismatch should error")
	}
}

func TestCholeskyNonSquare(t *testing.T) {
	if _, err := Cholesky(NewMatrix(2, 3)); err == nil {
		t.Fatal("non-square Cholesky should error")
	}
}

func TestCholSolveMismatch(t *testing.T) {
	l := Identity(2)
	if _, err := CholSolve(l, []float64{1}); err == nil {
		t.Fatal("dimension mismatch should error")
	}
}

func TestDotPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestOLSRowMismatch(t *testing.T) {
	if _, _, err := OLS(NewMatrix(2, 1), []float64{1}); err == nil {
		t.Fatal("row mismatch should error")
	}
}
