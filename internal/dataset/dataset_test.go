package dataset

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"kertbn/internal/stats"
)

func TestAppendAndAccess(t *testing.T) {
	d := New([]string{"a", "b"})
	if err := d.Append([]float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := d.Append([]float64{3, 4}); err != nil {
		t.Fatal(err)
	}
	if d.NumRows() != 2 || d.NumCols() != 2 {
		t.Fatal("dims wrong")
	}
	if col := d.Col(1); col[0] != 2 || col[1] != 4 {
		t.Fatalf("col b = %v", col)
	}
}

func TestAppendWidthMismatch(t *testing.T) {
	d := New([]string{"a"})
	if err := d.Append([]float64{1, 2}); err == nil {
		t.Fatal("width mismatch should error")
	}
}

func TestAppendCopies(t *testing.T) {
	d := New([]string{"a"})
	row := []float64{1}
	_ = d.Append(row)
	row[0] = 99
	if d.Rows[0][0] != 1 {
		t.Fatal("Append must copy the row")
	}
}

func TestHead(t *testing.T) {
	d := New([]string{"a"})
	for i := 0; i < 10; i++ {
		_ = d.Append([]float64{float64(i)})
	}
	if h := d.Head(3); h.NumRows() != 3 || h.Rows[2][0] != 2 {
		t.Fatal("Head wrong")
	}
	if d.Head(99).NumRows() != 10 {
		t.Fatal("over-length views should clamp")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	d := New([]string{"x", "y"})
	_ = d.Append([]float64{1.5, -2})
	_ = d.Append([]float64{0.001, 1e9})
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRows() != 2 || back.Columns[1] != "y" {
		t.Fatal("round trip shape wrong")
	}
	for i := range d.Rows {
		for j := range d.Rows[i] {
			if d.Rows[i][j] != back.Rows[i][j] {
				t.Fatalf("value mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestReadCSVBadInput(t *testing.T) {
	if _, err := ReadCSV(bytes.NewBufferString("")); err == nil {
		t.Fatal("empty input should error")
	}
	if _, err := ReadCSV(bytes.NewBufferString("a,b\n1,notanumber\n")); err == nil {
		t.Fatal("non-numeric cell should error")
	}
}

func TestWindowBasics(t *testing.T) {
	w, err := NewWindow([]string{"a"}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		evicted, err := w.Push([]float64{float64(i)})
		if err != nil {
			t.Fatal(err)
		}
		// The first eviction happens on the 4th push and yields the oldest
		// row; while filling, Push reports nil.
		if i <= 3 && evicted != nil {
			t.Fatalf("push %d evicted %v from a filling window", i, evicted)
		}
		if i > 3 && (evicted == nil || evicted[0] != float64(i-3)) {
			t.Fatalf("push %d evicted %v, want [%d]", i, evicted, i-3)
		}
	}
	if w.Len() != 3 {
		t.Fatalf("Len = %d", w.Len())
	}
	snap := w.Snapshot()
	want := []float64{3, 4, 5}
	for i, v := range want {
		if snap.Rows[i][0] != v {
			t.Fatalf("snapshot = %v, want %v", snap.Rows, want)
		}
	}
}

func TestWindowValidation(t *testing.T) {
	if _, err := NewWindow([]string{"a"}, 0); err == nil {
		t.Fatal("zero capacity should error")
	}
	w, _ := NewWindow([]string{"a"}, 2)
	if _, err := w.Push([]float64{1, 2}); err == nil {
		t.Fatal("width mismatch should error")
	}
}

func TestWindowPartialFill(t *testing.T) {
	w, _ := NewWindow([]string{"a"}, 5)
	_, _ = w.Push([]float64{1})
	_, _ = w.Push([]float64{2})
	snap := w.Snapshot()
	if snap.NumRows() != 2 || snap.Rows[0][0] != 1 {
		t.Fatal("partial window snapshot wrong")
	}
}

func TestFitDiscretizerEqualWidth(t *testing.T) {
	vals := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	d, err := FitDiscretizer(vals, 5, EqualWidth)
	if err != nil {
		t.Fatal(err)
	}
	if d.Bin(0) != 0 || d.Bin(10) != 4 {
		t.Fatalf("end bins wrong: %d %d", d.Bin(0), d.Bin(10))
	}
	if d.Bin(-100) != 0 || d.Bin(100) != 4 {
		t.Fatal("outliers should clamp into end bins")
	}
	if d.Bin(5) < 1 || d.Bin(5) > 3 {
		t.Fatalf("mid value bin %d", d.Bin(5))
	}
}

func TestFitDiscretizerQuantile(t *testing.T) {
	rng := stats.NewRNG(1)
	vals := make([]float64, 10000)
	for i := range vals {
		vals[i] = rng.Normal(0, 1)
	}
	d, err := FitDiscretizer(vals, 4, Quantile)
	if err != nil {
		t.Fatal(err)
	}
	// Quantile bins should hold roughly equal counts.
	counts := make([]int, 4)
	for _, v := range vals {
		counts[d.Bin(v)]++
	}
	for b, c := range counts {
		if c < 2000 || c > 3000 {
			t.Fatalf("bin %d count %d not near 2500", b, c)
		}
	}
}

func TestFitDiscretizerValidation(t *testing.T) {
	if _, err := FitDiscretizer(nil, 4, EqualWidth); err == nil {
		t.Fatal("empty data should error")
	}
	if _, err := FitDiscretizer([]float64{1, 2}, 1, EqualWidth); err == nil {
		t.Fatal("bins < 2 should error")
	}
}

func TestFitDiscretizerConstantColumn(t *testing.T) {
	d, err := FitDiscretizer([]float64{5, 5, 5}, 3, EqualWidth)
	if err != nil {
		t.Fatal(err)
	}
	if b := d.Bin(5); b < 0 || b >= 3 {
		t.Fatalf("constant column bin %d", b)
	}
}

func TestDiscretizerCenters(t *testing.T) {
	vals := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	d, _ := FitDiscretizer(vals, 2, EqualWidth)
	// Centers are means of observed values per bin.
	if math.Abs(d.Center(0)-2) > 1e-9 { // mean of 0..4
		t.Fatalf("center0 = %g", d.Center(0))
	}
	if math.Abs(d.Center(1)-7) > 1e-9 { // mean of 5..9
		t.Fatalf("center1 = %g", d.Center(1))
	}
}

func TestCenterPanicsOutOfRange(t *testing.T) {
	d, _ := FitDiscretizer([]float64{1, 2}, 2, EqualWidth)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.Center(5)
}

func TestCodecEncode(t *testing.T) {
	d := New([]string{"a", "b"})
	for i := 0; i < 100; i++ {
		_ = d.Append([]float64{float64(i), float64(100 - i)})
	}
	codec, err := FitCodec(d, 4, Quantile)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := codec.Encode(d)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range enc.Rows {
		for _, v := range row {
			if v != math.Trunc(v) || v < 0 || v >= 4 {
				t.Fatalf("encoded value %g not a bin index", v)
			}
		}
	}
	row, err := codec.EncodeRow(d.Rows[0])
	if err != nil {
		t.Fatal(err)
	}
	if row[0] != enc.Rows[0][0] {
		t.Fatal("EncodeRow inconsistent with Encode")
	}
}

func TestCodecWidthMismatch(t *testing.T) {
	d := New([]string{"a"})
	_ = d.Append([]float64{1})
	codec, _ := FitCodec(d, 2, EqualWidth)
	other := New([]string{"a", "b"})
	_ = other.Append([]float64{1, 2})
	if _, err := codec.Encode(other); err == nil {
		t.Fatal("width mismatch should error")
	}
	if _, err := codec.EncodeRow([]float64{1, 2}); err == nil {
		t.Fatal("row width mismatch should error")
	}
}

// Property: Bin is monotone non-decreasing in its argument.
func TestBinMonotoneProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		vals := make([]float64, 200)
		for i := range vals {
			vals[i] = rng.Normal(0, 10)
		}
		d, err := FitDiscretizer(vals, 2+rng.Intn(8), Quantile)
		if err != nil {
			return false
		}
		prev := -1
		for x := -40.0; x <= 40; x += 0.5 {
			b := d.Bin(x)
			if b < prev || b < 0 || b >= d.Bins {
				return false
			}
			prev = b
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: windows never exceed capacity and preserve arrival order.
func TestWindowOrderProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		capacity := 1 + rng.Intn(10)
		w, err := NewWindow([]string{"v"}, capacity)
		if err != nil {
			return false
		}
		n := rng.Intn(40)
		for i := 0; i < n; i++ {
			if _, err := w.Push([]float64{float64(i)}); err != nil {
				return false
			}
		}
		snap := w.Snapshot()
		if snap.NumRows() > capacity {
			return false
		}
		for i := 1; i < snap.NumRows(); i++ {
			if snap.Rows[i][0] != snap.Rows[i-1][0]+1 {
				return false
			}
		}
		if n > 0 && snap.NumRows() > 0 && snap.Rows[snap.NumRows()-1][0] != float64(n-1) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
