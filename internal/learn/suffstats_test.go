package learn

import (
	"math"
	"testing"

	"kertbn/internal/stats"
)

// genDiscreteRows draws rows with integer-valued columns (child at 0,
// parents at 1..k) for tabular-count tests.
func genDiscreteRows(rng *stats.RNG, n, card int, parentCard []int) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		r := make([]float64, 1+len(parentCard))
		r[0] = float64(rng.Intn(card))
		for j, pc := range parentCard {
			r[j+1] = float64(rng.Intn(pc))
		}
		rows[i] = r
	}
	return rows
}

// genContinuousRows draws rows where column 0 is a noisy linear function of
// columns 1..k for linear-Gaussian tests.
func genContinuousRows(rng *stats.RNG, n, k int) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		r := make([]float64, 1+k)
		y := 0.5
		for j := 1; j <= k; j++ {
			r[j] = rng.Normal(2, 1)
			y += float64(j) * 0.3 * r[j]
		}
		r[0] = y + rng.Normal(0, 0.2)
		rows[i] = r
	}
	return rows
}

// A TabularStats fed the same rows must reproduce FitTabular bit-for-bit,
// and a windowed accumulator (add new, remove evicted) must match a
// from-scratch fit over the surviving window exactly.
func TestTabularStatsEquivalence(t *testing.T) {
	rng := stats.NewRNG(11)
	card, parentCard := 3, []int{2, 4}
	parents := []int{1, 2}
	rows := genDiscreteRows(rng, 400, card, parentCard)
	opts := DefaultOptions()

	full, _, err := FitTabular(rows, 0, card, parents, parentCard, opts)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := NewTabularStats(0, card, parents, parentCard)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if err := ts.AddRow(r); err != nil {
			t.Fatal(err)
		}
	}
	inc, _, err := FitTabularFromStats(ts, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range full.P {
		if full.P[i] != inc.P[i] {
			t.Fatalf("CPT cell %d: from-stats %g != from-scratch %g (must be bit-identical)", i, inc.P[i], full.P[i])
		}
	}

	// Sliding window: keep the last 100 rows via Remove, compare against a
	// fresh count over exactly those rows.
	const w = 100
	win, _ := NewTabularStats(0, card, parents, parentCard)
	for i, r := range rows {
		win.AddRow(r)
		if i >= w {
			if err := win.RemoveRow(rows[i-w]); err != nil {
				t.Fatal(err)
			}
		}
	}
	fresh, _ := NewTabularStats(0, card, parents, parentCard)
	for _, r := range rows[len(rows)-w:] {
		fresh.AddRow(r)
	}
	if win.N != w {
		t.Fatalf("windowed N=%d, want %d", win.N, w)
	}
	for i := range win.Counts {
		if win.Counts[i] != fresh.Counts[i] {
			t.Fatalf("windowed count cell %d: %g != %g", i, win.Counts[i], fresh.Counts[i])
		}
	}

}

// LGStats appends must reproduce FitLinearGaussian through the identical
// normal-equations path: bit-identical coefficients, variance within
// rounding of the residual-pass value.
func TestLGStatsAppendEquivalence(t *testing.T) {
	rng := stats.NewRNG(5)
	rows := genContinuousRows(rng, 500, 3)
	parents := []int{1, 2, 3}

	full, _, err := FitLinearGaussian(rows, 0, parents)
	if err != nil {
		t.Fatal(err)
	}
	g := NewLGStats(0, parents)
	for _, r := range rows {
		g.AddRow(r)
	}
	inc, _, err := FitLinearGaussianFromStats(g)
	if err != nil {
		t.Fatal(err)
	}
	if full.Intercept != inc.Intercept {
		t.Fatalf("intercept %g != %g (append path must be bit-identical)", inc.Intercept, full.Intercept)
	}
	for i := range full.Coef {
		if full.Coef[i] != inc.Coef[i] {
			t.Fatalf("coef %d: %g != %g (append path must be bit-identical)", i, inc.Coef[i], full.Coef[i])
		}
	}
	if math.Abs(full.Sigma-inc.Sigma) > 1e-9*(1+full.Sigma) {
		t.Fatalf("sigma %g vs %g beyond 1e-9", inc.Sigma, full.Sigma)
	}
}

// Windowed LGStats (add+remove) must track a from-scratch fit of the
// surviving window within the 1e-9 equivalence budget.
func TestLGStatsWindowEquivalence(t *testing.T) {
	rng := stats.NewRNG(17)
	rows := genContinuousRows(rng, 800, 2)
	parents := []int{1, 2}
	const w = 150
	g := NewLGStats(0, parents)
	for i, r := range rows {
		g.AddRow(r)
		if i >= w {
			if err := g.RemoveRow(rows[i-w]); err != nil {
				t.Fatal(err)
			}
		}
		if i > w && i%100 == 0 {
			inc, _, err := FitLinearGaussianFromStats(g)
			if err != nil {
				t.Fatal(err)
			}
			ref, _, err := FitLinearGaussian(rows[i-w+1:i+1], 0, parents)
			if err != nil {
				t.Fatal(err)
			}
			if d := math.Abs(inc.Intercept - ref.Intercept); d > 1e-9 {
				t.Fatalf("step %d: intercept drift %g", i, d)
			}
			for j := range ref.Coef {
				if d := math.Abs(inc.Coef[j] - ref.Coef[j]); d > 1e-9 {
					t.Fatalf("step %d: coef %d drift %g", i, j, d)
				}
			}
			if d := math.Abs(inc.Sigma - ref.Sigma); d > 1e-9 {
				t.Fatalf("step %d: sigma drift %g", i, d)
			}
		}
	}
}

func TestLGStatsRemoveToEmptyResets(t *testing.T) {
	g := NewLGStats(0, []int{1})
	row := []float64{3, 4}
	g.AddRow(row)
	if err := g.RemoveRow(row); err != nil {
		t.Fatal(err)
	}
	if g.N != 0 || g.Yty != 0 {
		t.Fatalf("emptied accumulator left residue: N=%d Yty=%g", g.N, g.Yty)
	}
	for _, v := range g.XtX.Data {
		if v != 0 {
			t.Fatal("emptied XtX not reset to zero")
		}
	}
	if err := g.RemoveRow(row); err == nil {
		t.Fatal("RemoveRow from empty accumulator must error")
	}
}
