package learn

import (
	"fmt"

	"kertbn/internal/bn"
	"kertbn/internal/linalg"
	"kertbn/internal/stats"
)

// Sufficient statistics for incremental parameter rebuilds.
//
// The full-refit path (FitTabular / FitLinearGaussian) scans every training
// row on every rebuild, so rebuild cost grows linearly with monitoring
// history. The accumulators here capture exactly the quantities those fits
// reduce the data to — joint counts for tabular CPDs, raw regression
// moments (N, XᵀX, Xᵀy, yᵀy) for linear-Gaussian CPDs — so a rebuild
// becomes O(parameters) instead of O(rows).
//
// Exactness contract: FitTabularFromStats is bit-identical to FitTabular
// over the same rows (counts are small integers, exact in float64), and
// FitLinearGaussianFromStats accumulates XᵀX/Xᵀy with the same per-row,
// per-cell update order as linalg.OLS and solves through the same
// linalg.SolveSPD path, so the coefficients agree bit-for-bit after pure
// appends; sliding-window removals and the moment-form variance introduce
// only rounding-level (~1e-12 relative) drift, far inside the 1e-9
// equivalence budget the incremental build guarantees.

// TabularStats accumulates the joint (parent-configuration, child-state)
// counts that determine a discrete CPT. Add/Remove are exact inverses and
// Merge is exact, so windowed and sharded accumulation reproduce a
// from-scratch count table bit-for-bit.
type TabularStats struct {
	Child      int   // child column in the row
	Card       int   // child cardinality
	Parents    []int // parent columns in the row
	ParentCard []int
	// Counts holds raw (un-smoothed) joint counts, indexed
	// cfg*Card + childState with cfg in bn.Tabular.ConfigIndex order.
	Counts []float64
	N      int // rows accumulated
}

// NewTabularStats returns an empty count accumulator.
func NewTabularStats(child, card int, parents, parentCard []int) (*TabularStats, error) {
	if card < 2 {
		return nil, fmt.Errorf("learn: tabular stats need card >= 2, got %d", card)
	}
	if len(parents) != len(parentCard) {
		return nil, fmt.Errorf("learn: parents/parentCard length mismatch")
	}
	rows := 1
	for _, c := range parentCard {
		if c < 1 {
			return nil, fmt.Errorf("learn: non-positive parent cardinality %d", c)
		}
		rows *= c
	}
	return &TabularStats{
		Child:      child,
		Card:       card,
		Parents:    append([]int(nil), parents...),
		ParentCard: append([]int(nil), parentCard...),
		Counts:     make([]float64, rows*card),
	}, nil
}

// cell maps a data row to its count-table index (mixed-radix parent config,
// matching bn.Tabular.ConfigIndex).
func (t *TabularStats) cell(row []float64) (int, error) {
	x := int(row[t.Child])
	if x < 0 || x >= t.Card {
		return 0, fmt.Errorf("learn: child state %d out of range (card %d)", x, t.Card)
	}
	cfg := 0
	for i, p := range t.Parents {
		v := int(row[p])
		if v < 0 || v >= t.ParentCard[i] {
			return 0, fmt.Errorf("learn: parent state %d out of range (card %d)", v, t.ParentCard[i])
		}
		cfg = cfg*t.ParentCard[i] + v
	}
	return cfg*t.Card + x, nil
}

// AddRow folds one encoded row into the counts.
func (t *TabularStats) AddRow(row []float64) error {
	i, err := t.cell(row)
	if err != nil {
		return err
	}
	t.Counts[i]++
	t.N++
	return nil
}

// RemoveRow deletes one previously Added row (sliding-window eviction).
func (t *TabularStats) RemoveRow(row []float64) error {
	i, err := t.cell(row)
	if err != nil {
		return err
	}
	if t.Counts[i] < 1 {
		return fmt.Errorf("learn: TabularStats.RemoveRow underflow at cell %d", i)
	}
	t.Counts[i]--
	t.N--
	return nil
}

// FitTabularFromStats builds the CPT from accumulated counts — the
// incremental twin of FitTabular, with cost O(table) instead of O(rows).
func FitTabularFromStats(ts *TabularStats, opts Options) (*bn.Tabular, Cost, error) {
	t := bn.NewTabular(ts.Card, ts.ParentCard)
	counts := make([]float64, len(t.P))
	for i := range counts {
		counts[i] = opts.DirichletAlpha + ts.Counts[i]
	}
	var cost Cost
	for cfg := 0; cfg < t.Rows(); cfg++ {
		rowCounts := counts[cfg*ts.Card : (cfg+1)*ts.Card]
		if sum(rowCounts) == 0 {
			for i := range rowCounts {
				rowCounts[i] = 1
			}
		}
		if err := t.SetRow(cfg, rowCounts); err != nil {
			return nil, cost, err
		}
		cost.DataOps += int64(ts.Card)
	}
	return t, cost, nil
}

// LGStats accumulates the regression moments of a linear-Gaussian family:
// XᵀX, Xᵀy, yᵀy over the design matrix X = [1, parents...]. The per-row
// update visits cells in exactly the order linalg.OLS does, so after pure
// appends the normal equations — and hence the fitted coefficients — are
// bit-identical to a from-scratch fit over the same rows.
type LGStats struct {
	Child   int
	Parents []int
	P       int // regressors including the intercept = len(Parents)+1
	N       int
	XtX     *linalg.Matrix // P×P; lower triangle mirrored at fit time
	Xty     []float64
	Yty     float64
	xrow    []float64 // scratch design row
}

// NewLGStats returns an empty moment accumulator.
func NewLGStats(child int, parents []int) *LGStats {
	p := len(parents) + 1
	return &LGStats{
		Child:   child,
		Parents: append([]int(nil), parents...),
		P:       p,
		XtX:     linalg.NewMatrix(p, p),
		Xty:     make([]float64, p),
		xrow:    make([]float64, p),
	}
}

func (g *LGStats) design(row []float64) []float64 {
	g.xrow[0] = 1
	for j, pc := range g.Parents {
		g.xrow[j+1] = row[pc]
	}
	return g.xrow
}

// AddRow folds one row into the moments.
func (g *LGStats) AddRow(row []float64) error {
	x, y := g.design(row), row[g.Child]
	for a := 0; a < g.P; a++ {
		ra := x[a]
		if ra == 0 {
			continue
		}
		g.Xty[a] += ra * y
		for b := a; b < g.P; b++ {
			g.XtX.Add(a, b, ra*x[b])
		}
	}
	g.Yty += y * y
	g.N++
	return nil
}

// RemoveRow subtracts one previously Added row. Floating-point subtraction
// is not a bit-exact inverse, but the drift per evicted row is one ulp of
// the running moment — negligible against the 1e-9 equivalence budget.
func (g *LGStats) RemoveRow(row []float64) error {
	if g.N <= 0 {
		return fmt.Errorf("learn: LGStats.RemoveRow from empty accumulator")
	}
	x, y := g.design(row), row[g.Child]
	for a := 0; a < g.P; a++ {
		ra := x[a]
		if ra == 0 {
			continue
		}
		g.Xty[a] -= ra * y
		for b := a; b < g.P; b++ {
			g.XtX.Add(a, b, -ra*x[b])
		}
	}
	g.Yty -= y * y
	g.N--
	if g.N == 0 {
		// Reset exactly so an emptied window cannot leave rounding residue.
		for i := range g.XtX.Data {
			g.XtX.Data[i] = 0
		}
		for i := range g.Xty {
			g.Xty[i] = 0
		}
		g.Yty = 0
	}
	return nil
}

// FitLinearGaussianFromStats solves the normal equations from accumulated
// moments — the incremental twin of FitLinearGaussian, with cost O(p³)
// instead of O(n·p²). The residual variance comes from the moment identity
// SSE = yᵀy − 2βᵀXᵀy + βᵀ(XᵀX)β, clamped at zero against cancellation.
func FitLinearGaussianFromStats(g *LGStats) (*bn.LinearGaussian, Cost, error) {
	if g.N == 0 {
		return nil, Cost{}, fmt.Errorf("learn: no accumulated rows")
	}
	xtx := g.XtX.Clone()
	for a := 0; a < g.P; a++ {
		for b := a + 1; b < g.P; b++ {
			xtx.Set(b, a, xtx.At(a, b))
		}
	}
	beta, err := linalg.SolveSPD(xtx, g.Xty)
	if err != nil {
		return nil, Cost{}, fmt.Errorf("learn: normal equations for child %d: %w", g.Child, err)
	}
	sse := g.Yty
	for a := 0; a < g.P; a++ {
		sse -= 2 * beta[a] * g.Xty[a]
		for b := 0; b < g.P; b++ {
			sse += beta[a] * xtx.At(a, b) * beta[b]
		}
	}
	if sse < 0 {
		sse = 0
	}
	cost := Cost{DataOps: int64(g.P) * int64(g.P*g.P+g.P)}
	sigma := stats.SqrtNonNeg(sse / float64(g.N))
	return bn.NewLinearGaussian(beta[0], beta[1:], sigma), cost, nil
}
