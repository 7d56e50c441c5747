package core

import (
	"math"
	"sort"
	"testing"

	"kertbn/internal/stats"
)

// refQuantile is the quantile loop Posterior.Quantile used before the
// summary: copy the pairs, sort.Slice them by value, return the first value
// at which the running mass reaches q (the last value if it never does).
// It is the reference the one-sort walk must reproduce bit for bit.
func refQuantile(p *Posterior, q float64) float64 {
	type pair struct{ v, w float64 }
	ps := make([]pair, len(p.Support))
	for i := range ps {
		ps[i] = pair{p.Support[i], p.Probs[i]}
	}
	sort.Slice(ps, func(a, b int) bool { return ps[a].v < ps[b].v })
	acc := 0.0
	for _, pr := range ps {
		acc += pr.w
		if acc >= q {
			return pr.v
		}
	}
	return ps[len(ps)-1].v
}

// randomPosterior draws a seeded weighted posterior. With ties, values come
// from a handful of levels and every mass is k/2^20 with the k summing to
// 2^20, so the masses are dyadic and every partial sum is exact in any
// order: a tie's order inside the sort cannot change a sum. Without ties,
// values are continuous and masses arbitrary (normalized by NewPosterior).
// Some masses are zero either way.
func randomPosterior(t *testing.T, rng *stats.RNG, ties bool) *Posterior {
	t.Helper()
	n := 1 + rng.Intn(300)
	support := make([]float64, n)
	probs := make([]float64, n)
	if !ties {
		for i := range support {
			support[i] = rng.Normal(1, 0.4)
			if rng.Float64() > 0.1 {
				probs[i] = rng.Float64()
			}
		}
		probs[rng.Intn(n)] += 0.5 // some mass somewhere
		p, err := NewPosterior(support, probs)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	const total = 1 << 20
	levels := 1 + rng.Intn(6)
	cuts := make([]int, 0, n+1)
	for i := 0; i < n-1; i++ {
		cuts = append(cuts, rng.Intn(total+1))
	}
	cuts = append(cuts, 0, total)
	sort.Ints(cuts)
	for i := range support {
		support[i] = 0.25 * float64(rng.Intn(levels))
		probs[i] = float64(cuts[i+1]-cuts[i]) / total
	}
	return &Posterior{Support: support, Probs: probs}
}

// TestSummaryQuantilesMatchReference pins the one-sort walk to the old
// per-call copy-and-sort loop: every ladder entry and every Quantile(q) —
// q in {0, 1}, random q, and q exactly on a cumulative-mass boundary —
// equals the reference bit for bit, over tied values and zero masses.
func TestSummaryQuantilesMatchReference(t *testing.T) {
	rng := stats.NewRNG(21)
	literal := []float64{0.01, 0.05, 0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99}
	for trial := 0; trial < 400; trial++ {
		p := randomPosterior(t, rng, trial%2 == 0)
		s := p.Summary()
		for i, q := range literal {
			if got, want := s.Quantiles[i], refQuantile(p, q); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d: ladder p%d = %v, reference %v", trial, SummaryPercents[i], got, want)
			}
		}
		qs := []float64{0, 1, rng.Float64(), rng.Float64()}
		// Exact mass boundaries: some of the running sums in value order.
		acc := 0.0
		for _, i := range sortedIndex(p.Support) {
			acc += p.Probs[i]
			if rng.Intn(len(p.Support)) < 16 {
				qs = append(qs, acc)
			}
		}
		for _, q := range qs {
			if got, want := p.Quantile(q), refQuantile(p, q); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d: Quantile(%v) = %v, reference %v", trial, q, got, want)
			}
		}
		if s.Mean != p.Mean() || s.Std != p.Std() {
			t.Fatalf("trial %d: summary moments %v/%v, posterior %v/%v", trial, s.Mean, s.Std, p.Mean(), p.Std())
		}
	}
}

func sortedIndex(v []float64) []int {
	idx := make([]int, len(v))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return v[idx[a]] < v[idx[b]] })
	return idx
}

// checkHistogram asserts the histogram's shape, that its masses sum to 1,
// and that re-binning every point by the stored edges (largest i with
// Edges[i] <= v, the last bin closed) reproduces the masses: every point
// lies inside the bin that holds its mass.
func checkHistogram(t *testing.T, p *Posterior, s Summary) {
	t.Helper()
	if len(s.Edges) != len(s.Probs)+1 || len(s.Probs) == 0 {
		t.Fatalf("histogram has %d edges for %d bins", len(s.Edges), len(s.Probs))
	}
	if !sort.Float64sAreSorted(s.Edges) {
		t.Fatalf("edges not ascending: %v", s.Edges)
	}
	sum := 0.0
	for _, pr := range s.Probs {
		if pr < 0 || math.IsNaN(pr) {
			t.Fatalf("bad bin mass %v", pr)
		}
		sum += pr
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("bin masses sum to %v", sum)
	}
	rebinned := make([]float64, len(s.Probs))
	for i, v := range p.Support {
		if v < s.Edges[0] || v > s.Edges[len(s.Edges)-1] {
			t.Fatalf("point %v outside [%v, %v]", v, s.Edges[0], s.Edges[len(s.Edges)-1])
		}
		b := sort.Search(len(s.Edges), func(k int) bool { return s.Edges[k] > v }) - 1
		if b > len(s.Probs)-1 {
			b = len(s.Probs) - 1
		}
		rebinned[b] += p.Probs[i]
	}
	for b := range rebinned {
		if math.Abs(rebinned[b]-s.Probs[b]) > 1e-12 {
			t.Fatalf("bin %d [%v, %v): mass %v, its points weigh %v", b, s.Edges[b], s.Edges[b+1], s.Probs[b], rebinned[b])
		}
	}
}

func TestSummaryHistogramHoldsEveryPoint(t *testing.T) {
	rng := stats.NewRNG(22)
	for trial := 0; trial < 200; trial++ {
		p := randomPosterior(t, rng, trial%2 == 0)
		s := p.Summary()
		checkHistogram(t, p, s)
		lo, hi := p.Support[0], p.Support[0]
		for _, v := range p.Support {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		if s.Edges[0] != lo || s.Edges[len(s.Edges)-1] != hi {
			t.Fatalf("trial %d: edges span [%v, %v], support [%v, %v]", trial, s.Edges[0], s.Edges[len(s.Edges)-1], lo, hi)
		}
		if hi > lo && len(s.Probs) != SummaryBins {
			t.Fatalf("trial %d: %d bins, want %d", trial, len(s.Probs), SummaryBins)
		}
	}
}

// TestSummarySinglePoint: a support with one value (once or repeated) must
// not divide by zero; it is one closed bin [v, v] holding all the mass.
func TestSummarySinglePoint(t *testing.T) {
	for _, p := range []*Posterior{
		{Support: []float64{0.7}, Probs: []float64{1}},
		{Support: []float64{0.7, 0.7, 0.7}, Probs: []float64{0.25, 0.5, 0.25}},
	} {
		s := p.Summary()
		checkHistogram(t, p, s)
		if len(s.Probs) != 1 || s.Edges[0] != 0.7 || s.Edges[1] != 0.7 {
			t.Fatalf("single-value histogram %v / %v", s.Edges, s.Probs)
		}
		for i, q := range s.Quantiles {
			if q != 0.7 {
				t.Fatalf("p%d = %v, want 0.7", SummaryPercents[i], q)
			}
		}
		if math.IsNaN(s.Std) || s.Std != 0 {
			t.Fatalf("std %v", s.Std)
		}
	}
}

// TestSummaryDiscreteKeepsItsBins: a discrete posterior's histogram is its
// own Edges bins and masses.
func TestSummaryDiscreteKeepsItsBins(t *testing.T) {
	p, err := NewPosterior([]float64{0.5, 1.5, 3}, []float64{1, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	p.Edges = [][2]float64{{0, 1}, {1, 2}, {2, 4}}
	s := p.Summary()
	checkHistogram(t, p, s)
	wantEdges := []float64{0, 1, 2, 4}
	for i, e := range wantEdges {
		if s.Edges[i] != e {
			t.Fatalf("edges %v, want %v", s.Edges, wantEdges)
		}
	}
	for i, pr := range p.Probs {
		if s.Probs[i] != pr {
			t.Fatalf("masses %v, want %v", s.Probs, p.Probs)
		}
	}
	for i, q := range summaryLevels {
		if s.Quantiles[i] != p.Quantile(q) {
			t.Fatalf("p%d = %v, Quantile %v", SummaryPercents[i], s.Quantiles[i], p.Quantile(q))
		}
	}
}

// TestSummaryGaussianFromCDF: an exact Gaussian's bins are CDF differences
// over µ±4σ, the outer two holding the tails, and its ladder is Quantile's.
func TestSummaryGaussianFromCDF(t *testing.T) {
	p := newGaussianPosterior(0.9, 0.2)
	s := p.Summary()
	if len(s.Probs) != SummaryBins || math.Abs(s.Edges[0]-0.1) > 1e-15 || math.Abs(s.Edges[SummaryBins]-1.7) > 1e-15 {
		t.Fatalf("gaussian histogram spans [%v, %v] in %d bins", s.Edges[0], s.Edges[len(s.Edges)-1], len(s.Probs))
	}
	cdf := func(i int) float64 {
		switch i {
		case 0:
			return 0
		case SummaryBins:
			return 1
		}
		return stats.NormalCDF(s.Edges[i], 0.9, 0.2)
	}
	sum := 0.0
	for i, pr := range s.Probs {
		if want := cdf(i+1) - cdf(i); math.Abs(pr-want) > 1e-15 {
			t.Fatalf("bin %d mass %v, CDF difference %v", i, pr, want)
		}
		sum += pr
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("gaussian masses sum to %v", sum)
	}
	for i, q := range summaryLevels {
		if s.Quantiles[i] != p.Quantile(q) {
			t.Fatalf("p%d = %v, Quantile %v", SummaryPercents[i], s.Quantiles[i], p.Quantile(q))
		}
	}
	if s.Mean != 0.9 || s.Std != 0.2 {
		t.Fatalf("moments %v/%v", s.Mean, s.Std)
	}
}
