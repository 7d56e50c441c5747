package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
}

func TestRNGDifferentSeeds(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d collisions across different seeds", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	r := NewRNG(7)
	c1 := r.Split(0)
	c2 := r.Split(1)
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("sibling streams should differ")
	}
}

func TestSplitIsPure(t *testing.T) {
	r := NewRNG(7)
	before := *r
	a := r.Split(3)
	if *r != before {
		t.Fatal("Split must not advance the parent")
	}
	b := r.Split(3)
	if a.Uint64() != b.Uint64() {
		t.Fatal("Split(i) must be deterministic in (state, i)")
	}
}

func TestSplitDecorrelatedFromParent(t *testing.T) {
	r := NewRNG(11)
	c := r.Split(0)
	collisions := 0
	for i := 0; i < 100; i++ {
		if r.Uint64() == c.Uint64() {
			collisions++
		}
	}
	if collisions > 0 {
		t.Fatalf("%d collisions between parent and child streams", collisions)
	}
}

func TestSplitSiblingFanout(t *testing.T) {
	// Streams for many sibling indices must all start differently — the
	// per-worker/per-shard assignment the parallel inference layer relies on.
	r := NewRNG(5)
	seen := map[uint64]bool{}
	for i := uint64(0); i < 1000; i++ {
		v := r.Split(i).Uint64()
		if seen[v] {
			t.Fatalf("duplicate first draw across sibling streams at i=%d", i)
		}
		seen[v] = true
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %g", v)
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := NewRNG(9)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) only hit %d values", len(seen))
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(11)
	p := r.Perm(10)
	seen := make([]bool, 10)
	for _, v := range p {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestNormalMoments(t *testing.T) {
	r := NewRNG(5)
	s := NewSummary()
	for i := 0; i < 200000; i++ {
		s.Add(r.Normal(3, 2))
	}
	if math.Abs(s.Mean()-3) > 0.05 {
		t.Fatalf("normal mean = %g, want ~3", s.Mean())
	}
	if math.Abs(s.Std()-2) > 0.05 {
		t.Fatalf("normal std = %g, want ~2", s.Std())
	}
}

func TestExponentialMean(t *testing.T) {
	r := NewRNG(6)
	s := NewSummary()
	for i := 0; i < 200000; i++ {
		s.Add(r.Exponential(4))
	}
	if math.Abs(s.Mean()-0.25) > 0.01 {
		t.Fatalf("exponential mean = %g, want ~0.25", s.Mean())
	}
}

func TestGammaMoments(t *testing.T) {
	r := NewRNG(8)
	shape, scale := 3.0, 2.0
	s := NewSummary()
	for i := 0; i < 200000; i++ {
		s.Add(r.Gamma(shape, scale))
	}
	if math.Abs(s.Mean()-shape*scale) > 0.1 {
		t.Fatalf("gamma mean = %g, want ~%g", s.Mean(), shape*scale)
	}
	if math.Abs(s.Variance()-shape*scale*scale) > 0.5 {
		t.Fatalf("gamma var = %g, want ~%g", s.Variance(), shape*scale*scale)
	}
}

func TestGammaSmallShape(t *testing.T) {
	r := NewRNG(10)
	s := NewSummary()
	for i := 0; i < 100000; i++ {
		v := r.Gamma(0.5, 1)
		if v < 0 {
			t.Fatalf("negative gamma variate %g", v)
		}
		s.Add(v)
	}
	if math.Abs(s.Mean()-0.5) > 0.05 {
		t.Fatalf("gamma(0.5,1) mean = %g, want ~0.5", s.Mean())
	}
}

func TestLogNormalPositive(t *testing.T) {
	r := NewRNG(12)
	for i := 0; i < 1000; i++ {
		if r.LogNormal(0, 1) <= 0 {
			t.Fatal("lognormal must be positive")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	r := NewRNG(14)
	hits := 0
	n := 100000
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	rate := float64(hits) / float64(n)
	if math.Abs(rate-0.3) > 0.01 {
		t.Fatalf("bernoulli rate = %g, want ~0.3", rate)
	}
}

func TestCategoricalWeights(t *testing.T) {
	r := NewRNG(15)
	counts := make([]int, 3)
	n := 90000
	for i := 0; i < n; i++ {
		counts[r.Categorical([]float64{1, 2, 3})]++
	}
	for i, want := range []float64{1.0 / 6, 2.0 / 6, 3.0 / 6} {
		got := float64(counts[i]) / float64(n)
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("categorical bucket %d rate = %g, want ~%g", i, got, want)
		}
	}
}

func TestCategoricalPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on empty weights")
		}
	}()
	NewRNG(1).Categorical(nil)
}

func TestSummaryWelford(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	s := Summarize(xs)
	if s.Mean() != 5 {
		t.Fatalf("mean = %g, want 5", s.Mean())
	}
	if s.Variance() != 4 {
		t.Fatalf("variance = %g, want 4", s.Variance())
	}
	if s.Min != 2 || s.Max != 9 {
		t.Fatalf("min/max = %g/%g", s.Min, s.Max)
	}
}

func TestSummaryEmpty(t *testing.T) {
	s := NewSummary()
	if s.Mean() != 0 || s.Variance() != 0 {
		t.Fatal("empty summary should be zero")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if Quantile(xs, 0) != 1 || Quantile(xs, 1) != 5 || Quantile(xs, 0.5) != 3 {
		t.Fatal("quantile endpoints/median wrong")
	}
	if q := Quantile(xs, 0.25); q != 2 {
		t.Fatalf("q25 = %g, want 2", q)
	}
}

func TestCovarianceCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{2, 4, 6, 8}
	if c := Correlation(xs, ys); math.Abs(c-1) > 1e-12 {
		t.Fatalf("perfect correlation = %g", c)
	}
	neg := []float64{8, 6, 4, 2}
	if c := Correlation(xs, neg); math.Abs(c+1) > 1e-12 {
		t.Fatalf("perfect anti-correlation = %g", c)
	}
	if Correlation(xs, []float64{5, 5, 5, 5}) != 0 {
		t.Fatal("zero-variance correlation should be 0")
	}
}

func TestNormalPDFCDF(t *testing.T) {
	// Standard normal at 0.
	if math.Abs(NormalPDF(0, 0, 1)-1/math.Sqrt(2*math.Pi)) > 1e-12 {
		t.Fatal("pdf(0) wrong")
	}
	if math.Abs(NormalCDF(0, 0, 1)-0.5) > 1e-12 {
		t.Fatal("cdf(0) wrong")
	}
	if math.Abs(NormalCDF(1.96, 0, 1)-0.975) > 1e-3 {
		t.Fatal("cdf(1.96) wrong")
	}
}

func TestNormalLogPDFConsistent(t *testing.T) {
	for _, x := range []float64{-2, 0, 1.5} {
		if math.Abs(math.Exp(NormalLogPDF(x, 1, 2))-NormalPDF(x, 1, 2)) > 1e-12 {
			t.Fatalf("logpdf inconsistent at %g", x)
		}
	}
}

func TestEmpiricalExceedance(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if EmpiricalExceedance(xs, 2.5) != 0.5 {
		t.Fatal("exceedance wrong")
	}
	if EmpiricalExceedance(nil, 0) != 0 {
		t.Fatal("empty exceedance should be 0")
	}
}

// Property: quantile is monotone in q.
func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		xs := make([]float64, 20)
		for i := range xs {
			xs[i] = r.Normal(0, 10)
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			v := Quantile(xs, math.Min(q, 1))
			if v < prev-1e-12 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Summary matches two-pass mean/variance.
func TestSummaryMatchesTwoPassProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		xs := make([]float64, 50)
		for i := range xs {
			xs[i] = r.Normal(5, 3)
		}
		s := Summarize(xs)
		if math.Abs(s.Mean()-Mean(xs)) > 1e-9 {
			return false
		}
		mu := Mean(xs)
		v := 0.0
		for _, x := range xs {
			v += (x - mu) * (x - mu)
		}
		v /= float64(len(xs))
		return math.Abs(s.Variance()-v) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: NormalCDF is within [0,1] and monotone.
func TestNormalCDFMonotoneProperty(t *testing.T) {
	f := func(muRaw int16, spread uint8) bool {
		mu := float64(muRaw) / 100
		sigma := 0.1 + float64(spread%50)/10
		prev := -1.0
		for i := -20; i <= 20; i++ {
			x := mu + float64(i)*sigma/2
			c := NormalCDF(x, mu, sigma)
			if c < 0 || c > 1 || c < prev {
				return false
			}
			prev = c
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPoissonMoments(t *testing.T) {
	r := NewRNG(30)
	for _, lambda := range []float64{0.5, 3, 12, 60} {
		s := NewSummary()
		for i := 0; i < 100000; i++ {
			v := r.Poisson(lambda)
			if v < 0 {
				t.Fatalf("negative Poisson %d", v)
			}
			s.Add(float64(v))
		}
		if math.Abs(s.Mean()-lambda)/lambda > 0.03 {
			t.Fatalf("Poisson(%g) mean %g", lambda, s.Mean())
		}
		if math.Abs(s.Variance()-lambda)/lambda > 0.06 {
			t.Fatalf("Poisson(%g) variance %g", lambda, s.Variance())
		}
	}
}

func TestPoissonPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for lambda <= 0")
		}
	}()
	NewRNG(1).Poisson(0)
}

func TestShuffle(t *testing.T) {
	r := NewRNG(31)
	xs := []int{0, 1, 2, 3, 4, 5, 6, 7}
	orig := append([]int(nil), xs...)
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	seen := map[int]bool{}
	for _, v := range xs {
		seen[v] = true
	}
	if len(seen) != len(orig) {
		t.Fatalf("shuffle lost elements: %v", xs)
	}
}

func TestSummaryMinMax(t *testing.T) {
	s := Summarize([]float64{3, -1, 7})
	if s.Min != -1 || s.Max != 7 {
		t.Fatalf("min/max %g/%g", s.Min, s.Max)
	}
}

func TestQuantilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on empty input")
		}
	}()
	Quantile(nil, 0.5)
}

func TestCovariancePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	Covariance([]float64{1}, []float64{1, 2})
}

func TestNormalPDFPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for sigma <= 0")
		}
	}()
	NormalPDF(0, 0, 0)
}
