package stats

import "math"

// RNG is a small, fast, deterministic generator (SplitMix64 core with an
// xorshift-style output scrambler).
//
// Concurrency and determinism contract: an *RNG carries mutable state, so
// the drawing methods (Uint64, Float64, Normal, ...) must never be called
// from two goroutines at once — sharing one *RNG across concurrent queries
// silently decorrelates both streams AND makes results depend on goroutine
// scheduling, destroying reproducibility. Parallel code must instead give
// each worker/shard its own stream derived with Split(i): Split is a pure
// function of the parent's current state and the index i (it does NOT
// advance the parent), so any number of goroutines may call Split on a
// quiescent parent concurrently, and the set of derived streams — and
// therefore every downstream result — depends only on the seed and the
// index assignment, not on the worker count or interleaving.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Split derives the i-th child stream from r's current state without
// advancing r. Children for distinct i are decorrelated from each other and
// from the parent's own output sequence (the state is passed through two
// rounds of SplitMix64-style finalization). Because Split is read-only on
// the parent, it is safe to call concurrently as long as no goroutine is
// simultaneously drawing from the parent.
func (r *RNG) Split(i uint64) *RNG {
	z := r.state + 0x9E3779B97F4A7C15*(i+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return &RNG{state: z*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03}
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Float64 returns a uniform variate in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle permutes xs in place.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Normal returns a variate from N(mu, sigma²) using the Marsaglia polar
// method. sigma must be >= 0.
func (r *RNG) Normal(mu, sigma float64) float64 {
	return mu + sigma*r.StdNormal()
}

// StdNormal returns a standard normal variate.
func (r *RNG) StdNormal() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Exponential returns a variate from Exp(rate); mean 1/rate.
func (r *RNG) Exponential(rate float64) float64 {
	if rate <= 0 {
		panic("stats: Exponential with non-positive rate")
	}
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -math.Log(u) / rate
}

// Gamma returns a variate from Gamma(shape, scale) via Marsaglia–Tsang.
func (r *RNG) Gamma(shape, scale float64) float64 {
	if shape <= 0 || scale <= 0 {
		panic("stats: Gamma with non-positive parameter")
	}
	if shape < 1 {
		// Boost: Gamma(a) = Gamma(a+1) * U^(1/a).
		u := r.Float64()
		for u == 0 {
			u = r.Float64()
		}
		return r.Gamma(shape+1, scale) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := r.StdNormal()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v * scale
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v * scale
		}
	}
}

// LogNormal returns a variate whose logarithm is N(mu, sigma²).
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Normal(mu, sigma))
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	return r.Float64() < p
}

// Poisson returns a variate with the given mean. Knuth's product method is
// used for small lambda; larger means fall back to a normal approximation
// (rounded, clamped at zero), which is ample for simulated counters.
func (r *RNG) Poisson(lambda float64) int {
	if lambda <= 0 {
		panic("stats: Poisson with non-positive lambda")
	}
	if lambda > 30 {
		v := r.Normal(lambda, math.Sqrt(lambda))
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Categorical draws an index from the (not necessarily normalized)
// non-negative weight vector w. It panics on an empty or all-zero vector.
func (r *RNG) Categorical(w []float64) int {
	total := 0.0
	for _, v := range w {
		if v < 0 {
			panic("stats: Categorical with negative weight")
		}
		total += v
	}
	if total <= 0 || len(w) == 0 {
		panic("stats: Categorical with no mass")
	}
	u := r.Float64() * total
	acc := 0.0
	for i, v := range w {
		acc += v
		if u < acc {
			return i
		}
	}
	return len(w) - 1
}
