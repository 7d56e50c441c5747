package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"strconv"

	"kertbn/internal/bn"
	"kertbn/internal/infer"
	"kertbn/internal/obs"
	"kertbn/internal/stats"
)

// Posterior-query metrics: every dComp/pAccel/threshold query funnels
// through posteriorForNode, so the "infer.query" span histogram is the
// end-to-end query latency regardless of which inference engine (VE,
// joint-Gaussian, likelihood weighting) answers it.
var (
	inferQueries  = obs.C("infer.queries")
	inferEvidence = obs.HCount("infer.query.evidence_vars")
)

// Posterior is a unified one-dimensional distribution summary used by
// dComp and pAccel: a set of weighted point masses (bin centers for
// discrete inference, weighted samples for Monte-Carlo inference).
type Posterior struct {
	// Support holds the point locations; Probs the matching masses
	// (normalized to sum to 1).
	Support []float64
	Probs   []float64
	// Edges, when non-nil (discrete inference), gives the [lo, hi) interval
	// each point mass represents; Exceedance then spreads each bin's mass
	// uniformly over its interval instead of treating it as a point.
	Edges [][2]float64
	// Gaussian, when non-nil, marks the posterior as exactly Gaussian
	// (produced by joint-Gaussian conditioning on linear workflows);
	// moment and tail queries then use the closed form, and Support/Probs
	// hold a rendering grid.
	Gaussian *GaussianParams
}

// GaussianParams parameterizes an exact Gaussian posterior.
type GaussianParams struct {
	Mu, Sigma float64
}

// newGaussianPosterior wraps an exact Gaussian with a ±4σ plotting grid.
func newGaussianPosterior(mu, sigma float64) *Posterior {
	const gridN = 81
	if sigma < 1e-9 {
		sigma = 1e-9
	}
	support := make([]float64, gridN)
	probs := make([]float64, gridN)
	total := 0.0
	for i := 0; i < gridN; i++ {
		z := -4 + 8*float64(i)/float64(gridN-1)
		support[i] = mu + z*sigma
		probs[i] = stats.NormalPDF(support[i], mu, sigma)
		total += probs[i]
	}
	for i := range probs {
		probs[i] /= total
	}
	return &Posterior{
		Support:  support,
		Probs:    probs,
		Gaussian: &GaussianParams{Mu: mu, Sigma: sigma},
	}
}

// NewPosterior validates and normalizes a point-mass distribution. The
// result holds copies of support and probs.
func NewPosterior(support, probs []float64) (*Posterior, error) {
	return adoptPosterior(append([]float64(nil), support...), append([]float64(nil), probs...))
}

// adoptPosterior is NewPosterior on slices the caller hands over: probs is
// validated and normalized in place with the same division, and the result
// keeps both slices. The Monte-Carlo path builds on the sampler's fresh
// slices with it, so a 20,000-sample answer is not copied a second time.
func adoptPosterior(support, probs []float64) (*Posterior, error) {
	if len(support) != len(probs) || len(support) == 0 {
		return nil, fmt.Errorf("core: posterior needs equal-length non-empty support/probs")
	}
	total := 0.0
	for _, p := range probs {
		if p < 0 || math.IsNaN(p) {
			return nil, fmt.Errorf("core: negative or NaN posterior mass %g", p)
		}
		total += p
	}
	if total <= 0 {
		return nil, fmt.Errorf("core: posterior has no mass")
	}
	for i, p := range probs {
		probs[i] = p / total
	}
	return &Posterior{Support: support, Probs: probs}, nil
}

// Mean returns the posterior mean.
func (p *Posterior) Mean() float64 {
	if p.Gaussian != nil {
		return p.Gaussian.Mu
	}
	s := 0.0
	for i, v := range p.Support {
		s += p.Probs[i] * v
	}
	return s
}

// Variance returns the posterior variance.
func (p *Posterior) Variance() float64 {
	if p.Gaussian != nil {
		return p.Gaussian.Sigma * p.Gaussian.Sigma
	}
	mu := p.Mean()
	s := 0.0
	for i, v := range p.Support {
		d := v - mu
		s += p.Probs[i] * d * d
	}
	return s
}

// Std returns the posterior standard deviation.
func (p *Posterior) Std() float64 { return math.Sqrt(p.Variance()) }

// Exceedance returns P(X > h). With Edges set, a bin straddling h
// contributes the fraction of its interval above h (mass spread uniformly
// within the bin); otherwise point masses strictly above h count.
func (p *Posterior) Exceedance(h float64) float64 {
	if p.Gaussian != nil {
		return 1 - stats.NormalCDF(h, p.Gaussian.Mu, p.Gaussian.Sigma)
	}
	s := 0.0
	if p.Edges != nil {
		for i, e := range p.Edges {
			lo, hi := e[0], e[1]
			switch {
			case h <= lo:
				s += p.Probs[i]
			case h >= hi:
				// nothing
			default:
				s += p.Probs[i] * (hi - h) / (hi - lo)
			}
		}
		return s
	}
	for i, v := range p.Support {
		if v > h {
			s += p.Probs[i]
		}
	}
	return s
}

// Quantile returns the q-quantile of the posterior: the smallest support
// point at which the cumulative mass, summed in value order, reaches q (the
// largest point if it never does). Exact Gaussians bisect the closed-form
// CDF.
func (p *Posterior) Quantile(q float64) float64 {
	if p.Gaussian != nil {
		return p.Gaussian.quantile(q)
	}
	var out [1]float64
	quantileWalk(p.sortedPoints(), []float64{q}, out[:])
	return out[0]
}

// quantile bisects the Gaussian CDF for its q-quantile.
func (g *GaussianParams) quantile(q float64) float64 {
	lo := g.Mu - 10*g.Sigma
	hi := g.Mu + 10*g.Sigma
	for i := 0; i < 80; i++ {
		mid := 0.5 * (lo + hi)
		if stats.NormalCDF(mid, g.Mu, g.Sigma) < q {
			lo = mid
		} else {
			hi = mid
		}
	}
	return 0.5 * (lo + hi)
}

// massPoint is one (value, mass) pair of a posterior.
type massPoint struct{ v, w float64 }

// sortedPoints copies the posterior's pairs and sorts them by value.
func (p *Posterior) sortedPoints() []massPoint {
	ps := make([]massPoint, len(p.Support))
	for i, v := range p.Support {
		ps[i] = massPoint{v, p.Probs[i]}
	}
	slices.SortFunc(ps, func(a, b massPoint) int { return cmp.Compare(a.v, b.v) })
	return ps
}

// quantileWalk sets out[k] to the qs[k]-quantile of the value-sorted points:
// the first point at which the running mass reaches qs[k] (acc >= q), or
// the last point if it never does. qs must be ascending. The running mass
// is summed once for all of them, in the order a single-quantile pass sums
// it, so each entry equals that pass bit for bit.
func quantileWalk(ps []massPoint, qs, out []float64) {
	j, acc := 0, ps[0].w
	for k, q := range qs {
		for !(acc >= q) && j < len(ps)-1 {
			j++
			acc += ps[j].w
		}
		out[k] = ps[j].v
	}
}

// SummaryPercents is the quantile ladder of a Summary, in percent. Its
// entries are labelled "p1" … "p99" wherever a summary is shown.
var SummaryPercents = [...]int{1, 5, 10, 25, 50, 75, 90, 95, 99}

// summaryLevels is SummaryPercents as probabilities (float64(pc)/100 is
// the same float64 as the literal 0.95, so ladder entries equal
// Quantile(0.95) and friends).
var summaryLevels = func() (l [len(SummaryPercents)]float64) {
	for i, pc := range SummaryPercents {
		l[i] = float64(pc) / 100
	}
	return l
}()

// SummaryBins is the histogram resolution of a Monte-Carlo or exact
// Gaussian Summary. Discrete posteriors keep their own bins.
const SummaryBins = 64

// Summary is the fixed-size description a posterior is served as: its
// moments, the SummaryPercents quantile ladder, and a histogram. Its size
// does not grow with the number of Monte-Carlo samples behind it.
type Summary struct {
	Mean, Std float64
	// Quantiles[i] is Quantile(SummaryPercents[i]/100).
	Quantiles [len(SummaryPercents)]float64
	// Probs[i] is the mass in [Edges[i], Edges[i+1]); the last bin also
	// holds Edges[len(Probs)]. len(Edges) == len(Probs)+1, ascending, and
	// the masses sum to 1.
	Edges, Probs []float64
}

// Summary computes the posterior's Summary with one sort of its points.
// Monte-Carlo posteriors get SummaryBins equal-width bins over [min, max]
// of the support (one bin when every point has the same value); discrete
// posteriors return their own Edges bins; exact Gaussians fill SummaryBins
// bins over µ±4σ from the closed-form CDF, the outer two also holding the
// tails beyond.
func (p *Posterior) Summary() Summary {
	s := Summary{Mean: p.Mean(), Std: p.Std()}
	if g := p.Gaussian; g != nil {
		for i, q := range summaryLevels {
			s.Quantiles[i] = g.quantile(q)
		}
		s.Edges, s.Probs = g.histogram()
		return s
	}
	ps := p.sortedPoints()
	quantileWalk(ps, summaryLevels[:], s.Quantiles[:])
	if p.Edges != nil {
		s.Edges = make([]float64, len(p.Edges)+1)
		s.Edges[0] = p.Edges[0][0]
		for i, e := range p.Edges {
			s.Edges[i+1] = e[1]
		}
		s.Probs = append([]float64(nil), p.Probs...)
		return s
	}
	s.Edges, s.Probs = pointHistogram(ps)
	return s
}

// pointHistogram bins value-sorted points into SummaryBins equal-width
// bins over [min, max], walking bins and points together so each point
// lands in the bin whose stored edges hold it.
func pointHistogram(ps []massPoint) (edges, probs []float64) {
	lo, hi := ps[0].v, ps[len(ps)-1].v
	if !(hi > lo) {
		total := 0.0
		for _, pt := range ps {
			total += pt.w
		}
		return []float64{lo, hi}, []float64{total}
	}
	edges = make([]float64, SummaryBins+1)
	width := (hi - lo) / SummaryBins
	for i := range edges {
		edges[i] = lo + float64(i)*width
	}
	edges[SummaryBins] = hi
	probs = make([]float64, SummaryBins)
	b := 0
	for _, pt := range ps {
		for b < SummaryBins-1 && pt.v >= edges[b+1] {
			b++
		}
		probs[b] += pt.w
	}
	return edges, probs
}

// histogram fills SummaryBins equal-width bins over µ±4σ with CDF
// differences; the first bin's mass starts at −∞ and the last one's ends
// at +∞, so the masses sum to 1.
func (g *GaussianParams) histogram() (edges, probs []float64) {
	edges = make([]float64, SummaryBins+1)
	for i := range edges {
		edges[i] = g.Mu + (-4+8*float64(i)/SummaryBins)*g.Sigma
	}
	probs = make([]float64, SummaryBins)
	prev := 0.0
	for i := range probs {
		next := 1.0
		if i < SummaryBins-1 {
			next = stats.NormalCDF(edges[i+1], g.Mu, g.Sigma)
		}
		probs[i] = next - prev
		prev = next
	}
	return edges, probs
}

// posteriorForNode runs the model-appropriate inference path for one target
// node given evidence in raw (continuous) units. workers <= 1 keeps the
// serial Monte-Carlo sampler (the historical default, bit-for-bit stable
// across releases); workers > 1 switches to the sharded sampler of
// infer.LikelihoodWeightingParallel, whose output is deterministic for a
// fixed rng at any worker count but uses a different stream layout than the
// serial sampler. Exact paths (VE, joint-Gaussian) ignore workers.
//
// A non-nil buf gives the serial sampler its sample storage: the returned
// Posterior then aliases buf and is valid until buf's next use.
func posteriorForNode(m *Model, target int, evidence map[int]float64, nSamples, workers int, rng *stats.RNG, buf *infer.WeightedSamples) (*Posterior, error) {
	var sp *obs.Span
	if tc, first := m.ClaimFirstQueryTrace(); first {
		// The first query served by a freshly swapped-in generation joins
		// the trace of the reconstruction that produced it — closing the
		// loop from measurement to the first answer the new model gives.
		sp = obs.StartSpanCtx("infer.query", tc)
		sp.SetAttr("first_query_of_generation", strconv.Itoa(m.Generation()))
	} else {
		sp = obs.StartSpan("infer.query")
	}
	defer sp.End()
	inferQueries.Inc()
	inferEvidence.Observe(float64(len(evidence)))
	if target < 0 || target >= m.Net.N() {
		return nil, fmt.Errorf("core: target node %d out of range", target)
	}
	if _, isEv := evidence[target]; isEv {
		return nil, fmt.Errorf("core: target node %d is also evidence", target)
	}
	switch m.Type {
	case DiscreteModel:
		ev := infer.DiscreteEvidence{}
		for id, v := range evidence {
			ev[id] = m.Codec.Discretizers[id].Bin(v)
		}
		f, err := infer.Posterior(m.Net, target, ev)
		if err != nil {
			return nil, err
		}
		disc := m.Codec.Discretizers[target]
		support := make([]float64, disc.Bins)
		edges := make([][2]float64, disc.Bins)
		for b := range support {
			support[b] = disc.Center(b)
			lo, hi := disc.Edges(b)
			edges[b] = [2]float64{lo, hi}
		}
		post, err := NewPosterior(support, f.Values)
		if err != nil {
			return nil, err
		}
		post.Edges = edges
		return post, nil
	case ContinuousModel:
		// Exact joint-Gaussian conditioning when the model is (or can be
		// made) fully linear-Gaussian — always for NRT-BN, and for KERT-BN
		// whenever the workflow's f is linear (no parallel blocks) and
		// leak-free.
		if post, ok, err := exactGaussianPosterior(m, target, evidence); ok {
			return post, err
		}
		if nSamples <= 0 {
			nSamples = 20000
		}
		if rng == nil {
			rng = stats.NewRNG(1)
		}
		// The compiled query plan is resolved through the per-model cache:
		// compilation is paid once per (model generation, query shape), and
		// every later query with the same shape — a gateway serving the same
		// route, or a CLI's second query — reuses it. Results are unchanged:
		// QueryPlan.Serial is bit-for-bit the serial sampler, and .Parallel
		// the sharded one.
		plan, err := m.queryPlan(target, evidence)
		if err != nil {
			return nil, err
		}
		ws := buf
		if workers > 1 {
			ws, err = plan.Parallel(context.Background(), infer.ContinuousEvidence(evidence), nSamples, workers, rng)
		} else {
			if ws == nil {
				ws = &infer.WeightedSamples{}
			}
			err = plan.SerialInto(ws, infer.ContinuousEvidence(evidence), nSamples, rng)
		}
		if err != nil {
			return nil, err
		}
		return adoptPosterior(ws.Values, ws.Weights)
	default:
		return nil, fmt.Errorf("core: unknown model type %v", m.Type)
	}
}

// PriorMarginal returns the no-evidence marginal of a node — the baseline
// dComp compares its updated posterior against.
func PriorMarginal(m *Model, target int, nSamples int, rng *stats.RNG) (*Posterior, error) {
	return posteriorForNode(m, target, nil, nSamples, 1, rng, nil)
}

// exactGaussianPosterior attempts the closed-form path: if every CPD is
// linear-Gaussian after (possibly) replacing a leak-free DetFunc D with its
// linear equivalent, condition the joint Gaussian exactly. ok=false means
// the caller must fall back to Monte Carlo.
func exactGaussianPosterior(m *Model, target int, evidence map[int]float64) (*Posterior, bool, error) {
	work := m.Net
	if det, isDet := m.Net.Node(m.DNode).CPD.(*bn.DetFunc); isDet {
		if m.Wf == nil || det.Leak > 0 {
			return nil, false, nil
		}
		coef, linear := m.Wf.LinearCoefficients()
		if !linear {
			return nil, false, nil
		}
		// D's parents are the service nodes 0..n-1 in sorted order, so the
		// service-indexed coefficients line up directly.
		if len(coef) < m.NumServices {
			padded := make([]float64, m.NumServices)
			copy(padded, coef)
			coef = padded
		}
		work = cloneWithCPDs(m.Net)
		if err := work.SetCPD(m.DNode, bn.NewLinearGaussian(0, coef[:m.NumServices], det.Sigma)); err != nil {
			return nil, false, err
		}
	}
	for v := 0; v < work.N(); v++ {
		if _, ok := work.Node(v).CPD.(*bn.LinearGaussian); !ok {
			return nil, false, nil
		}
	}
	jg, err := infer.BuildJointGaussian(work)
	if err != nil {
		return nil, false, nil // fall back rather than fail
	}
	mu, variance, err := jg.ConditionScalar(target, evidence)
	if err != nil {
		return nil, true, err
	}
	return newGaussianPosterior(mu, math.Sqrt(math.Max(variance, 0))), true, nil
}

// cloneWithCPDs copies structure and re-attaches the same CPD objects
// (CPDs are immutable in use, so sharing is safe).
func cloneWithCPDs(n *bn.Network) *bn.Network {
	c := n.CloneStructure()
	for v := 0; v < n.N(); v++ {
		c.Node(v).CPD = n.Node(v).CPD
	}
	return c
}
