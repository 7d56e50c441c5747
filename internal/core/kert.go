package core

import (
	"fmt"
	"math"
	"slices"

	"kertbn/internal/bn"
	"kertbn/internal/dataset"
	"kertbn/internal/learn"
	"kertbn/internal/obs"
	"kertbn/internal/stats"
	"kertbn/internal/workflow"
)

// MetricKind selects which transaction-oriented metric the model captures
// (Section 3.3): the workflow maps to a different deterministic f per
// metric.
type MetricKind int

const (
	// ResponseTimeMetric models end-to-end response time:
	// f = Cardoso reduction (sums, maxes, ...). The paper's main case.
	ResponseTimeMetric MetricKind = iota
	// TimeoutCountMetric models end-to-end timeout request counts:
	// f = Σ_i X_i over per-service sub-transaction counts.
	TimeoutCountMetric
)

// String renders the metric kind.
func (m MetricKind) String() string {
	switch m {
	case ResponseTimeMetric:
		return "response-time"
	case TimeoutCountMetric:
		return "timeout-count"
	default:
		return fmt.Sprintf("MetricKind(%d)", int(m))
	}
}

// KERTConfig configures KERT-BN construction.
type KERTConfig struct {
	// Workflow supplies both the elapsed-time DAG structure and the
	// deterministic function f of Equation 4. Required.
	Workflow *workflow.Node
	// Metric selects the modeled quantity (default ResponseTimeMetric).
	Metric MetricKind
	// Resources optionally declares shared-resource knowledge; each entry
	// becomes a node whose parents are the sharing services (Section 3.2).
	Resources []workflow.ResourceSharing
	// Leak is l in Equation 4 — the probability that D escapes f(X).
	// The Section-4 simulations use 0.
	Leak float64
	// DetSigma is the measurement-noise width of the deterministic
	// component around f(X). Zero (the default) estimates it from the
	// training residuals D − f(X) — the one scalar of the Equation-4 CPD
	// that data can supply.
	DetSigma float64
	// LeakLo/LeakHi bound the uniform leak component (continuous models,
	// only consulted when Leak > 0).
	LeakLo, LeakHi float64
	// Type selects continuous (Section 4) or discrete (Section 5).
	Type ModelType
	// Bins is the per-variable state count for discrete models (default 5).
	Bins int
	// Binning picks the discretization method (default Quantile).
	Binning dataset.BinningMethod
	// Codec, when non-nil, freezes the discretization for discrete models
	// instead of refitting it from each training set. Incremental rebuilds
	// require a frozen codec — count accumulators are only valid while the
	// bin geometry stays fixed — and it also lets two builds over different
	// windows share one bin geometry for exact comparison.
	Codec *dataset.Codec
	// Learn controls parameter smoothing.
	Learn learn.Options
	// MaxCPTEntries guards discrete D-CPT generation: bins^n·bins may not
	// exceed it (default 4,000,000). Large systems should use the
	// continuous model, exactly as the paper's BNT setup did.
	MaxCPTEntries int
	// DetCPTSamples is S, the number of samples of f behind each discrete
	// D-CPT row. 1 maps the parent-bin centers through f, the direct
	// Equation-4 translation. Values > 1 (default 16) integrate f over the
	// *empirical within-bin training values*, capturing the within-bin
	// spread of D that center-point quantization loses: each service's bin
	// contributes S stratified quantiles of its training values, shared by
	// every row with that bin, so each row is a Latin-hypercube sample of
	// its parent box.
	DetCPTSamples int
	// LearnDCPD is an ablation knob: instead of deriving P(D|X) from the
	// workflow function (Equation 4), learn it from data like any other
	// CPD. The structure still comes from workflow knowledge. This is the
	// "structure-only knowledge" middle ground between KERT-BN and NRT-BN.
	LearnDCPD bool
}

// DefaultKERTConfig returns the settings used throughout the Section-4
// simulations: continuous model, no leak, tight deterministic noise.
func DefaultKERTConfig(wf *workflow.Node) KERTConfig {
	return KERTConfig{
		Workflow: wf,
		Leak:     0,
		DetSigma: 0, // estimated from training residuals
		Type:     ContinuousModel,
		Bins:     5,
		Binning:  dataset.Quantile,
		Learn:    learn.DefaultOptions(),
	}
}

// metricTree returns the workflow tree whose ResponseTime is the
// deterministic function f for the configured metric: the workflow itself
// for response time, and the flat sum over its services for timeout counts.
func (cfg *KERTConfig) metricTree() *workflow.Node {
	switch cfg.Metric {
	case TimeoutCountMetric:
		return cfg.Workflow.TimeoutCountTree()
	default:
		return cfg.Workflow
	}
}

// metricFunc resolves the deterministic function f for the configured
// metric.
func (cfg *KERTConfig) metricFunc() func([]float64) float64 {
	return cfg.metricTree().ResponseTime
}

func (cfg *KERTConfig) fillDefaults() {
	if cfg.Bins == 0 {
		cfg.Bins = 5
	}
	if cfg.MaxCPTEntries == 0 {
		cfg.MaxCPTEntries = 4_000_000
	}
	if cfg.DetCPTSamples <= 0 {
		cfg.DetCPTSamples = 16
	}
}

// BuildKERT constructs a KERT-BN from domain knowledge plus training data:
// the DAG comes from workflow upstream relations (and resource sharing),
// the D-CPD from the Cardoso-reduced f with leak l, and only the remaining
// per-service CPDs are learned from data. This is the paper's Section-3
// construction; no structure learning happens.
//
// The build is traced end-to-end: a "build.kert" span with per-phase
// children "build.kert.structure" (DAG assembly), "build.kert.dcpt"
// (D-node CPD generation from the workflow function) and "build.kert.cpd"
// (parameter learning of the unknown CPDs) — the Fig. 3 quantities,
// observable live via internal/obs.
func BuildKERT(cfg KERTConfig, train *dataset.Dataset) (*Model, error) {
	sp := obs.StartSpan("build.kert")
	defer sp.End()
	cfg.fillDefaults()
	if cfg.Workflow == nil {
		return nil, fmt.Errorf("core: KERT-BN requires a workflow")
	}
	if err := cfg.Workflow.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid workflow: %w", err)
	}
	services := cfg.Workflow.Services()
	n := len(services)
	for i, s := range services {
		if s != i {
			return nil, fmt.Errorf("core: workflow service indices must be dense 0..n-1, got %v", services)
		}
	}
	wantCols := n + len(cfg.Resources) + 1
	if train.NumCols() != wantCols {
		return nil, fmt.Errorf("core: training data has %d columns, want %d (services+resources+D)", train.NumCols(), wantCols)
	}
	if train.NumRows() == 0 {
		return nil, fmt.Errorf("core: empty training data")
	}
	switch cfg.Type {
	case ContinuousModel:
		return buildContinuousKERT(cfg, train, n, sp)
	case DiscreteModel:
		return buildDiscreteKERT(cfg, train, n, sp)
	default:
		return nil, fmt.Errorf("core: unknown model type %v", cfg.Type)
	}
}

// buildStructure assembles the shared node/edge skeleton.
func buildStructure(cfg KERTConfig, n int, discrete bool, bins int) (*bn.Network, error) {
	net := bn.NewNetwork()
	names := cfg.Workflow.ServiceNames()
	addNode := func(name string) (*bn.Node, error) {
		if discrete {
			return net.AddDiscreteNode(name, bins)
		}
		return net.AddContinuousNode(name)
	}
	for i := 0; i < n; i++ {
		name := names[i]
		if name == "" {
			name = fmt.Sprintf("X%d", i+1)
		}
		if _, err := addNode(name); err != nil {
			return nil, err
		}
	}
	for ri, r := range cfg.Resources {
		if _, err := addNode("res_" + r.Name); err != nil {
			return nil, err
		}
		for _, s := range r.Services {
			if s < 0 || s >= n {
				return nil, fmt.Errorf("core: resource %q references unknown service %d", r.Name, s)
			}
			if err := net.AddEdge(s, n+ri); err != nil {
				return nil, fmt.Errorf("core: resource edge: %w", err)
			}
		}
	}
	if _, err := addNode("D"); err != nil {
		return nil, err
	}
	dID := n + len(cfg.Resources)
	// Workflow upstream edges among elapsed-time nodes.
	for _, e := range cfg.Workflow.UpstreamEdges() {
		if err := net.AddEdge(e.From, e.To); err != nil {
			return nil, fmt.Errorf("core: workflow edge %d->%d: %w", e.From, e.To, err)
		}
	}
	// D depends on every elapsed-time node.
	for i := 0; i < n; i++ {
		if err := net.AddEdge(i, dID); err != nil {
			return nil, fmt.Errorf("core: D edge: %w", err)
		}
	}
	return net, nil
}

func buildContinuousKERT(cfg KERTConfig, train *dataset.Dataset, n int, sp *obs.Span) (*Model, error) {
	st := sp.Child("build.kert.structure")
	net, err := buildStructure(cfg, n, false, 0)
	st.End()
	if err != nil {
		return nil, err
	}
	dID := n + len(cfg.Resources)
	if cfg.LearnDCPD {
		// Ablation: learn every CPD, including D's, from data.
		lsp := sp.Child("build.kert.cpd")
		cost, err := learn.FitParameters(net, train.Rows, cfg.Learn)
		lsp.End()
		if err != nil {
			return nil, err
		}
		if err := net.Validate(); err != nil {
			return nil, err
		}
		return &Model{
			Net:          net,
			Wf:           cfg.Workflow,
			NumServices:  n,
			NumResources: len(cfg.Resources),
			DNode:        dID,
			Type:         ContinuousModel,
			Metric:       cfg.Metric,
			Cost:         cost,
			Knowledge:    true,
		}, nil
	}
	// Knowledge-given D-CPD (Equation 4): parents of D are exactly the
	// service nodes 0..n-1, whose sorted order equals service-index order,
	// so the Cardoso function applies directly.
	dsp := sp.Child("build.kert.dcpt")
	sigma := cfg.DetSigma
	if sigma <= 0 {
		// Estimate the measurement-noise width from training residuals.
		f := cfg.metricFunc()
		res := stats.NewSummary()
		for _, r := range train.Rows {
			res.Add(r[train.NumCols()-1] - f(r[:n]))
		}
		sigma = res.Std()
		const minSigma = 1e-4
		if sigma < minSigma {
			sigma = minSigma
		}
	}
	leakLo, leakHi := cfg.LeakLo, cfg.LeakHi
	if cfg.Leak > 0 && leakHi <= leakLo {
		// Derive a broad leak range from observed response times.
		dCol := train.Col(train.NumCols() - 1)
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range dCol {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		span := hi - lo
		if span <= 0 {
			span = 1
		}
		leakLo, leakHi = lo-span, hi+span
	}
	det, err := bn.NewDetFunc(cfg.metricFunc(), n, cfg.Leak, sigma, leakLo, leakHi)
	if err != nil {
		dsp.End()
		return nil, err
	}
	if err := net.SetCPD(dID, det); err != nil {
		dsp.End()
		return nil, err
	}
	dsp.End()
	// Learn only the unknown CPDs (X nodes and resources).
	lsp := sp.Child("build.kert.cpd")
	cost, err := learn.FitParameters(net, train.Rows, cfg.Learn)
	lsp.End()
	if err != nil {
		return nil, err
	}
	if err := net.Validate(); err != nil {
		return nil, err
	}
	return &Model{
		Net:          net,
		Wf:           cfg.Workflow,
		NumServices:  n,
		NumResources: len(cfg.Resources),
		DNode:        dID,
		Type:         ContinuousModel,
		Metric:       cfg.Metric,
		Cost:         cost,
		Knowledge:    true,
	}, nil
}

func buildDiscreteKERT(cfg KERTConfig, train *dataset.Dataset, n int, sp *obs.Span) (*Model, error) {
	// Guard the CPT explosion before doing any work.
	entries := 1.0
	for i := 0; i < n; i++ {
		entries *= float64(cfg.Bins)
		if entries*float64(cfg.Bins) > float64(cfg.MaxCPTEntries) {
			return nil, fmt.Errorf("core: discrete D-CPT would need > %d entries for %d services at %d bins; use the continuous model", cfg.MaxCPTEntries, n, cfg.Bins)
		}
	}
	esp := sp.Child("build.kert.discretize")
	codec := cfg.Codec
	if codec == nil {
		var err error
		codec, err = dataset.FitCodec(train, cfg.Bins, cfg.Binning)
		if err != nil {
			esp.End()
			return nil, err
		}
	}
	enc, err := codec.Encode(train)
	esp.End()
	if err != nil {
		return nil, err
	}
	ssp := sp.Child("build.kert.structure")
	net, err := buildStructure(cfg, n, true, cfg.Bins)
	ssp.End()
	if err != nil {
		return nil, err
	}
	dID := n + len(cfg.Resources)
	var cost learn.Cost
	if !cfg.LearnDCPD {
		// Generate the D CPT from the workflow function — the software-
		// derived CPD the paper contrasts with its own hand-derivation
		// mistake.
		dsp := sp.Child("build.kert.dcpt")
		dDisc := codec.Discretizers[train.NumCols()-1]
		tab, genCost, err := detCPT(cfg, codec, dDisc, n, train)
		if err != nil {
			dsp.End()
			return nil, err
		}
		if err := net.SetCPD(dID, tab); err != nil {
			dsp.End()
			return nil, err
		}
		dsp.End()
		cost = genCost
	}
	// Learn the remaining CPDs (and D's too under the LearnDCPD ablation —
	// the O(bins^n) parameter-learning cost Section 3.3 eliminates).
	lsp := sp.Child("build.kert.cpd")
	for id := 0; id < net.N(); id++ {
		if id == dID && !cfg.LearnDCPD {
			continue
		}
		c, err := learn.FitNode(net, id, enc.Rows, cfg.Learn)
		cost.Add(c)
		if err != nil {
			lsp.End()
			return nil, err
		}
	}
	lsp.End()
	if err := net.Validate(); err != nil {
		return nil, err
	}
	return &Model{
		Net:          net,
		Wf:           cfg.Workflow,
		NumServices:  n,
		NumResources: len(cfg.Resources),
		DNode:        dID,
		Type:         DiscreteModel,
		Metric:       cfg.Metric,
		Codec:        codec,
		Cost:         cost,
		Knowledge:    true,
	}, nil
}

// detCPT builds P(D | X) for the discrete model — the software-generated
// CPD of Equation 4. Each joint parent-bin configuration's row puts mass
// (1−l)/S on the D bin of each of its S samples of f, and the leak l
// spreads uniformly over all bins. With DetCPTSamples = 1 the one sample is
// f at the bin centers; with more, the samples come from the shared
// stratified lanes of detCPTLanes, drawn from the training values grouped
// by bin.
func detCPT(cfg KERTConfig, codec *dataset.Codec, dDisc *dataset.Discretizer, n int, train *dataset.Dataset) (*bn.Tabular, learn.Cost, error) {
	// Per-service empirical values grouped by bin, the lanes' source.
	var binVals [][][]float64
	var cost learn.Cost
	if cfg.DetCPTSamples > 1 {
		binVals = newBinPools(n, cfg.Bins)
		for _, r := range train.Rows {
			for i := 0; i < n; i++ {
				b := codec.Discretizers[i].Bin(r[i])
				binVals[i][b] = append(binVals[i][b], r[i])
			}
		}
		cost.DataOps += int64(len(train.Rows) * n)
	}
	tab, genCost, err := detCPTFromPools(cfg, codec, dDisc, n, binVals)
	cost.Add(genCost)
	return tab, cost, err
}

// newBinPools allocates empty per-service, per-bin value pools.
func newBinPools(n, bins int) [][][]float64 {
	pools := make([][][]float64, n)
	for i := range pools {
		pools[i] = make([][]float64, bins)
	}
	return pools
}

// detCPTFromPools generates the D CPT given already-grouped within-bin
// training values — the shared core of the full (scan-the-dataset) and
// incremental (pools maintained row by row) paths. The table depends only
// on the pools' contents, not on their order, so two calls over pools with
// equal contents produce bit-identical tables.
//
// Rows are visited in odometer order, last parent fastest, and a
// LaneEval over S lanes evaluates f: a step that changes the bins of
// services k..n−1 recomputes only the workflow constructs containing one of
// them. Lane s of row c is f at (lanes[0][c₀][s], …, lanes[n−1][c_{n−1}][s]),
// bit for bit.
func detCPTFromPools(cfg KERTConfig, codec *dataset.Codec, dDisc *dataset.Discretizer, n int, binVals [][][]float64) (*bn.Tabular, learn.Cost, error) {
	parentCard := make([]int, n)
	for i := range parentCard {
		parentCard[i] = cfg.Bins
	}
	tab := bn.NewTabular(cfg.Bins, parentCard)
	samples := cfg.DetCPTSamples
	lanes := detCPTLanes(codec, n, cfg.Bins, samples, binVals)
	ev := workflow.NewLaneEval(cfg.metricTree(), samples)
	for i := 0; i < n; i++ {
		ev.Set(i, lanes[i][0])
	}
	// assign holds row cfgIdx's parent bins. It steps like an odometer,
	// last parent fastest: the row order ConfigAssignment decodes.
	assign := make([]int, n)
	row := make([]float64, cfg.Bins)
	w := (1 - cfg.Leak) / float64(samples)
	var cost learn.Cost
	for cfgIdx := 0; cfgIdx < tab.Rows(); cfgIdx++ {
		for k := range row {
			row[k] = cfg.Leak / float64(cfg.Bins)
		}
		for _, d := range ev.Eval() {
			row[dDisc.Bin(d)] += w
		}
		cost.DataOps += int64(samples*n + cfg.Bins)
		if err := tab.SetRow(cfgIdx, row); err != nil {
			return nil, cost, err
		}
		for i := n - 1; i >= 0; i-- {
			if assign[i]++; assign[i] == cfg.Bins {
				assign[i] = 0
			}
			ev.Set(i, lanes[i][assign[i]])
			if assign[i] != 0 {
				break
			}
		}
	}
	return tab, cost, nil
}

// detCPTLanes returns the D-CPT's shared sample lanes: lanes[i][b] holds
// the S values service i contributes, in bin b, to every row's S samples of
// f. With S > 1 and a pool of m values, lane s takes the sorted pool's
// element ⌊(π(s)+½)·m/S⌋, one value from each of S equal-count strata, for
// a permutation π drawn from an RNG seeded by (i, b) alone. Independent
// permutations per (service, bin) pair the strata at random across
// services, so each row is a Latin-hypercube sample of its parent box. The
// lanes depend only on each pool's contents. An empty pool, or S = 1, fills
// every lane with the bin center.
func detCPTLanes(codec *dataset.Codec, n, bins, samples int, pools [][][]float64) [][][]float64 {
	buf := make([]float64, n*bins*samples)
	perm := make([]int, samples)
	var sorted []float64
	lanes := make([][][]float64, n)
	for i := range lanes {
		lanes[i] = make([][]float64, bins)
		for b := range lanes[i] {
			lane := buf[:samples:samples]
			buf = buf[samples:]
			lanes[i][b] = lane
			if samples == 1 || len(pools[i][b]) == 0 {
				c := codec.Discretizers[i].Center(b)
				for s := range lane {
					lane[s] = c
				}
				continue
			}
			sorted = append(sorted[:0], pools[i][b]...)
			slices.Sort(sorted)
			for s := range perm {
				perm[s] = s
			}
			rng := stats.NewRNG(0x9E3779B97F4A7C15 ^ uint64(i)<<32 ^ uint64(b))
			rng.Shuffle(samples, func(x, y int) { perm[x], perm[y] = perm[y], perm[x] })
			m := len(sorted)
			for s := range lane {
				lane[s] = sorted[(2*perm[s]+1)*m/(2*samples)]
			}
		}
	}
	return lanes
}
