package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"kertbn/internal/bn"
	"kertbn/internal/dataset"
	"kertbn/internal/learn"
	"kertbn/internal/obs"
	"kertbn/internal/stats"
)

// Incremental rebuild metrics: builds through the sufficient-statistics
// path, accumulator invalidations (structure-hash changes forcing a window
// replay), and rows streamed into accumulators.
var (
	incKERTBuilds    = obs.C("build.kert.incremental.builds")
	incInvalidations = obs.C("build.kert.incremental.invalidations")
	incRowsIngested  = obs.C("build.kert.incremental.rows")
)

// structureHash fingerprints everything that determines the shape and
// interpretation of the accumulators: the workflow DAG, resource sharing,
// metric and model type, discretization geometry, and the learning options.
// When any of it changes, previously accumulated statistics are meaningless
// and must be rebuilt from the buffered window.
func structureHash(cfg *KERTConfig, n int) uint64 {
	h := fnv.New64a()
	put := func(vs ...uint64) {
		var b [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
	}
	putF := func(vs ...float64) {
		for _, v := range vs {
			put(math.Float64bits(v))
		}
	}
	put(uint64(n), uint64(cfg.Metric), uint64(cfg.Type), uint64(cfg.Bins), uint64(cfg.Binning), uint64(cfg.DetCPTSamples))
	if cfg.LearnDCPD {
		put(1)
	} else {
		put(0)
	}
	putF(cfg.Leak, cfg.DetSigma, cfg.LeakLo, cfg.LeakHi, cfg.Learn.DirichletAlpha)
	for _, e := range cfg.Workflow.UpstreamEdges() {
		put(uint64(e.From), uint64(e.To))
	}
	for _, r := range cfg.Resources {
		h.Write([]byte(r.Name))
		for _, s := range r.Services {
			put(uint64(s))
		}
	}
	if cfg.Codec != nil {
		hashCodec(put, putF, cfg.Codec)
	}
	return h.Sum64()
}

func hashCodec(put func(...uint64), putF func(...float64), c *dataset.Codec) {
	for _, d := range c.Discretizers {
		put(uint64(d.Bins))
		putF(d.Lo, d.Hi)
		putF(d.Cuts...)
		putF(d.Centers...)
	}
}

// MaxParamDiff returns the largest absolute difference between
// corresponding CPD parameters of two models with identical structure —
// the exactness metric of the incremental-rebuild guarantee (incremental
// == from-scratch within ~1e-9).
func MaxParamDiff(a, b *Model) (float64, error) {
	if a.Net.N() != b.Net.N() {
		return 0, fmt.Errorf("core: models have %d vs %d nodes", a.Net.N(), b.Net.N())
	}
	maxDiff := 0.0
	upd := func(x, y float64) {
		if d := math.Abs(x - y); d > maxDiff {
			maxDiff = d
		}
	}
	for id := 0; id < a.Net.N(); id++ {
		ca, cb := a.Net.Node(id).CPD, b.Net.Node(id).CPD
		switch x := ca.(type) {
		case *bn.LinearGaussian:
			y, ok := cb.(*bn.LinearGaussian)
			if !ok || len(x.Coef) != len(y.Coef) {
				return 0, fmt.Errorf("core: node %d CPD shape mismatch", id)
			}
			upd(x.Intercept, y.Intercept)
			upd(x.Sigma, y.Sigma)
			for i := range x.Coef {
				upd(x.Coef[i], y.Coef[i])
			}
		case *bn.Tabular:
			y, ok := cb.(*bn.Tabular)
			if !ok || len(x.P) != len(y.P) {
				return 0, fmt.Errorf("core: node %d CPD shape mismatch", id)
			}
			for i := range x.P {
				upd(x.P[i], y.P[i])
			}
		case *bn.DetFunc:
			y, ok := cb.(*bn.DetFunc)
			if !ok {
				return 0, fmt.Errorf("core: node %d CPD shape mismatch", id)
			}
			upd(x.Leak, y.Leak)
			upd(x.Sigma, y.Sigma)
			upd(x.LeakLo, y.LeakLo)
			upd(x.LeakHi, y.LeakHi)
		default:
			return 0, fmt.Errorf("core: node %d has uncomparable CPD %T", id, ca)
		}
	}
	return maxDiff, nil
}

// contKERTAcc keeps the sufficient statistics of a continuous KERT-BN:
// one regression-moment accumulator per learned node, plus (when the
// deterministic noise width is estimated from data) the Welford summary of
// the residuals D − f(X).
type contKERTAcc struct {
	lg  []*learn.LGStats
	res *stats.Summary // nil when DetSigma is fixed or D's CPD is learned
	f   func([]float64) float64
	n   int // services (f's arity)
	d   int // D column
}

func (a *contKERTAcc) AddRow(row []float64) error {
	for _, g := range a.lg {
		if err := g.AddRow(row); err != nil {
			return err
		}
	}
	if a.res != nil {
		a.res.Add(row[a.d] - a.f(row[:a.n]))
	}
	return nil
}

func (a *contKERTAcc) RemoveRow(row []float64) error {
	for _, g := range a.lg {
		if err := g.RemoveRow(row); err != nil {
			return err
		}
	}
	if a.res != nil {
		a.res.Remove(row[a.d] - a.f(row[:a.n]))
	}
	return nil
}

// discKERTAcc keeps the sufficient statistics of a discrete KERT-BN: joint
// count tables per learned node over codec-encoded rows, plus the
// per-service within-bin value pools the D-CPT draws its sample lanes from.
// Pool eviction removes one matching occurrence, so the surviving pool
// contents equal a fresh scan of the surviving rows. The lanes sort each
// pool, so contents alone decide the D-CPT, which therefore stays
// bit-identical to a full rebuild.
type discKERTAcc struct {
	codec *dataset.Codec
	tabs  []*learn.TabularStats
	pools [][][]float64 // nil when DetCPTSamples <= 1 or D's CPD is learned
	n     int
}

func (a *discKERTAcc) AddRow(row []float64) error {
	enc, err := a.codec.EncodeRow(row)
	if err != nil {
		return err
	}
	for _, ts := range a.tabs {
		if err := ts.AddRow(enc); err != nil {
			return err
		}
	}
	if a.pools != nil {
		for i := 0; i < a.n; i++ {
			b := a.codec.Discretizers[i].Bin(row[i])
			a.pools[i][b] = append(a.pools[i][b], row[i])
		}
	}
	return nil
}

func (a *discKERTAcc) RemoveRow(row []float64) error {
	enc, err := a.codec.EncodeRow(row)
	if err != nil {
		return err
	}
	for _, ts := range a.tabs {
		if err := ts.RemoveRow(enc); err != nil {
			return err
		}
	}
	if a.pools != nil {
		for i := 0; i < a.n; i++ {
			b := a.codec.Discretizers[i].Bin(row[i])
			pool := a.pools[i][b]
			found := false
			for j, v := range pool {
				if v == row[i] {
					a.pools[i][b] = append(pool[:j], pool[j+1:]...)
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("core: evicted value %g missing from bin pool %d/%d", row[i], i, b)
			}
		}
	}
	return nil
}

// IncrementalKERT maintains a KERT-BN over a sliding window using
// sufficient-statistic accumulators: Ingest is O(columns) per row and Build
// refits every CPD from the accumulators in O(parameters), independent of
// how many rows the window holds. A full BuildKERT over the same window
// contents (with the same frozen codec for discrete models) produces the
// same parameters to well within 1e-9 — bit-identical on the pure-append
// path.
//
// Discrete models freeze their discretization codec at the first Build
// (from the rows buffered so far) unless cfg.Codec is already set; the
// codec then becomes part of the structure hash, so supplying a different
// one later invalidates and replays the accumulators.
type IncrementalKERT struct {
	cfg    KERTConfig
	stream *dataset.Stream
	n      int // services
	dID    int
	// userCodec records whether the discrete codec was supplied by the
	// caller (kept across InvalidateStructure) or frozen by the first
	// Build (dropped, so the geometry refits to the current window).
	userCodec bool

	// Typed references into the accumulators bound to the stream,
	// refreshed by the Bind closure on (re)binding.
	cont *contKERTAcc
	disc *discKERTAcc
}

// NewIncrementalKERT creates an incremental builder over a sliding window
// of at most capacity rows. The column layout is derived from the workflow
// exactly as BuildKERT expects it (services..., resources..., D).
func NewIncrementalKERT(cfg KERTConfig, capacity int) (*IncrementalKERT, error) {
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
	if cfg.Type != ContinuousModel && cfg.Type != DiscreteModel {
		return nil, fmt.Errorf("core: unknown model type %v", cfg.Type)
	}
	svcNames := cfg.Workflow.ServiceNames()
	names := make([]string, n)
	for i := range names {
		if names[i] = svcNames[i]; names[i] == "" {
			names[i] = fmt.Sprintf("X%d", i+1)
		}
	}
	cols := ColumnNames(names, cfg.Resources)
	st, err := dataset.NewStream(cols, capacity)
	if err != nil {
		return nil, err
	}
	return &IncrementalKERT{cfg: cfg, stream: st, n: n, dID: n + len(cfg.Resources), userCodec: cfg.Codec != nil}, nil
}

// InvalidateStructure forces the next Build to refit any auto-frozen
// discretization codec from the buffered window; the KERT structure itself
// is knowledge-given and never changes, so for continuous models (or a
// caller-supplied codec) this is a no-op. Changing the codec changes the
// structure hash, so the accumulators replay automatically.
func (ik *IncrementalKERT) InvalidateStructure() {
	if ik.cfg.Type == DiscreteModel && !ik.userCodec {
		ik.cfg.Codec = nil
	}
}

// Ingest folds one data point into the window and every bound accumulator.
func (ik *IncrementalKERT) Ingest(row []float64) error {
	if err := ik.stream.Push(row); err != nil {
		return err
	}
	incRowsIngested.Inc()
	return nil
}

// TruncateWindow keeps only the newest keep rows, reverse-updating the
// accumulators for every dropped row — the scheduler's drift-recovery
// path, which discards data from before a detected environmental change.
func (ik *IncrementalKERT) TruncateWindow(keep int) (int, error) {
	return ik.stream.Truncate(keep)
}

// Len returns the number of buffered points.
func (ik *IncrementalKERT) Len() int { return ik.stream.Len() }

// Snapshot copies the buffered window: the batch oracle's input and the
// data a post-build hook (kertmon's decentralized relearn) works on.
func (ik *IncrementalKERT) Snapshot() *dataset.Dataset { return ik.stream.Snapshot() }

// Config returns the (default-filled) build configuration, including any
// codec frozen by the first discrete Build.
func (ik *IncrementalKERT) Config() KERTConfig { return ik.cfg }

// Build refits the model from the accumulated sufficient statistics. The
// first call (and any call after a structure change) binds fresh
// accumulators and replays the buffered window into them; steady-state
// calls never touch the raw rows.
func (ik *IncrementalKERT) Build() (*Model, error) {
	sp := obs.StartSpan("build.kert.incremental")
	defer sp.End()
	if ik.stream.Len() == 0 {
		return nil, fmt.Errorf("core: empty training data")
	}
	if ik.cfg.Type == DiscreteModel && ik.cfg.Codec == nil {
		// Freeze the bin geometry on the data seen so far; it joins the
		// structure hash below, so accumulators bind against it.
		codec, err := dataset.FitCodec(ik.stream.Snapshot(), ik.cfg.Bins, ik.cfg.Binning)
		if err != nil {
			return nil, err
		}
		ik.cfg.Codec = codec
	}
	_, wasBound := ik.stream.Bound()
	rebuilt, err := ik.stream.Bind(structureHash(&ik.cfg, ik.n), ik.bindAccumulators)
	if err != nil {
		return nil, err
	}
	if rebuilt && wasBound {
		incInvalidations.Inc()
	}
	var m *Model
	err = ik.stream.View(func(win *dataset.Window) error {
		var err error
		if ik.cfg.Type == ContinuousModel {
			m, err = ik.buildContinuous(sp, win)
		} else {
			m, err = ik.buildDiscrete(sp)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	incKERTBuilds.Inc()
	return m, nil
}

// bindAccumulators constructs the accumulator set for the current
// configuration and retains typed references for Build.
func (ik *IncrementalKERT) bindAccumulators() ([]dataset.Accumulator, error) {
	// The skeleton network fixes each learned node's parent list (sorted
	// ascending, matching what FitParameters would see).
	net, err := buildStructure(ik.cfg, ik.n, ik.cfg.Type == DiscreteModel, ik.cfg.Bins)
	if err != nil {
		return nil, err
	}
	ik.cont, ik.disc = nil, nil
	if ik.cfg.Type == ContinuousModel {
		acc := &contKERTAcc{f: ik.cfg.metricFunc(), n: ik.n, d: ik.dID}
		for id := 0; id < net.N(); id++ {
			if id == ik.dID && !ik.cfg.LearnDCPD {
				continue
			}
			acc.lg = append(acc.lg, learn.NewLGStats(id, net.Parents(id)))
		}
		if !ik.cfg.LearnDCPD && ik.cfg.DetSigma <= 0 {
			acc.res = stats.NewSummary()
		}
		ik.cont = acc
		return []dataset.Accumulator{acc}, nil
	}
	acc := &discKERTAcc{codec: ik.cfg.Codec, n: ik.n}
	for id := 0; id < net.N(); id++ {
		if id == ik.dID && !ik.cfg.LearnDCPD {
			continue
		}
		parents := net.Parents(id)
		parentCard := make([]int, len(parents))
		for i := range parents {
			parentCard[i] = ik.cfg.Bins
		}
		ts, err := learn.NewTabularStats(id, ik.cfg.Bins, parents, parentCard)
		if err != nil {
			return nil, err
		}
		acc.tabs = append(acc.tabs, ts)
	}
	if !ik.cfg.LearnDCPD && ik.cfg.DetCPTSamples > 1 {
		acc.pools = newBinPools(ik.n, ik.cfg.Bins)
	}
	ik.disc = acc
	return []dataset.Accumulator{acc}, nil
}

// buildContinuous refits the continuous model; it runs under the stream
// lock, so it reads the buffered rows through win.
func (ik *IncrementalKERT) buildContinuous(sp *obs.Span, win *dataset.Window) (*Model, error) {
	cfg := ik.cfg
	st := sp.Child("build.kert.structure")
	net, err := buildStructure(cfg, ik.n, false, 0)
	st.End()
	if err != nil {
		return nil, err
	}
	var cost learn.Cost
	if !cfg.LearnDCPD {
		dsp := sp.Child("build.kert.dcpt")
		sigma := cfg.DetSigma
		if sigma <= 0 {
			sigma = ik.cont.res.Std()
			const minSigma = 1e-4
			if sigma < minSigma {
				sigma = minSigma
			}
		}
		leakLo, leakHi := cfg.LeakLo, cfg.LeakHi
		if cfg.Leak > 0 && leakHi <= leakLo {
			// Min/max over the window cannot be reverse-updated, so the
			// auto leak range is the one quantity still derived from a
			// window scan; pin LeakLo/LeakHi to avoid it.
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, r := range win.Snapshot().Rows {
				lo = math.Min(lo, r[ik.dID])
				hi = math.Max(hi, r[ik.dID])
			}
			span := hi - lo
			if span <= 0 {
				span = 1
			}
			leakLo, leakHi = lo-span, hi+span
		}
		det, err := bn.NewDetFunc(cfg.metricFunc(), ik.n, cfg.Leak, sigma, leakLo, leakHi)
		if err != nil {
			dsp.End()
			return nil, err
		}
		if err := net.SetCPD(ik.dID, det); err != nil {
			dsp.End()
			return nil, err
		}
		dsp.End()
	}
	lsp := sp.Child("build.kert.cpd")
	for _, g := range ik.cont.lg {
		cpd, c, err := learn.FitLinearGaussianFromStats(g)
		cost.Add(c)
		if err != nil {
			lsp.End()
			return nil, err
		}
		if err := net.SetCPD(g.Child, cpd); err != nil {
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
		NumServices:  ik.n,
		NumResources: len(cfg.Resources),
		DNode:        ik.dID,
		Type:         ContinuousModel,
		Metric:       cfg.Metric,
		Cost:         cost,
		Knowledge:    true,
	}, nil
}

func (ik *IncrementalKERT) buildDiscrete(sp *obs.Span) (*Model, error) {
	cfg := ik.cfg
	entries := 1.0
	for i := 0; i < ik.n; i++ {
		entries *= float64(cfg.Bins)
		if entries*float64(cfg.Bins) > float64(cfg.MaxCPTEntries) {
			return nil, fmt.Errorf("core: discrete D-CPT would need > %d entries for %d services at %d bins; use the continuous model", cfg.MaxCPTEntries, ik.n, cfg.Bins)
		}
	}
	st := sp.Child("build.kert.structure")
	net, err := buildStructure(cfg, ik.n, true, cfg.Bins)
	st.End()
	if err != nil {
		return nil, err
	}
	var cost learn.Cost
	if !cfg.LearnDCPD {
		dsp := sp.Child("build.kert.dcpt")
		dDisc := cfg.Codec.Discretizers[ik.dID]
		tab, genCost, err := detCPTFromPools(cfg, cfg.Codec, dDisc, ik.n, ik.disc.pools)
		if err != nil {
			dsp.End()
			return nil, err
		}
		if err := net.SetCPD(ik.dID, tab); err != nil {
			dsp.End()
			return nil, err
		}
		dsp.End()
		cost.Add(genCost)
	}
	lsp := sp.Child("build.kert.cpd")
	for _, ts := range ik.disc.tabs {
		cpd, c, err := learn.FitTabularFromStats(ts, cfg.Learn)
		cost.Add(c)
		if err != nil {
			lsp.End()
			return nil, err
		}
		if err := net.SetCPD(ts.Child, cpd); err != nil {
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
		NumServices:  ik.n,
		NumResources: len(cfg.Resources),
		DNode:        ik.dID,
		Type:         DiscreteModel,
		Metric:       cfg.Metric,
		Codec:        cfg.Codec,
		Cost:         cost,
		Knowledge:    true,
	}, nil
}
