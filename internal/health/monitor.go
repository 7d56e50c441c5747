package health

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sync"
	"time"

	"kertbn/internal/bn"
	"kertbn/internal/core"
	"kertbn/internal/dataset"
	"kertbn/internal/infer"
	"kertbn/internal/obs"
	"kertbn/internal/stats"
)

func init() {
	obs.RegisterPrefix("health", "internal/health")
}

// Model-health metrics. Scoring latency lands in the "health.score.seconds"
// span histogram; compare it against "monitor.ingest.seconds" to see the
// telemetry overhead on the hot path.
var (
	healthRows       = obs.C("health.rows_scored")
	healthHoldout    = obs.C("health.holdout_rows")
	healthAlarms     = obs.C("health.drift.alarms")
	healthCUSUM      = obs.C("health.drift.cusum_alarms")
	healthPH         = obs.C("health.drift.ph_alarms")
	healthGen        = obs.G("health.model_generation")
	healthMeanLL     = obs.G("health.window_mean_loglik")
	healthEps        = obs.G("health.eps")
	healthPBN        = obs.G("health.p_bn")
	healthPEmp       = obs.G("health.p_emp")
	healthThreshold  = obs.G("health.threshold")
	healthDriftNodes = obs.G("health.drift.nodes_drifting")
	// healthAlarmActive is 1 while a drift alarm is latched and unconsumed.
	// As a gauge it ships in telemetry snapshots with last-write-wins fleet
	// semantics, so the management server's /fleet view shows which moment
	// in time the fleet last had a pending, unhandled drift alarm.
	healthAlarmActive = obs.G("health.drift.alarm_active")
	// healthScoreHist is the same histogram the "health.score" span records
	// into; the unsampled hot path observes it directly so per-row scoring
	// stays allocation-free while the latency distribution stays complete.
	healthScoreHist = obs.H("health.score.seconds")
)

// ErrNoModel is returned by Observe before the first SetModel.
var ErrNoModel = fmt.Errorf("health: no model deployed yet")

// Config parameterizes a Monitor. The zero value works: every field has a
// documented default.
type Config struct {
	// Window is the rolling window (rows) over which mean log-likelihoods
	// and PIT histograms are maintained. Default 256.
	Window int
	// PITBins is the number of equal-width [0,1] calibration bins per node.
	// Default 20 (so a perfectly calibrated node puts ~5% in each bin).
	PITBins int
	// HoldoutEvery diverts every k-th observed row to the holdout split:
	// the row is scored like any other but reported as holdout so the
	// scheduler withholds it from training, and its D value feeds the
	// rolling Equation-5 ε estimate. Default 10; negative disables the
	// split.
	HoldoutEvery int
	// HoldoutCap bounds the holdout ring of D measurements. Default 256.
	HoldoutCap int
	// Threshold is the Equation-5 response-time threshold h. When <= 0 it
	// is auto-calibrated once, to the first deployed model's posterior 95th
	// percentile, and then held fixed so ε stays comparable across model
	// generations.
	Threshold float64
	// ExceedanceSamples is the Monte-Carlo sample count used to evaluate
	// P_bn(D > h) once per model deployment. Default 4000.
	ExceedanceSamples int
	// Seed drives the deterministic RNG for the posterior evaluation;
	// generation g uses stream Split(g), so results are reproducible and
	// independent of scoring traffic. Default 1.
	Seed uint64
	// Detector configures the per-node CUSUM / Page–Hinkley detectors.
	Detector DetectorConfig
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = 256
	}
	if c.PITBins <= 0 {
		c.PITBins = 20
	}
	switch {
	case c.HoldoutEvery == 0:
		c.HoldoutEvery = 10
	case c.HoldoutEvery < 0:
		c.HoldoutEvery = 0
	}
	if c.HoldoutCap <= 0 {
		c.HoldoutCap = 256
	}
	if c.ExceedanceSamples <= 0 {
		c.ExceedanceSamples = 4000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	c.Detector = c.Detector.withDefaults()
	return c
}

// rolling is a fixed-capacity mean window.
type rolling struct {
	buf  []float64
	head int
	n    int
	sum  float64
}

func newRolling(capacity int) *rolling { return &rolling{buf: make([]float64, capacity)} }

func (r *rolling) push(x float64) {
	if r.n == len(r.buf) {
		r.sum -= r.buf[r.head]
	} else {
		r.n++
	}
	r.buf[r.head] = x
	r.sum += x
	r.head = (r.head + 1) % len(r.buf)
}

func (r *rolling) mean() float64 {
	if r.n == 0 {
		return math.NaN()
	}
	return r.sum / float64(r.n)
}

func (r *rolling) reset() { r.head, r.n, r.sum = 0, 0, 0 }

// Monitor is the streaming model-health pipeline: feed it every arriving
// observation row (Observe) and every newly deployed model (SetModel); read
// back telemetry through obs gauges/counters, Report, or the /health
// handler. It implements core.HealthPolicy, so it plugs straight into
// core.(*Scheduler).SetHealthPolicy.
//
// All methods are safe for concurrent use.
type Monitor struct {
	mu  sync.Mutex
	cfg Config

	scorer *Scorer
	gen    int

	rowsSeen    int64 // drives the holdout modulus, never reset
	rowsScored  int64
	holdoutRows int64

	totalLL *rolling
	nodeLL  []*rolling
	names   []string

	pitCounts [][]int64
	pitHists  []*obs.Histogram
	stateG    []*obs.Gauge

	detTotal *Detector
	detNode  []*Detector

	holdD    []float64 // holdout ring of raw D measurements
	holdHead int
	holdN    int

	threshold    float64
	thresholdSet bool
	pBN          float64

	// prevMeanLL preserves the retiring generation's rolling mean
	// log-likelihood across the SetModel reset, so reports issued right
	// after a rebuild still carry a meaningful fit number.
	prevMeanLL    float64
	prevMeanLLSet bool

	alarmPending bool

	// scratch buffers for Observe
	perNode, pit []float64
	// samples is SetModel's Monte-Carlo sample storage, reused by every
	// deploy so a generation does not allocate ExceedanceSamples-long
	// slices (guarded by mu, like the rest).
	samples infer.WeightedSamples
}

// NewMonitor builds a Monitor; call SetModel before (or let the scheduler
// call it on first rebuild) feeding rows.
func NewMonitor(cfg Config) *Monitor {
	cfg = cfg.withDefaults()
	m := &Monitor{
		cfg:       cfg,
		totalLL:   newRolling(cfg.Window),
		detTotal:  NewDetector(cfg.Detector),
		holdD:     make([]float64, cfg.HoldoutCap),
		threshold: cfg.Threshold,
	}
	m.thresholdSet = cfg.Threshold > 0
	return m
}

// minContLLStd is the σ₀ floor for log-likelihood streams of continuous
// (Gaussian-family) nodes: the per-row LL of a well-specified Gaussian CPD
// is −log(σ√2π) − z²/2 with z ~ N(0,1), whose standard deviation is
// exactly 1/√2 ≈ 0.707 nats no matter what σ the CPD fitted. A short
// heavy-tailed warmup often *under*-estimates that spread (missing the
// left tail entirely), which would turn routine tail events into phantom
// multi-σ drift; flooring σ₀ at a conservative 0.5 nats removes that
// failure mode without touching discrete nodes, whose LL spread genuinely
// can be smaller.
const minContLLStd = 0.5

// detectorConfigFor specializes the detector config for one score stream:
// continuous-node streams (and the total, which sums nCont independent
// continuous terms and therefore has std ≥ √nCont·minContLLStd) get the
// theoretical σ₀ floor.
func detectorConfigFor(base DetectorConfig, kind bn.Kind, nCont int) DetectorConfig {
	base = base.withDefaults()
	if kind == bn.Continuous && nCont > 0 {
		if floor := minContLLStd * math.Sqrt(float64(nCont)); base.MinStd < floor {
			base.MinStd = floor
		}
	}
	return base
}

// pitBounds returns the bucket upper bounds for a B-bin [0,1] histogram.
func pitBounds(bins int) []float64 {
	out := make([]float64, bins)
	for i := range out {
		out[i] = float64(i+1) / float64(bins)
	}
	return out
}

// SetModel deploys a new model generation: scores, calibration histograms
// and drift detectors reset (scores under different models are not
// comparable), while the holdout split of real D measurements is kept and
// re-judged against the new model's tail probability P_bn(D > h).
func (m *Monitor) SetModel(model *core.Model) error {
	scorer, err := NewScorer(model)
	if err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.gen++
	m.scorer = scorer

	names := scorer.Names()
	if len(names) != len(m.names) || !sameNames(names, m.names) {
		m.names = append([]string(nil), names...)
		m.nodeLL = make([]*rolling, len(names))
		m.detNode = make([]*Detector, len(names))
		m.pitCounts = make([][]int64, len(names))
		m.pitHists = make([]*obs.Histogram, len(names))
		m.stateG = make([]*obs.Gauge, len(names))
		continuous := 0
		for i, name := range names {
			m.nodeLL[i] = newRolling(m.cfg.Window)
			kind := model.Net.Node(i).Kind
			if kind == bn.Continuous {
				continuous++
			}
			m.detNode[i] = NewDetector(detectorConfigFor(m.cfg.Detector, kind, 1))
			m.pitCounts[i] = make([]int64, m.cfg.PITBins)
			m.pitHists[i] = obs.Default().HistogramWith("health.pit."+name, pitBounds(m.cfg.PITBins))
			m.stateG[i] = obs.G("health.drift.state." + name)
		}
		m.detTotal = NewDetector(detectorConfigFor(m.cfg.Detector, bn.Continuous, continuous))
		m.perNode = make([]float64, len(names))
		m.pit = make([]float64, len(names))
	}
	if m.totalLL.n > 0 {
		m.prevMeanLL, m.prevMeanLLSet = m.totalLL.mean(), true
	}
	m.totalLL.reset()
	m.detTotal.Reset()
	for i := range m.names {
		m.nodeLL[i].reset()
		m.detNode[i].Reset()
		for b := range m.pitCounts[i] {
			m.pitCounts[i][b] = 0
		}
		m.pitHists[i].Reset()
		m.stateG[i].Set(float64(StateWarmup))
	}
	m.alarmPending = false

	// One posterior evaluation per deployment: P_bn(D > h) under the new
	// model, on the deterministic Split(generation) stream.
	post, err := core.ResponseTimePosteriorInto(&m.samples, model, nil, m.cfg.ExceedanceSamples, stats.NewRNG(m.cfg.Seed).Split(uint64(m.gen)))
	if err != nil {
		return fmt.Errorf("health: posterior for generation %d: %w", m.gen, err)
	}
	if !m.thresholdSet {
		m.threshold = post.Quantile(0.95)
		m.thresholdSet = true
	}
	m.pBN = post.Exceedance(m.threshold)

	healthGen.Set(float64(m.gen))
	healthThreshold.Set(m.threshold)
	healthPBN.Set(m.pBN)
	m.exportEpsLocked()
	healthDriftNodes.Set(0)
	return nil
}

func sameNames(a, b []string) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Observe scores one raw observation row against the deployed model and
// updates every rolling statistic and detector. holdout reports whether the
// row belongs to the online holdout split — callers that train models (the
// scheduler) must withhold such rows from the training window.
func (m *Monitor) Observe(row []float64) (holdout bool, err error) {
	return m.ObserveCtx(row, obs.TraceContext{})
}

// ObserveCtx is Observe carrying the trace context of the batch the row
// arrived in. A sampled context wraps scoring in a "health.score" span
// joined to the trace and stamps any drift-alarm journal event with the
// trace IDs; the zero context takes an allocation-free path that records
// the same latency histogram directly.
func (m *Monitor) ObserveCtx(row []float64, tc obs.TraceContext) (holdout bool, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.scorer == nil {
		return false, ErrNoModel
	}
	m.rowsSeen++
	holdout = m.cfg.HoldoutEvery > 0 && m.rowsSeen%int64(m.cfg.HoldoutEvery) == 0

	var sp *obs.Span
	var start time.Time
	if tc.Sampled() {
		sp = obs.StartSpanCtx("health.score", tc)
	} else {
		start = time.Now()
	}
	total, err := m.scorer.ScoreRow(row, m.perNode, m.pit)
	if sp != nil {
		tc = sp.Context() // alarm events point at the scoring span
		sp.End()
	} else {
		healthScoreHist.Observe(time.Since(start).Seconds())
	}
	if err != nil {
		return false, err
	}
	m.rowsScored++
	healthRows.Inc()

	m.totalLL.push(total)
	if m.detTotal.Observe(total) {
		m.recordAlarmLocked(m.detTotal, "_total", tc)
	}
	drifting := 0
	for i := range m.names {
		m.nodeLL[i].push(m.perNode[i])
		if u := m.pit[i]; !math.IsNaN(u) {
			b := int(u * float64(m.cfg.PITBins))
			if b >= m.cfg.PITBins {
				b = m.cfg.PITBins - 1
			} else if b < 0 {
				b = 0
			}
			m.pitCounts[i][b]++
			m.pitHists[i].Observe(u)
		}
		if m.detNode[i].Observe(m.perNode[i]) {
			m.recordAlarmLocked(m.detNode[i], m.names[i], tc)
		}
		m.stateG[i].Set(float64(m.detNode[i].State()))
		if m.detNode[i].State() == StateDrift {
			drifting++
		}
	}
	healthMeanLL.Set(jsonSafeMean(m.totalLL))
	healthDriftNodes.Set(float64(drifting))

	if holdout {
		m.holdoutRows++
		healthHoldout.Inc()
		d := row[m.scorer.Model().DNode]
		if m.holdN == len(m.holdD) {
			m.holdD[m.holdHead] = d
			m.holdHead = (m.holdHead + 1) % len(m.holdD)
		} else {
			m.holdD[(m.holdHead+m.holdN)%len(m.holdD)] = d
			m.holdN++
		}
		m.exportEpsLocked()
	}
	return holdout, nil
}

// recordAlarmLocked bumps the drift counters, latches the pending alarm and
// journals the event (with trace IDs when the triggering row was sampled).
func (m *Monitor) recordAlarmLocked(d *Detector, source string, tc obs.TraceContext) {
	m.alarmPending = true
	healthAlarmActive.Set(1)
	healthAlarms.Inc()
	if cusum, ph := d.FiredBy(); true {
		if cusum {
			healthCUSUM.Inc()
		}
		if ph {
			healthPH.Inc()
		}
	}
	obs.J().Record(obs.Event{
		Type: obs.EventDriftAlarm, TraceID: tc.TraceID, SpanID: tc.SpanID,
		Generation: m.gen, Detail: source,
	})
}

// epsLocked returns (ε, pEmp, defined) from the current holdout ring.
func (m *Monitor) epsLocked() (eps, pEmp float64, defined bool) {
	if m.holdN == 0 {
		return 0, 0, false
	}
	over := 0
	for i := 0; i < m.holdN; i++ {
		if m.holdD[i] > m.threshold {
			over++
		}
	}
	pEmp = float64(over) / float64(m.holdN)
	if pEmp == 0 {
		return 0, 0, false // Equation 5 undefined at P_real = 0
	}
	return math.Abs(m.pBN-pEmp) / pEmp, pEmp, true
}

func (m *Monitor) exportEpsLocked() {
	eps, pEmp, defined := m.epsLocked()
	healthPEmp.Set(pEmp)
	if defined {
		healthEps.Set(eps)
	} else {
		healthEps.Set(-1) // sentinel: ε undefined (no holdout violations yet)
	}
}

// ConsumeAlarm returns true once per latched drift alarm and clears it —
// the scheduler's RebuildOnDrift trigger. Detector states stay latched
// until the next SetModel.
func (m *Monitor) ConsumeAlarm() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	fired := m.alarmPending
	m.alarmPending = false
	if fired {
		healthAlarmActive.Set(0)
	}
	return fired
}

func (m *Monitor) driftingLocked() bool {
	if m.detTotal.State() == StateDrift {
		return true
	}
	for _, d := range m.detNode {
		if d.State() == StateDrift {
			return true
		}
	}
	return false
}

// Threshold returns the resolved Equation-5 threshold h (0 until a model
// deploys when auto-calibration is active).
func (m *Monitor) Threshold() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.threshold
}

// jsonSafeMean renders a rolling mean with NaN (empty window) as 0 so the
// value is JSON- and gauge-safe.
func jsonSafeMean(r *rolling) float64 {
	v := r.mean()
	if math.IsNaN(v) {
		return 0
	}
	return v
}

// NodeHealth is one node's entry in a Report.
type NodeHealth struct {
	Name string `json:"name"`
	// MeanLogLik is the rolling-window mean natural-log likelihood term.
	MeanLogLik float64 `json:"mean_loglik"`
	// PITKS is the Kolmogorov–Smirnov-style max deviation between the
	// node's PIT histogram and the uniform distribution (0 = perfectly
	// calibrated, 1 = all mass in the wrong place).
	PITKS float64 `json:"pit_ks"`
	// PITCounts is the raw calibration histogram (PITBins equal bins).
	PITCounts []int64 `json:"pit_counts"`
	// State is the drift detector state: warmup, ok or drift.
	State string `json:"state"`
	// CUSUM and PageHinkley are the current detector statistics in σ₀
	// units (alarm levels are in DetectorConfig).
	CUSUM       float64 `json:"cusum"`
	PageHinkley float64 `json:"page_hinkley"`
}

// Report is the full model-health snapshot served at /health.
type Report struct {
	ModelType  string `json:"model_type"`
	Generation int    `json:"generation"`
	RowsScored int64  `json:"rows_scored"`
	Window     int    `json:"window"`
	// MeanLogLik is the rolling mean total row log-likelihood (natural log).
	MeanLogLik float64 `json:"window_mean_loglik"`
	// PrevMeanLogLik is the same rolling mean as it stood when the previous
	// model generation retired (the rolling window resets on every
	// SetModel, so immediately after a rebuild MeanLogLik is empty and this
	// is the number that summarizes the generation just scored).
	PrevMeanLogLik float64 `json:"prev_window_mean_loglik"`
	PrevMeanLLSet  bool    `json:"prev_window_mean_loglik_set"`
	// Drift summary.
	Drifting      bool     `json:"drifting"`
	DriftingNodes []string `json:"drifting_nodes"`
	// Equation-5 block: ε against the online holdout split.
	Threshold   float64 `json:"threshold"`
	PBN         float64 `json:"p_bn"`
	PEmp        float64 `json:"p_emp"`
	Eps         float64 `json:"eps"`
	EpsDefined  bool    `json:"eps_defined"`
	HoldoutRows int64   `json:"holdout_rows"`

	Nodes []NodeHealth `json:"nodes"`
}

// Report snapshots the current health state. Returns a zero-generation
// report before the first SetModel.
func (m *Monitor) Report() *Report {
	m.mu.Lock()
	defer m.mu.Unlock()
	r := &Report{
		Generation:  m.gen,
		RowsScored:  m.rowsScored,
		Window:      m.cfg.Window,
		Threshold:   m.threshold,
		PBN:         m.pBN,
		HoldoutRows: m.holdoutRows,
	}
	if m.scorer == nil {
		return r
	}
	r.ModelType = m.scorer.Model().Type.String()
	r.MeanLogLik = jsonSafeMean(m.totalLL)
	r.PrevMeanLogLik, r.PrevMeanLLSet = m.prevMeanLL, m.prevMeanLLSet
	r.Drifting = m.driftingLocked()
	r.Eps, r.PEmp, r.EpsDefined = m.epsLocked()
	r.Nodes = make([]NodeHealth, len(m.names))
	for i, name := range m.names {
		d := m.detNode[i]
		r.Nodes[i] = NodeHealth{
			Name:        name,
			MeanLogLik:  jsonSafeMean(m.nodeLL[i]),
			PITKS:       pitKS(m.pitCounts[i]),
			PITCounts:   append([]int64(nil), m.pitCounts[i]...),
			State:       d.State().String(),
			CUSUM:       d.CUSUMStat(),
			PageHinkley: d.PHStat(),
		}
		if d.State() == StateDrift {
			r.DriftingNodes = append(r.DriftingNodes, name)
		}
	}
	if m.detTotal.State() == StateDrift {
		r.DriftingNodes = append(r.DriftingNodes, "_total")
	}
	return r
}

// pitKS computes max_b |ECDF(b) − b/B| over the bin edges of a PIT
// histogram — the discrete Kolmogorov–Smirnov statistic against uniform.
func pitKS(counts []int64) float64 {
	total := int64(0)
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	maxDev, cum := 0.0, int64(0)
	for b, c := range counts {
		cum += c
		dev := math.Abs(float64(cum)/float64(total) - float64(b+1)/float64(len(counts)))
		if dev > maxDev {
			maxDev = dev
		}
	}
	return maxDev
}

// Handler serves the Report as indented JSON — register it on the obs mux
// with obs.Default().Handle("/health", monitor.Handler()).
func (m *Monitor) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(m.Report()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}

// ScoreDataset is the one-shot (kertquery) entry point: score every row of
// a raw dataset against a model and return the resulting health report.
// Every row joins the holdout split, so ε reflects the whole dataset.
func ScoreDataset(model *core.Model, d *dataset.Dataset, cfg Config) (*Report, error) {
	if cfg.Detector.Warmup == 0 {
		// Offline we can afford a long calibration stretch: a short warmup
		// under-samples rare discrete bins, understating σ₀ and turning
		// legitimate low-probability rows into false drift alarms.
		w := d.NumRows() / 5
		if w < 40 {
			w = 40
		}
		if w > 200 {
			w = 200
		}
		cfg.Detector.Warmup = w
	}
	cfg = cfg.withDefaults()
	cfg.HoldoutEvery = 1
	if cfg.HoldoutCap < d.NumRows() {
		cfg.HoldoutCap = d.NumRows()
	}
	if cfg.Window < d.NumRows() {
		cfg.Window = d.NumRows()
	}
	m := NewMonitor(cfg)
	if err := m.SetModel(model); err != nil {
		return nil, err
	}
	for i, row := range d.Rows {
		if _, err := m.Observe(row); err != nil {
			return nil, fmt.Errorf("health: row %d: %w", i, err)
		}
	}
	return m.Report(), nil
}
