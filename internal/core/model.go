package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"kertbn/internal/bn"
	"kertbn/internal/dataset"
	"kertbn/internal/learn"
	"kertbn/internal/obs"
	"kertbn/internal/workflow"
)

// ModelType distinguishes the two KERT-BN flavors of Section 3.1.
type ModelType int

const (
	// ContinuousModel uses linear-Gaussian elapsed-time CPDs and a
	// deterministic-with-leak D node; it converges from few data points
	// (the paper's fast-changing-environment choice, used in Section 4).
	ContinuousModel ModelType = iota
	// DiscreteModel bins all variables and uses CPTs; it assumes nothing
	// about CPD shapes and is the paper's choice when data is plentiful
	// (used in Section 5).
	DiscreteModel
)

// String renders the model type.
func (t ModelType) String() string {
	switch t {
	case ContinuousModel:
		return "continuous"
	case DiscreteModel:
		return "discrete"
	default:
		return fmt.Sprintf("ModelType(%d)", int(t))
	}
}

// Model wraps a learned response-time Bayesian network together with the
// bookkeeping needed to query it: which node is D, how many service and
// resource nodes exist, and (for discrete models) the bin codec.
type Model struct {
	Net *bn.Network
	// Wf is the workflow the structure came from (nil for NRT-BN models,
	// whose structure was learned from data).
	Wf *workflow.Node
	// NumServices is the count of elapsed-time nodes X_1..X_n.
	NumServices int
	// NumResources is the count of shared-resource nodes.
	NumResources int
	// DNode is the node id of the end-to-end response time D.
	DNode int
	// Type records whether the model is continuous or discrete.
	Type ModelType
	// Metric records which transaction metric the model captures.
	Metric MetricKind
	// Codec maps continuous measurements to bins for discrete models
	// (nil for continuous models).
	Codec *dataset.Codec
	// Cost is the deterministic construction cost (structure + parameters).
	Cost learn.Cost
	// Knowledge reports whether structure and the D-CPD came from domain
	// knowledge (KERT-BN) rather than data (NRT-BN).
	Knowledge bool

	// Trace provenance, stamped by the scheduler after a rebuild. The
	// fields are unexported so gob-shipped models simply omit them.
	generation int
	buildTrace obs.TraceContext
	// firstQuery latches the one-time handoff of the build trace to the
	// first posterior query served by this generation (a pointer so Model
	// values stay copyable and gob-encodable).
	firstQuery *atomic.Bool

	// plans caches compiled likelihood-weighting query plans per (target,
	// evidence shape), created lazily under planMu on the first continuous
	// Monte-Carlo query; see plancache.go. Unexported, so persisted and
	// gob-shipped models simply rebuild it on first use.
	planMu sync.Mutex
	plans  *planCache
}

// SetProvenance stamps the model with its generation number and the trace
// context of the reconstruction that produced it, arming the one-time
// first-query trace handoff.
func (m *Model) SetProvenance(generation int, tc obs.TraceContext) {
	m.generation = generation
	m.buildTrace = tc
	m.firstQuery = &atomic.Bool{}
}

// Generation returns the scheduler generation this model was built as
// (0 for models never stamped).
func (m *Model) Generation() int { return m.generation }

// ClaimFirstQueryTrace returns the build trace exactly once — to the first
// posterior query served by this model generation, which closes the
// autonomic loop's trace: measurement → rebuild → swap → first answer.
func (m *Model) ClaimFirstQueryTrace() (obs.TraceContext, bool) {
	if m == nil || m.firstQuery == nil || !m.buildTrace.Sampled() {
		return obs.TraceContext{}, false
	}
	if m.firstQuery.CompareAndSwap(false, true) {
		return m.buildTrace, true
	}
	return obs.TraceContext{}, false
}

// ColumnNames returns the canonical column names for a system with the
// given service names and resource declarations: services, resources, "D".
func ColumnNames(serviceNames []string, resources []workflow.ResourceSharing) []string {
	out := make([]string, 0, len(serviceNames)+len(resources)+1)
	out = append(out, serviceNames...)
	for _, r := range resources {
		out = append(out, "res_"+r.Name)
	}
	return append(out, "D")
}

// NumColumns returns the expected data width for the model.
func (m *Model) NumColumns() int { return m.NumServices + m.NumResources + 1 }

// Log10Likelihood scores continuous test data under the model, encoding it
// first for discrete models — the paper's data-fitting accuracy metric.
func (m *Model) Log10Likelihood(test *dataset.Dataset) (float64, error) {
	rows, err := m.modelRows(test)
	if err != nil {
		return 0, err
	}
	return m.Net.Log10Likelihood(rows)
}

// modelRows converts raw (continuous) data into the representation the
// underlying network expects.
func (m *Model) modelRows(d *dataset.Dataset) ([][]float64, error) {
	if d.NumCols() != m.NumColumns() {
		return nil, fmt.Errorf("core: dataset has %d columns, model expects %d", d.NumCols(), m.NumColumns())
	}
	if m.Type == ContinuousModel {
		return d.Rows, nil
	}
	enc, err := m.Codec.Encode(d)
	if err != nil {
		return nil, err
	}
	return enc.Rows, nil
}
