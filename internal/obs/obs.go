package obs

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Reset zeroes the counter. Intended for test isolation and per-window
// health reports over the process-global registry; production counters are
// normally monotonic.
func (c *Counter) Reset() { c.v.Store(0) }

// Gauge is an atomically settable float value (last write wins).
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket histogram safe for concurrent Observe calls.
// Bucket i covers (bounds[i-1], bounds[i]]; values above the last bound
// land in an overflow bucket. Sum, min and max are tracked exactly, so
// Mean is exact while Quantile linearly interpolates inside the bucket the
// quantile falls into (clamped to the observed min/max).
type Histogram struct {
	bounds   []float64 // immutable, ascending
	counts   []atomic.Int64
	overflow atomic.Int64
	count    atomic.Int64
	sumBits  atomic.Uint64
	minBits  atomic.Uint64
	maxBits  atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	h := &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds))}
	h.minBits.Store(math.Float64bits(math.Inf(1)))
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// Observe records one sample. NaN samples are dropped (they would poison
// the JSON snapshot).
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	if i == len(h.bounds) {
		h.overflow.Add(1)
	} else {
		h.counts[i].Add(1)
	}
	h.count.Add(1)
	atomicAddFloat(&h.sumBits, v)
	atomicMinFloat(&h.minBits, v)
	atomicMaxFloat(&h.maxBits, v)
}

func atomicAddFloat(bits *atomic.Uint64, d float64) {
	for {
		old := bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + d)
		if bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

func atomicMinFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if math.Float64frombits(old) <= v {
			return
		}
		if bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

func atomicMaxFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Reset discards every observation, returning the histogram to its
// freshly created state (bucket bounds are kept). Concurrent Observe calls
// during a Reset are not torn — each atomic field resets independently —
// but may land partially before and partially after it; reset only once
// writers have quiesced when exact zeroing matters.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.overflow.Store(0)
	h.count.Store(0)
	h.sumBits.Store(math.Float64bits(0))
	h.minBits.Store(math.Float64bits(math.Inf(1)))
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the exact sum of observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Mean returns the exact mean (0 with no observations).
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// Min returns the smallest observation (0 with no observations).
func (h *Histogram) Min() float64 {
	if h.Count() == 0 {
		return 0
	}
	return math.Float64frombits(h.minBits.Load())
}

// Max returns the largest observation (0 with no observations).
func (h *Histogram) Max() float64 {
	if h.Count() == 0 {
		return 0
	}
	return math.Float64frombits(h.maxBits.Load())
}

// Quantile estimates the q-quantile (q in [0,1]) by linear interpolation
// within the bucket the quantile lands in, clamped to the observed
// min/max. NaN with no observations.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.Count()
	if total == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return h.Min()
	}
	if q >= 1 {
		return h.Max()
	}
	mn, mx := h.Min(), h.Max()
	target := q * float64(total)
	var cum float64
	for i := range h.counts {
		c := float64(h.counts[i].Load())
		if c == 0 {
			continue
		}
		if cum+c >= target {
			lo := mn
			if i > 0 {
				lo = math.Max(mn, h.bounds[i-1])
			}
			hi := math.Min(mx, h.bounds[i])
			if hi < lo {
				hi = lo
			}
			return lo + (hi-lo)*(target-cum)/c
		}
		cum += c
	}
	// Quantile falls into the overflow bucket.
	lo := mn
	if n := len(h.bounds); n > 0 {
		lo = math.Max(mn, h.bounds[n-1])
	}
	return math.Max(lo, mx)
}

// latencyBuckets spans 1µs..1000s geometrically, four buckets per decade —
// wide enough for both sub-millisecond CPD fits and multi-minute K2 runs.
var latencyBuckets = func() []float64 {
	var b []float64
	for k := -24; k <= 12; k++ {
		b = append(b, math.Pow(10, float64(k)/4))
	}
	return b
}()

// countBuckets is a 1-2-5 series from 1 to 1e7 for size-like histograms
// (batch sizes, evidence counts, row counts).
var countBuckets = func() []float64 {
	var b []float64
	for d := 0.0; d < 8; d++ {
		p := math.Pow(10, d)
		b = append(b, p, 2*p, 5*p)
	}
	return b
}()

// Registry is a concurrency-safe named collection of metrics plus a ring
// buffer of recently completed spans and a bounded event journal.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	routes   map[string]http.Handler
	ring     *spanRing
	journal  *Journal
	spanID   atomic.Uint64
}

// DefaultSpanCapacity is the span-ring size NewRegistry uses.
const DefaultSpanCapacity = 512

// NewRegistry creates an empty registry with a DefaultSpanCapacity-span
// ring buffer.
func NewRegistry() *Registry {
	return NewRegistryWithCapacity(DefaultSpanCapacity)
}

// NewRegistryWithCapacity is NewRegistry with an explicit span-ring
// capacity — sized up for trace-heavy runs where the default 512 records
// would rotate out a causal chain before /traces could assemble it. The
// journal is sized to half the span capacity (minimum 256).
func NewRegistryWithCapacity(spanCapacity int) *Registry {
	if spanCapacity < 1 {
		spanCapacity = 1
	}
	jcap := spanCapacity / 2
	if jcap < 256 {
		jcap = 256
	}
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		routes:   map[string]http.Handler{},
		ring:     newSpanRing(spanCapacity),
		journal:  NewJournal(jcap),
	}
}

// SetSpanCapacity replaces the span ring with an empty one of the given
// capacity — how CLIs grow the process-global registry's ring for traced
// runs. Buffered spans are discarded; counters are unaffected.
func (r *Registry) SetSpanCapacity(capacity int) {
	r.mu.Lock()
	r.ring = newSpanRing(capacity)
	r.mu.Unlock()
}

// spanRingRef reads the current ring under the registry lock, so pushes
// racing a SetSpanCapacity land consistently in one ring or the other.
func (r *Registry) spanRingRef() *spanRing {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.ring
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; ok {
		return c
	}
	c = &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; ok {
		return g
	}
	g = &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the named histogram with the default latency buckets,
// creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	return r.HistogramWith(name, latencyBuckets)
}

// HistogramWith returns the named histogram, creating it with the given
// bucket bounds on first use (an existing histogram keeps its original
// bounds — first creation wins).
func (r *Registry) HistogramWith(name string, bounds []float64) *Histogram {
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.hists[name]; ok {
		return h
	}
	h = newHistogram(bounds)
	r.hists[name] = h
	return h
}

// visitEntries snapshots a name→pointer map under the read lock and calls
// fn for each entry outside it, sorted by name — so fn may itself touch the
// registry (create metrics, snapshot) without deadlocking, and iteration
// order is deterministic.
func visitEntries[T any](r *Registry, src func() map[string]T, fn func(name string, v T)) {
	r.mu.RLock()
	m := src()
	names := make([]string, 0, len(m))
	vals := make([]T, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		vals = append(vals, m[n])
	}
	r.mu.RUnlock()
	for i, n := range names {
		fn(n, vals[i])
	}
}

// VisitCounters calls fn for every registered counter, sorted by name.
func (r *Registry) VisitCounters(fn func(name string, c *Counter)) {
	visitEntries(r, func() map[string]*Counter { return r.counters }, fn)
}

// VisitGauges calls fn for every registered gauge, sorted by name.
func (r *Registry) VisitGauges(fn func(name string, g *Gauge)) {
	visitEntries(r, func() map[string]*Gauge { return r.gauges }, fn)
}

// VisitHistograms calls fn for every registered histogram, sorted by name.
func (r *Registry) VisitHistograms(fn func(name string, h *Histogram)) {
	visitEntries(r, func() map[string]*Histogram { return r.hists }, fn)
}

// Reset zeroes every registered metric in place and clears the span ring.
// Registered Counter/Gauge/Histogram pointers stay valid — packages hold
// them in top-level vars, so metrics are never dropped from the maps, only
// zeroed. This is how tests and per-rebuild health reports read deltas off
// the process-global registry without cross-test/cross-window bleed.
func (r *Registry) Reset() {
	r.mu.RLock()
	counters := make([]*Counter, 0, len(r.counters))
	for _, c := range r.counters {
		counters = append(counters, c)
	}
	gauges := make([]*Gauge, 0, len(r.gauges))
	for _, g := range r.gauges {
		gauges = append(gauges, g)
	}
	hists := make([]*Histogram, 0, len(r.hists))
	for _, h := range r.hists {
		hists = append(hists, h)
	}
	r.mu.RUnlock()
	for _, c := range counters {
		c.Reset()
	}
	for _, g := range gauges {
		g.Set(0)
	}
	for _, h := range hists {
		h.Reset()
	}
	r.spanRingRef().reset()
	r.journal.reset()
}

// Bucket is one non-empty histogram bucket in a snapshot: Count samples
// at or below Le (and above the previous bucket's Le).
type Bucket struct {
	Le    float64 `json:"le"`
	Count int64   `json:"count"`
}

// HistogramSnapshot is the JSON form of one histogram.
type HistogramSnapshot struct {
	Count    int64    `json:"count"`
	Sum      float64  `json:"sum"`
	Min      float64  `json:"min"`
	Max      float64  `json:"max"`
	Mean     float64  `json:"mean"`
	P50      float64  `json:"p50"`
	P90      float64  `json:"p90"`
	P99      float64  `json:"p99"`
	Buckets  []Bucket `json:"buckets,omitempty"`
	Overflow int64    `json:"overflow,omitempty"`
}

func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count:    h.Count(),
		Sum:      jsonSafe(h.Sum()),
		Min:      jsonSafe(h.Min()),
		Max:      jsonSafe(h.Max()),
		Mean:     jsonSafe(h.Mean()),
		Overflow: h.overflow.Load(),
	}
	if s.Count > 0 {
		s.P50 = jsonSafe(h.Quantile(0.50))
		s.P90 = jsonSafe(h.Quantile(0.90))
		s.P99 = jsonSafe(h.Quantile(0.99))
	}
	for i := range h.counts {
		if c := h.counts[i].Load(); c > 0 {
			s.Buckets = append(s.Buckets, Bucket{Le: h.bounds[i], Count: c})
		}
	}
	return s
}

// jsonSafe maps non-finite floats to 0 so the snapshot always marshals.
func jsonSafe(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// Snapshot is the JSON form of a whole registry — the schema served at
// /metrics and dumped by the -metrics-json CLI flags.
type Snapshot struct {
	Counters      map[string]int64             `json:"counters"`
	Gauges        map[string]float64           `json:"gauges"`
	Histograms    map[string]HistogramSnapshot `json:"histograms"`
	SpansRecorded int64                        `json:"spans_recorded"`
	// SpansDropped counts spans overwritten in the ring before being read.
	SpansDropped int64 `json:"spans_dropped"`
	// EventsRecorded counts journal events ever recorded.
	EventsRecorded int64 `json:"events_recorded"`
}

// Snapshot captures the current state of every metric. Values are read
// without stopping writers, so concurrent snapshots are near-consistent —
// exact once recording has quiesced.
func (r *Registry) Snapshot() *Snapshot {
	r.mu.RLock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.RUnlock()
	ring := r.spanRingRef()
	s := &Snapshot{
		Counters:       make(map[string]int64, len(counters)),
		Gauges:         make(map[string]float64, len(gauges)),
		Histograms:     make(map[string]HistogramSnapshot, len(hists)),
		SpansRecorded:  ring.totalRecorded(),
		SpansDropped:   ring.totalDropped(),
		EventsRecorded: r.journal.Total(),
	}
	for k, c := range counters {
		s.Counters[k] = c.Value()
	}
	for k, g := range gauges {
		s.Gauges[k] = jsonSafe(g.Value())
	}
	for k, h := range hists {
		s.Histograms[k] = h.snapshot()
	}
	return s
}

// WriteJSON writes an indented snapshot to w.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// DumpJSON writes the snapshot to a file (the -metrics-json CLI path).
func (r *Registry) DumpJSON(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// std is the process-wide default registry every instrumented package
// records into.
var std = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return std }

// C returns a counter from the default registry.
func C(name string) *Counter { return std.Counter(name) }

// G returns a gauge from the default registry.
func G(name string) *Gauge { return std.Gauge(name) }

// H returns a latency histogram from the default registry.
func H(name string) *Histogram { return std.Histogram(name) }

// HCount returns a size histogram (1-2-5 buckets) from the default
// registry.
func HCount(name string) *Histogram { return std.HistogramWith(name, countBuckets) }

// StartSpan starts a root span on the default registry.
func StartSpan(name string) *Span { return std.StartSpan(name) }
