package telemetry

import (
	"encoding/json"
	"net/http"
	"sort"
	"sync"
	"time"

	"kertbn/internal/obs"
	"kertbn/internal/wire/binfmt"
)

// Aggregator-side metrics: snapshots folded in, duplicates suppressed by
// the (source, epoch, seq) watermark, series rejected because two origins
// disagree on a histogram's bucket bounds, and the live origin count.
var (
	fleetApplied   = obs.C("fleet.snapshots_applied")
	fleetDups      = obs.C("fleet.dup_suppressed")
	fleetConflicts = obs.C("fleet.bound_conflicts")
	fleetOrigins   = obs.G("fleet.origins")
)

// originState is one shipping process's rollup.
type originState struct {
	reg *obs.Registry
	// maxSeq holds the per-epoch high watermark: a snapshot at or below it
	// is an at-least-once replay and is dropped. Epochs stay in the map so
	// a journal replaying pre-restart records after the restarted process
	// already shipped under its new epoch still dedups correctly.
	maxSeq    map[uint64]uint64
	epoch     uint64 // most recently appeared epoch
	lastWall  int64  // max shipped wall stamp
	lastLocal time.Time
	snapshots int64
}

// AggregatorOptions tunes the fleet rollup.
type AggregatorOptions struct {
	// StaleAfter marks an origin stale when no snapshot (even an empty
	// heartbeat) arrived for this long (default 30s).
	StaleAfter time.Duration
	// Now is the clock (test hook).
	Now func() time.Time
}

// Aggregator maintains per-origin and fleet-wide metric rollups from
// shipped TelemetrySnapshots: counters and histogram buckets sum exactly,
// gauges are last-write-wins by snapshot wall stamp, and every origin
// carries a staleness stamp. Safe for concurrent Apply/Report calls — the
// monitor server invokes Apply from its per-connection goroutines.
type Aggregator struct {
	opts AggregatorOptions

	mu        sync.Mutex
	fleet     *obs.Registry
	gaugeWall map[string]int64
	origins   map[string]*originState
}

// NewAggregator creates an empty fleet rollup.
func NewAggregator(opts AggregatorOptions) *Aggregator {
	if opts.StaleAfter <= 0 {
		opts.StaleAfter = 30 * time.Second
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	return &Aggregator{
		opts:      opts,
		fleet:     obs.NewRegistry(),
		gaugeWall: map[string]int64{},
		origins:   map[string]*originState{},
	}
}

// Fleet returns the fleet-wide rollup registry (counters summed across
// origins, histograms merged, gauges last-write-wins). SLO sources and the
// exposition endpoint read it like any other registry.
func (a *Aggregator) Fleet() *obs.Registry { return a.fleet }

// Apply folds one snapshot into the rollups. It returns false when the
// snapshot is an at-least-once duplicate — same (source, epoch) with a
// sequence number at or below the applied watermark — which the journaled
// transport produces whenever an ack is lost; duplicates change nothing,
// so replays can never double-count. The snapshot's backing arrays are not
// retained.
func (a *Aggregator) Apply(snap *binfmt.TelemetrySnapshot) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	os := a.origins[snap.Source]
	if os == nil {
		os = &originState{reg: obs.NewRegistry(), maxSeq: map[uint64]uint64{}}
		a.origins[snap.Source] = os
		fleetOrigins.Set(float64(len(a.origins)))
	}
	w, seen := os.maxSeq[snap.Epoch]
	if seen && snap.Seq <= w {
		fleetDups.Inc()
		return false
	}
	if !seen {
		os.epoch = snap.Epoch
	}
	os.maxSeq[snap.Epoch] = snap.Seq
	if snap.WallUnixNS > os.lastWall {
		os.lastWall = snap.WallUnixNS
	}
	os.lastLocal = a.opts.Now()
	os.snapshots++

	for i := range snap.Counters {
		c := &snap.Counters[i]
		os.reg.Counter(c.Name).Add(c.Delta)
		a.fleet.Counter(c.Name).Add(c.Delta)
	}
	for i := range snap.Gauges {
		g := &snap.Gauges[i]
		os.reg.Gauge(g.Name).Set(g.Value)
		// Fleet gauges are last-write-wins by shipped wall stamp, so a
		// replayed old snapshot can never roll a gauge backwards.
		if snap.WallUnixNS >= a.gaugeWall[g.Name] {
			a.fleet.Gauge(g.Name).Set(g.Value)
			a.gaugeWall[g.Name] = snap.WallUnixNS
		}
	}
	for i := range snap.Hists {
		h := &snap.Hists[i]
		// First shipment of a name fixes its bounds (HistogramWith: first
		// creation wins); an origin later disagreeing on bounds is a
		// conflict, counted and skipped rather than silently misbinned. The
		// bounds are copied because the snapshot's backing arrays are the
		// transport's reused decode buffers.
		b := append([]float64(nil), h.Bounds...)
		oh := os.reg.HistogramWith(h.Name, b)
		fh := a.fleet.HistogramWith(h.Name, b)
		if oh.MergeParts(h.Bounds, h.Counts, h.Overflow, h.Sum, h.Min, h.Max) != nil ||
			fh.MergeParts(h.Bounds, h.Counts, h.Overflow, h.Sum, h.Min, h.Max) != nil {
			fleetConflicts.Inc()
		}
	}
	fleetApplied.Inc()
	return true
}

// OriginReport is one origin's entry in the /fleet report.
type OriginReport struct {
	Source         string        `json:"source"`
	Epoch          uint64        `json:"epoch"`
	LastSeq        uint64        `json:"last_seq"`
	Snapshots      int64         `json:"snapshots"`
	LastWallUnixNS int64         `json:"last_wall_unix_ns"`
	AgeSeconds     float64       `json:"age_seconds"`
	Stale          bool          `json:"stale"`
	Metrics        *obs.Snapshot `json:"metrics"`
}

// FleetReport is the /fleet JSON document: the fleet-wide rollup plus every
// origin's rollup with its staleness stamp.
type FleetReport struct {
	NowUnixNS        int64          `json:"now_unix_ns"`
	StaleAfterSec    float64        `json:"stale_after_seconds"`
	SnapshotsApplied int64          `json:"snapshots_applied"`
	DupSuppressed    int64          `json:"dup_suppressed"`
	Origins          []OriginReport `json:"origins"`
	Fleet            *obs.Snapshot  `json:"fleet"`
}

// Report assembles the current fleet view, origins sorted by source name.
func (a *Aggregator) Report() *FleetReport {
	now := a.opts.Now()
	a.mu.Lock()
	names := make([]string, 0, len(a.origins))
	for n := range a.origins {
		names = append(names, n)
	}
	sort.Strings(names)
	rep := &FleetReport{
		NowUnixNS:        now.UnixNano(),
		StaleAfterSec:    a.opts.StaleAfter.Seconds(),
		SnapshotsApplied: fleetApplied.Value(),
		DupSuppressed:    fleetDups.Value(),
		Origins:          make([]OriginReport, 0, len(names)),
	}
	for _, n := range names {
		os := a.origins[n]
		age := now.Sub(os.lastLocal).Seconds()
		rep.Origins = append(rep.Origins, OriginReport{
			Source:         n,
			Epoch:          os.epoch,
			LastSeq:        os.maxSeq[os.epoch],
			Snapshots:      os.snapshots,
			LastWallUnixNS: os.lastWall,
			AgeSeconds:     age,
			Stale:          age > a.opts.StaleAfter.Seconds(),
			Metrics:        os.reg.Snapshot(),
		})
	}
	a.mu.Unlock()
	rep.Fleet = a.fleet.Snapshot()
	return rep
}

// Handler serves the /fleet JSON report.
func (a *Aggregator) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(a.Report())
	})
}
