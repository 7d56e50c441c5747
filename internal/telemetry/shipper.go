package telemetry

import (
	"fmt"
	"sync"
	"time"

	"kertbn/internal/obs"
	"kertbn/internal/wire/binfmt"
)

// Shipper-side metrics: snapshots built and shipped, ship failures (the
// snapshot still advances — deltas fold into the next one only when the
// send path itself owns retransmission, i.e. a journaled sender), and
// series skipped because they cannot ride the wire format.
var (
	telSnapshots   = obs.C("telemetry.snapshots")
	telShipErrors  = obs.C("telemetry.ship_errors")
	telSeries      = obs.C("telemetry.series_shipped")
	telOversize    = obs.C("telemetry.oversize_series")
	telSnapSeconds = obs.H("telemetry.snapshot.seconds")
)

func init() {
	obs.RegisterPrefix("telemetry", "internal/telemetry")
	obs.RegisterPrefix("fleet", "internal/telemetry")
	obs.RegisterPrefix("slo", "internal/telemetry")
}

// Sender ships one encoded snapshot to the fleet aggregator.
// monitor.TCPSender implements it (durably when journaled); tests use
// in-process fakes.
type Sender interface {
	SendTelemetry(*binfmt.TelemetrySnapshot) error
}

// ShipperOptions configures one process's snapshot stream.
type ShipperOptions struct {
	// Source names this process in the fleet (required, 1..255 bytes).
	Source string
	// Epoch identifies this process incarnation; the aggregator dedups on
	// (Source, Epoch, Seq), so a restarted shipper with a fresh epoch is
	// never mistaken for a replay. Zero draws one from the wall clock.
	Epoch uint64
	// Registry to snapshot (default: the process-global obs.Default()).
	Registry *obs.Registry
	// Interval paces Start's shipping loop (default 10s).
	Interval time.Duration
}

// Shipper periodically snapshots a registry and ships the increment since
// the previous snapshot. Unchanged series are omitted; an entirely idle
// interval still ships an empty snapshot, which doubles as the liveness
// heartbeat behind the aggregator's staleness stamps.
type Shipper struct {
	opts   ShipperOptions
	sender Sender

	mu     sync.Mutex
	seq    uint64
	cds    map[string]*obs.CounterDelta
	gds    map[string]*obs.GaugeDelta
	hds    map[string]*obs.HistogramDelta
	bounds map[string][]float64

	stopOnce sync.Once
	started  bool
	stop     chan struct{}
	done     chan struct{}
}

// NewShipper creates a shipper; it does not start shipping (call Start, or
// drive Ship yourself for deterministic tests).
func NewShipper(sender Sender, opts ShipperOptions) (*Shipper, error) {
	if len(opts.Source) == 0 || len(opts.Source) > 255 {
		return nil, fmt.Errorf("telemetry: source %q must be 1..255 bytes", opts.Source)
	}
	if opts.Registry == nil {
		opts.Registry = obs.Default()
	}
	if opts.Interval <= 0 {
		opts.Interval = 10 * time.Second
	}
	if opts.Epoch == 0 {
		opts.Epoch = uint64(time.Now().UnixNano())
	}
	return &Shipper{
		opts:   opts,
		sender: sender,
		cds:    map[string]*obs.CounterDelta{},
		gds:    map[string]*obs.GaugeDelta{},
		hds:    map[string]*obs.HistogramDelta{},
		bounds: map[string][]float64{},
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}, nil
}

// Snapshot builds the next delta snapshot: every counter/histogram's
// increment since the previous Snapshot call and every gauge whose value
// changed, in sorted name order (the encoding is canonical). The sequence
// number advances per call.
func (s *Shipper) Snapshot() *binfmt.TelemetrySnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	start := time.Now()
	s.seq++
	snap := &binfmt.TelemetrySnapshot{
		Source:     s.opts.Source,
		Epoch:      s.opts.Epoch,
		Seq:        s.seq,
		WallUnixNS: start.UnixNano(),
	}
	reg := s.opts.Registry
	reg.VisitCounters(func(name string, c *obs.Counter) {
		if len(name) > 255 {
			telOversize.Inc()
			return
		}
		d := s.cds[name]
		if d == nil {
			d = &obs.CounterDelta{}
			s.cds[name] = d
		}
		if delta := d.Take(c); delta != 0 {
			snap.Counters = append(snap.Counters, binfmt.TelemetryCounter{Name: name, Delta: delta})
		}
	})
	reg.VisitGauges(func(name string, g *obs.Gauge) {
		if len(name) > 255 {
			telOversize.Inc()
			return
		}
		d := s.gds[name]
		if d == nil {
			d = &obs.GaugeDelta{}
			s.gds[name] = d
		}
		if v, changed := d.Take(g); changed {
			snap.Gauges = append(snap.Gauges, binfmt.TelemetryGauge{Name: name, Value: v})
		}
	})
	reg.VisitHistograms(func(name string, h *obs.Histogram) {
		if len(name) > 255 || h.NumBuckets() > 0xFFFF {
			telOversize.Inc()
			return
		}
		d := s.hds[name]
		if d == nil {
			d = &obs.HistogramDelta{}
			s.hds[name] = d
		}
		counts, overflow, sum, mn, mx, changed := d.Take(h, nil)
		if !changed {
			return
		}
		b := s.bounds[name]
		if b == nil {
			b = h.Bounds()
			s.bounds[name] = b
		}
		snap.Hists = append(snap.Hists, binfmt.TelemetryHist{
			Name: name, Bounds: b, Counts: counts,
			Overflow: overflow, Sum: sum, Min: mn, Max: mx,
		})
	})
	telSnapshots.Inc()
	telSeries.Add(int64(len(snap.Counters) + len(snap.Gauges) + len(snap.Hists)))
	telSnapSeconds.Observe(time.Since(start).Seconds())
	return snap
}

// Ship builds the next snapshot and sends it. With a journaled sender a
// returned error still means the snapshot is durable; with a plain sender
// the increment is lost (counted in telemetry.ship_errors) and the fleet
// view lags until the counters move again.
func (s *Shipper) Ship() error {
	snap := s.Snapshot()
	if err := s.sender.SendTelemetry(snap); err != nil {
		telShipErrors.Inc()
		return err
	}
	return nil
}

// Start launches the shipping loop at the configured interval. Stop it with
// Stop, which ships one final snapshot so short-lived processes (batch
// CLIs) still land their last increment.
func (s *Shipper) Start() {
	s.mu.Lock()
	s.started = true
	s.mu.Unlock()
	go func() {
		defer close(s.done)
		t := time.NewTicker(s.opts.Interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				_ = s.Ship()
			case <-s.stop:
				return
			}
		}
	}()
}

// Stop halts the loop started by Start and ships a final snapshot. Safe to
// call once after Start; a shipper that was never started may still call
// Stop to flush.
func (s *Shipper) Stop() {
	s.stopOnce.Do(func() {
		close(s.stop)
		s.mu.Lock()
		started := s.started
		s.mu.Unlock()
		if started {
			select {
			case <-s.done:
			case <-time.After(2 * time.Second):
			}
		}
		_ = s.Ship()
	})
}
