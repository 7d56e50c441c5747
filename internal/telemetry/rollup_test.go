package telemetry

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"kertbn/internal/obs"
	"kertbn/internal/wire/binfmt"
)

// wireSender round-trips every snapshot through the binary codec before
// delivering it, exactly like the TCP transport, so rollup tests exercise
// the encoded representation rather than in-process pointers.
func wireSender(t *testing.T, deliver func(*binfmt.TelemetrySnapshot)) Sender {
	t.Helper()
	return SenderFunc(func(s *binfmt.TelemetrySnapshot) error {
		buf, err := s.AppendWire(nil)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		var dec binfmt.TelemetrySnapshot
		if err := dec.UnmarshalWire(buf); err != nil {
			t.Fatalf("decode: %v", err)
		}
		deliver(&dec)
		return nil
	})
}

func relErr(got, want float64) float64 {
	if got == want {
		return 0
	}
	d := math.Abs(got - want)
	if m := math.Max(math.Abs(got), math.Abs(want)); m > 1 {
		return d / m
	}
	return d
}

// TestRollupIdentity is the tentpole correctness property: three agents
// observe disjoint shards of one workload and ship delta snapshots over the
// wire codec; the fleet rollup must equal a reference registry that saw
// every observation directly — counters bit-exact, histogram quantiles to
// ≤1e-9.
func TestRollupIdentity(t *testing.T) {
	agg := NewAggregator(AggregatorOptions{})
	ref := obs.NewRegistry()
	bounds := []float64{0.001, 0.01, 0.1, 1, 10}

	const agents = 3
	regs := make([]*obs.Registry, agents)
	ships := make([]*Shipper, agents)
	for i := range regs {
		regs[i] = obs.NewRegistry()
		s, err := NewShipper(wireSender(t, func(snap *binfmt.TelemetrySnapshot) { agg.Apply(snap) }),
			ShipperOptions{Source: string(rune('a' + i)), Epoch: uint64(i + 1), Registry: regs[i]})
		if err != nil {
			t.Fatal(err)
		}
		ships[i] = s
	}

	rng := rand.New(rand.NewSource(42))
	for round := 0; round < 8; round++ {
		for i, reg := range regs {
			n := 50 + rng.Intn(200)
			reg.Counter("monitor.batches").Add(int64(n))
			ref.Counter("monitor.batches").Add(int64(n))
			reg.Gauge("sched.window_rows").Set(float64(1000*i + round))
			h := reg.HistogramWith("gateway.route.posterior.seconds", bounds)
			rh := ref.HistogramWith("gateway.route.posterior.seconds", bounds)
			for k := 0; k < n; k++ {
				v := math.Exp(rng.NormFloat64()*2 - 3)
				h.Observe(v)
				rh.Observe(v)
			}
			if err := ships[i].Ship(); err != nil {
				t.Fatal(err)
			}
		}
	}

	fleet := agg.Fleet()
	if got, want := fleet.Counter("monitor.batches").Value(), ref.Counter("monitor.batches").Value(); got != want {
		t.Fatalf("fleet counter %d, reference %d (must be bit-exact)", got, want)
	}
	fh := fleet.HistogramWith("gateway.route.posterior.seconds", bounds)
	rh := ref.HistogramWith("gateway.route.posterior.seconds", bounds)
	if fh.Count() != rh.Count() {
		t.Fatalf("fleet hist count %d, reference %d", fh.Count(), rh.Count())
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		if e := relErr(fh.Quantile(q), rh.Quantile(q)); e > 1e-9 {
			t.Fatalf("q%v: fleet %v reference %v relerr %v > 1e-9", q, fh.Quantile(q), rh.Quantile(q), e)
		}
	}
	if fh.Min() != rh.Min() || fh.Max() != rh.Max() {
		t.Fatalf("min/max drifted: fleet [%v,%v] reference [%v,%v]", fh.Min(), fh.Max(), rh.Min(), rh.Max())
	}
	if e := relErr(fh.Sum(), rh.Sum()); e > 1e-9 {
		t.Fatalf("sum: fleet %v reference %v", fh.Sum(), rh.Sum())
	}

	// Per-origin rollups carry each agent's own share.
	var perOrigin int64
	for i := 0; i < agents; i++ {
		or := agg.Origin(string(rune('a' + i)))
		if or == nil {
			t.Fatalf("origin %c missing", 'a'+i)
		}
		perOrigin += or.Counter("monitor.batches").Value()
		if got, want := or.Counter("monitor.batches").Value(), regs[i].Counter("monitor.batches").Value(); got != want {
			t.Fatalf("origin %c counter %d, agent registry %d", 'a'+i, got, want)
		}
	}
	if perOrigin != ref.Counter("monitor.batches").Value() {
		t.Fatalf("per-origin sum %d != whole %d", perOrigin, ref.Counter("monitor.batches").Value())
	}
}

// TestAggregatorDedupBySeq: re-applying a snapshot (a journaled-transport
// replay) changes nothing — the (source, epoch, seq) watermark rejects it.
func TestAggregatorDedupBySeq(t *testing.T) {
	agg := NewAggregator(AggregatorOptions{})
	snap := &binfmt.TelemetrySnapshot{
		Source: "agent-1", Epoch: 7, Seq: 1, WallUnixNS: 1000,
		Counters: []binfmt.TelemetryCounter{{Name: "monitor.batches", Delta: 10}},
	}
	if !agg.Apply(snap) {
		t.Fatal("first apply rejected")
	}
	if agg.Apply(snap) {
		t.Fatal("replay accepted")
	}
	if got := agg.Fleet().Counter("monitor.batches").Value(); got != 10 {
		t.Fatalf("counter %d after replay, want 10", got)
	}

	// A fresh epoch restarts seq at 1 and must NOT be treated as a replay.
	snap2 := &binfmt.TelemetrySnapshot{
		Source: "agent-1", Epoch: 8, Seq: 1, WallUnixNS: 2000,
		Counters: []binfmt.TelemetryCounter{{Name: "monitor.batches", Delta: 5}},
	}
	if !agg.Apply(snap2) {
		t.Fatal("new-epoch snapshot rejected as replay")
	}
	// ...and a late replay of the OLD epoch still dedups against its own
	// epoch's watermark even after the new epoch appeared.
	if agg.Apply(snap) {
		t.Fatal("old-epoch replay accepted after restart")
	}
	if got := agg.Fleet().Counter("monitor.batches").Value(); got != 15 {
		t.Fatalf("counter %d, want 15", got)
	}
}

// TestAggregatorGaugeLWW: fleet gauges take the newest wall stamp's value;
// an out-of-order older snapshot can't roll the fleet gauge backwards but
// still updates its own origin rollup.
func TestAggregatorGaugeLWW(t *testing.T) {
	agg := NewAggregator(AggregatorOptions{})
	agg.Apply(&binfmt.TelemetrySnapshot{
		Source: "b", Epoch: 1, Seq: 1, WallUnixNS: 2000,
		Gauges: []binfmt.TelemetryGauge{{Name: "sched.window_rows", Value: 20}},
	})
	agg.Apply(&binfmt.TelemetrySnapshot{
		Source: "a", Epoch: 1, Seq: 1, WallUnixNS: 1000,
		Gauges: []binfmt.TelemetryGauge{{Name: "sched.window_rows", Value: 10}},
	})
	if got := agg.Fleet().Gauge("sched.window_rows").Value(); got != 20 {
		t.Fatalf("fleet gauge %v, want 20 (last-write-wins by wall stamp)", got)
	}
	if got := agg.Origin("a").Gauge("sched.window_rows").Value(); got != 10 {
		t.Fatalf("origin gauge %v, want 10", got)
	}
}

// TestAggregatorStaleness: an origin that stops shipping goes stale in the
// /fleet report after StaleAfter.
func TestAggregatorStaleness(t *testing.T) {
	now := time.Unix(100, 0)
	agg := NewAggregator(AggregatorOptions{
		StaleAfter: 10 * time.Second,
		Now:        func() time.Time { return now },
	})
	agg.Apply(&binfmt.TelemetrySnapshot{Source: "a", Epoch: 1, Seq: 1, WallUnixNS: now.UnixNano()})
	now = now.Add(5 * time.Second)
	agg.Apply(&binfmt.TelemetrySnapshot{Source: "b", Epoch: 1, Seq: 1, WallUnixNS: now.UnixNano()})

	now = now.Add(8 * time.Second)
	rep := agg.Report()
	if len(rep.Origins) != 2 {
		t.Fatalf("%d origins, want 2", len(rep.Origins))
	}
	if rep.Origins[0].Source != "a" || rep.Origins[1].Source != "b" {
		t.Fatalf("origins not sorted: %q, %q", rep.Origins[0].Source, rep.Origins[1].Source)
	}
	if !rep.Origins[0].Stale {
		t.Fatalf("origin a age %vs should be stale (>10s)", rep.Origins[0].AgeSeconds)
	}
	if rep.Origins[1].Stale {
		t.Fatalf("origin b age %vs should be fresh (<10s)", rep.Origins[1].AgeSeconds)
	}
	if rep.Origins[0].AgeSeconds != 13 {
		t.Fatalf("origin a age %v, want 13", rep.Origins[0].AgeSeconds)
	}
}

// TestShipperDeltasOnly: unchanged series are omitted from snapshots; an
// idle interval still ships an (empty) heartbeat with an advancing seq.
func TestShipperDeltasOnly(t *testing.T) {
	reg := obs.NewRegistry()
	var got []*binfmt.TelemetrySnapshot
	s, err := NewShipper(wireSender(t, func(snap *binfmt.TelemetrySnapshot) {
		cp := *snap
		got = append(got, &cp)
	}), ShipperOptions{Source: "x", Epoch: 1, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}

	reg.Counter("monitor.batches").Add(3)
	reg.Gauge("sched.window_rows").Set(7)
	if err := s.Ship(); err != nil {
		t.Fatal(err)
	}
	if err := s.Ship(); err != nil { // idle interval
		t.Fatal(err)
	}
	reg.Counter("monitor.batches").Add(2)
	if err := s.Ship(); err != nil {
		t.Fatal(err)
	}

	if len(got) != 3 {
		t.Fatalf("%d snapshots, want 3", len(got))
	}
	if got[0].Seq != 1 || got[1].Seq != 2 || got[2].Seq != 3 {
		t.Fatalf("seqs %d,%d,%d want 1,2,3", got[0].Seq, got[1].Seq, got[2].Seq)
	}
	if len(got[0].Counters) != 1 || got[0].Counters[0].Delta != 3 {
		t.Fatalf("first snapshot counters %+v, want one delta=3", got[0].Counters)
	}
	if len(got[0].Gauges) != 1 || got[0].Gauges[0].Value != 7 {
		t.Fatalf("first snapshot gauges %+v", got[0].Gauges)
	}
	if len(got[1].Counters)+len(got[1].Gauges)+len(got[1].Hists) != 0 {
		t.Fatalf("idle heartbeat not empty: %+v", got[1])
	}
	if len(got[2].Counters) != 1 || got[2].Counters[0].Delta != 2 {
		t.Fatalf("third snapshot counters %+v, want one delta=2", got[2].Counters)
	}
}

// TestShipperStartStop exercises the background loop end to end, including
// the final flush on Stop.
func TestShipperStartStop(t *testing.T) {
	reg := obs.NewRegistry()
	applied := make(chan *binfmt.TelemetrySnapshot, 64)
	s, err := NewShipper(wireSender(t, func(snap *binfmt.TelemetrySnapshot) {
		cp := *snap
		applied <- &cp
	}), ShipperOptions{Source: "x", Epoch: 1, Registry: reg, Interval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	reg.Counter("monitor.batches").Add(9)
	s.Start()
	select {
	case snap := <-applied:
		if len(snap.Counters) != 1 || snap.Counters[0].Delta != 9 {
			t.Fatalf("shipped %+v, want delta=9", snap.Counters)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no snapshot shipped within 2s")
	}
	reg.Counter("monitor.batches").Add(1)
	s.Stop() // must flush the last increment
	deadline := time.After(2 * time.Second)
	for {
		select {
		case snap := <-applied:
			for _, c := range snap.Counters {
				if c.Delta == 1 {
					return
				}
			}
		case <-deadline:
			t.Fatal("final flush never shipped the last increment")
		}
	}
}

// SenderFunc adapts a function to the Sender interface.
type SenderFunc func(*binfmt.TelemetrySnapshot) error

// SendTelemetry implements Sender.
func (f SenderFunc) SendTelemetry(s *binfmt.TelemetrySnapshot) error { return f(s) }

// Origin returns origin src's rollup registry, or nil if src never shipped.
func (a *Aggregator) Origin(src string) *obs.Registry {
	a.mu.Lock()
	defer a.mu.Unlock()
	if os := a.origins[src]; os != nil {
		return os.reg
	}
	return nil
}
