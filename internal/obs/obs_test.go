package obs

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("c") != c {
		t.Fatal("Counter did not return the existing instance")
	}
	g := r.Gauge("g")
	g.Set(2.5)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %g, want 2.5", got)
	}
}

func TestHistogramExactMoments(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramWith("h", []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100})
	for v := 1; v <= 100; v++ {
		h.Observe(float64(v))
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if got, want := h.Mean(), 50.5; math.Abs(got-want) > 1e-12 {
		t.Fatalf("mean = %g, want %g", got, want)
	}
	if h.Min() != 1 || h.Max() != 100 {
		t.Fatalf("min/max = %g/%g", h.Min(), h.Max())
	}
	// Quantiles interpolate inside one 10-wide bucket: tolerance one bucket.
	for _, tc := range []struct{ q, want float64 }{{0.5, 50}, {0.9, 90}, {0.99, 99}} {
		if got := h.Quantile(tc.q); math.Abs(got-tc.want) > 10 {
			t.Fatalf("q%g = %g, want ~%g", tc.q, got, tc.want)
		}
	}
	if got := h.Quantile(0); got != 1 {
		t.Fatalf("q0 = %g, want 1", got)
	}
	if got := h.Quantile(1); got != 100 {
		t.Fatalf("q1 = %g, want 100", got)
	}
}

func TestHistogramOverflowAndNaN(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramWith("h", []float64{1, 2})
	h.Observe(math.NaN()) // dropped
	h.Observe(0.5)
	h.Observe(5) // overflow
	if h.Count() != 2 {
		t.Fatalf("count = %d, want 2 (NaN dropped)", h.Count())
	}
	s := h.snapshot()
	if s.Overflow != 1 {
		t.Fatalf("overflow = %d, want 1", s.Overflow)
	}
	if got := h.Quantile(0.99); got != 5 {
		t.Fatalf("q99 = %g, want clamped max 5", got)
	}
}

func TestEmptyHistogramSnapshotIsJSONSafe(t *testing.T) {
	r := NewRegistry()
	r.Histogram("empty")
	s := r.Snapshot()
	hs := s.Histograms["empty"]
	if hs.Count != 0 || hs.Min != 0 || hs.Max != 0 || hs.P50 != 0 {
		t.Fatalf("empty histogram snapshot not zeroed: %+v", hs)
	}
}

func TestSpanNestingAndRing(t *testing.T) {
	r := NewRegistry()
	root := r.StartSpan("build.kert")
	child := root.Child("build.kert.cpd")
	time.Sleep(time.Millisecond)
	child.End()
	root.End()
	if d := root.End(); d != 0 {
		t.Fatalf("second End returned %v, want 0", d)
	}
	spans := r.RecentSpans()
	if len(spans) != 2 {
		t.Fatalf("ring has %d spans, want 2", len(spans))
	}
	// Child ended first, so it appears first.
	if spans[0].Name != "build.kert.cpd" || spans[0].ParentID != spans[1].ID {
		t.Fatalf("span nesting wrong: %+v", spans)
	}
	if h := r.Histogram("build.kert.seconds"); h.Count() != 1 {
		t.Fatalf("span histogram count = %d, want 1", h.Count())
	}
	if s := r.Snapshot(); s.SpansRecorded != 2 {
		t.Fatalf("spans_recorded = %d, want 2", s.SpansRecorded)
	}
}

func TestSpanRingWraps(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < 600; i++ {
		r.StartSpan("s").End()
	}
	spans := r.RecentSpans()
	if len(spans) != 512 {
		t.Fatalf("ring length = %d, want 512", len(spans))
	}
	if r.ring.totalRecorded() != 600 {
		t.Fatalf("total = %d, want 600", r.ring.totalRecorded())
	}
	// Oldest-first ordering survives the wrap.
	for i := 1; i < len(spans); i++ {
		if spans[i].ID <= spans[i-1].ID {
			t.Fatalf("ring not ordered at %d: %d <= %d", i, spans[i].ID, spans[i-1].ID)
		}
	}
}

// TestConcurrentRegistry exercises every mutation path concurrently with
// snapshots — the -race target for the registry.
func TestConcurrentRegistry(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const iters = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				r.Counter("c").Inc()
				r.Gauge("g").Set(float64(seed))
				r.Histogram("h").Observe(float64(seed*i%97) / 100)
				sp := r.StartSpan("span")
				sp.Child("span.child").End()
				sp.End()
			}
		}(w + 1)
	}
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				r.Snapshot()
				r.RecentSpans()
			}
		}
	}()
	wg.Wait()
	close(done)
	if got := r.Counter("c").Value(); got != workers*iters {
		t.Fatalf("counter = %d, want %d", got, workers*iters)
	}
	if got := r.Gauge("g").Value(); got < 1 || got > workers {
		t.Fatalf("gauge = %g, want one of the writers' values 1..%d", got, workers)
	}
	if got := r.Histogram("h").Count(); got != workers*iters {
		t.Fatalf("histogram count = %d, want %d", got, workers*iters)
	}
}

func TestDefaultRegistryHelpers(t *testing.T) {
	C("obs_test.counter").Inc()
	G("obs_test.gauge").Set(1)
	H("obs_test.hist").Observe(0.001)
	HCount("obs_test.sizes").Observe(42)
	StartSpan("obs_test.span").End()
	s := Default().Snapshot()
	if s.Counters["obs_test.counter"] < 1 {
		t.Fatal("default counter missing")
	}
	if _, ok := s.Histograms["obs_test.span.seconds"]; !ok {
		t.Fatal("default span histogram missing")
	}
}
