package obs

import (
	"encoding/json"
	"testing"
	"time"
)

func TestDeriveIDDeterministicAndNonZero(t *testing.T) {
	a := DeriveID(42, 7)
	b := DeriveID(42, 7)
	if a != b {
		t.Fatalf("DeriveID not deterministic: %x vs %x", a, b)
	}
	if a == 0 {
		t.Fatal("DeriveID returned the unsampled sentinel 0")
	}
	if DeriveID(42, 8) == a {
		t.Fatal("adjacent sequence numbers collided")
	}
	if DeriveID(43, 7) == a {
		t.Fatal("different seeds collided")
	}
	// Exhaustive non-zero check over a small range.
	for i := uint64(0); i < 10_000; i++ {
		if DeriveID(0, i) == 0 {
			t.Fatalf("DeriveID(0,%d) = 0", i)
		}
	}
}

func TestTracerSamplingCadence(t *testing.T) {
	tr := NewTracer(99, 4)
	var sampled int
	var first TraceContext
	for i := 0; i < 16; i++ {
		tc := tr.Sample()
		if i%4 == 0 {
			if !tc.Sampled() {
				t.Fatalf("batch %d should be sampled", i)
			}
			if i == 0 {
				first = tc
			}
			sampled++
		} else if tc.Sampled() {
			t.Fatalf("batch %d should not be sampled", i)
		}
	}
	if sampled != 4 {
		t.Fatalf("sampled %d of 16 at 1/4", sampled)
	}
	// Deterministic across tracers with the same seed.
	tr2 := NewTracer(99, 4)
	if got := tr2.Sample(); got != first {
		t.Fatalf("same seed, different first context: %+v vs %+v", got, first)
	}
	// Disabled and nil tracers never sample.
	off := NewTracer(1, 0)
	for i := 0; i < 8; i++ {
		if off.Sample().Sampled() {
			t.Fatal("sampleEvery=0 tracer sampled")
		}
	}
	var nilT *Tracer
	if nilT.Sample().Sampled() {
		t.Fatal("nil tracer is not a no-op")
	}
}

func TestStartSpanCtxLinksTraces(t *testing.T) {
	r := NewRegistry()
	root := r.StartSpanCtx("monitor.flush", TraceContext{TraceID: 0xABC})
	child := r.StartSpanCtx("monitor.ingest", root.Context())
	grand := child.Child("sched.push")
	grand.End()
	child.End()
	root.End()

	traces := r.Traces()
	if len(traces) != 1 {
		t.Fatalf("traces = %d, want 1", len(traces))
	}
	tr := traces[0]
	if tr.TraceID != 0xABC || tr.Spans != 3 {
		t.Fatalf("trace = %+v", tr)
	}
	if len(tr.Roots) != 1 || tr.Roots[0].Name != "monitor.flush" {
		t.Fatalf("roots = %+v", tr.Roots)
	}
	c := tr.Roots[0].Children
	if len(c) != 1 || c[0].Name != "monitor.ingest" {
		t.Fatalf("children = %+v", c)
	}
	if len(c[0].Children) != 1 || c[0].Children[0].Name != "sched.push" {
		t.Fatalf("grandchildren = %+v", c[0].Children)
	}
}

func TestUnsampledContextBehavesLikeStartSpan(t *testing.T) {
	r := NewRegistry()
	sp := r.StartSpanCtx("core.work", TraceContext{})
	if sp.Context().Sampled() {
		t.Fatal("unsampled span leaked a sampled context")
	}
	sp.End()
	recs := r.RecentSpans()
	if len(recs) != 1 || recs[0].TraceID != 0 {
		t.Fatalf("records = %+v", recs)
	}
	if len(r.Traces()) != 0 {
		t.Fatal("untraced span appeared in /traces")
	}
}

func TestNilSpanIsNoOp(t *testing.T) {
	var sp *Span
	sp.SetAttr("k", "v")
	if sp.End() != 0 || sp.EndAt(time.Now()) != 0 {
		t.Fatal("nil span End returned nonzero")
	}
	if sp.Context().Sampled() {
		t.Fatal("nil span context sampled")
	}
}

func TestSpanEndAtClampsNegative(t *testing.T) {
	r := NewRegistry()
	sp := r.StartSpanCtxAt("monitor.wire_hop", TraceContext{TraceID: 5}, time.Now())
	if d := sp.EndAt(time.Now().Add(-time.Second)); d != 0 {
		t.Fatalf("negative duration not clamped: %v", d)
	}
}

func TestRingOverflowReportsDrops(t *testing.T) {
	r := NewRegistryWithCapacity(4)
	for i := 0; i < 10; i++ {
		r.StartSpan("core.span").End()
	}
	if got := len(r.RecentSpans()); got != 4 {
		t.Fatalf("ring holds %d, want 4", got)
	}
	if got := r.Snapshot().SpansDropped; got != 6 {
		t.Fatalf("dropped = %d, want 6", got)
	}
	snap := r.Snapshot()
	if snap.SpansRecorded != 10 || snap.SpansDropped != 6 {
		t.Fatalf("snapshot totals = %d recorded / %d dropped", snap.SpansRecorded, snap.SpansDropped)
	}
	// Growing the ring clears the buffer and the totals restart.
	r.SetSpanCapacity(16)
	for i := 0; i < 5; i++ {
		r.StartSpan("core.span").End()
	}
	if got := r.Snapshot().SpansDropped; got != 0 {
		t.Fatalf("dropped after regrow = %d, want 0", got)
	}
	if got := len(r.RecentSpans()); got != 5 {
		t.Fatalf("ring after regrow holds %d, want 5", got)
	}
}

func TestJournalRingDropsAndReset(t *testing.T) {
	j := NewJournal(3)
	for i := 0; i < 5; i++ {
		j.Record(Event{Type: EventRebuild, Generation: i})
	}
	recent := j.Recent()
	if len(recent) != 3 {
		t.Fatalf("journal holds %d, want 3", len(recent))
	}
	if recent[0].Generation != 2 || recent[2].Generation != 4 {
		t.Fatalf("journal order wrong: %+v", recent)
	}
	for i, e := range recent {
		if e.Seq != int64(i+3) {
			t.Fatalf("seq[%d] = %d", i, e.Seq)
		}
		if e.TimeUnixNS == 0 {
			t.Fatal("timestamp not stamped")
		}
	}
	if j.Total() != 5 || j.Dropped() != 2 {
		t.Fatalf("totals = %d / %d", j.Total(), j.Dropped())
	}
}

func TestRegistryJournalInSnapshotAndReset(t *testing.T) {
	r := NewRegistry()
	r.Journal().Record(Event{Type: EventDriftAlarm, Detail: "node D"})
	r.StartSpan("core.x").End()
	if snap := r.Snapshot(); snap.EventsRecorded != 1 {
		t.Fatalf("events recorded = %d", snap.EventsRecorded)
	}
	r.Reset()
	if r.Journal().Total() != 0 || len(r.RecentSpans()) != 0 {
		t.Fatal("Reset did not clear journal and spans")
	}
}

func TestAssembleTracesOrphansBecomeRoots(t *testing.T) {
	recs := []SpanRecord{
		{ID: 2, ParentID: 1, TraceID: 9, Name: "b", StartUnixNS: 100, DurationNS: 10},
		{ID: 3, ParentID: 2, TraceID: 9, Name: "c", StartUnixNS: 105, DurationNS: 3},
		// Parent span 1 aged out of the ring: 2 must surface as a root.
	}
	traces := AssembleTraces(recs)
	if len(traces) != 1 || len(traces[0].Roots) != 1 || traces[0].Roots[0].ID != 2 {
		t.Fatalf("traces = %+v", traces)
	}
	if traces[0].DurationNS != 10 {
		t.Fatalf("duration = %d", traces[0].DurationNS)
	}
	if len(traces[0].Roots[0].Children) != 1 {
		t.Fatal("child not linked under orphan root")
	}
}

func TestChromeTraceFormat(t *testing.T) {
	r := NewRegistry()
	root := r.StartSpanCtx("monitor.flush", TraceContext{TraceID: 0xDEADBEEF})
	hop := r.StartSpanCtx("monitor.wire_hop", root.Context())
	hop.SetAttr("attempt", "0")
	hop.End()
	root.End()

	doc := ChromeTrace(r.Traces())
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("events = %d, want 2", len(doc.TraceEvents))
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" || ev.PID != 1 || ev.TID != 1 {
			t.Fatalf("event shape wrong: %+v", ev)
		}
		if ev.Args["trace_id"] != "00000000deadbeef" {
			t.Fatalf("trace_id arg = %q", ev.Args["trace_id"])
		}
	}
	var hopEv *ChromeEvent
	for i := range doc.TraceEvents {
		if doc.TraceEvents[i].Name == "monitor.wire_hop" {
			hopEv = &doc.TraceEvents[i]
		}
	}
	if hopEv == nil || hopEv.Args["attempt"] != "0" {
		t.Fatalf("wire hop attrs missing: %+v", hopEv)
	}
	// The document must round-trip through JSON (what /traces?format=chrome
	// and kertmon -trace-out emit).
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	var back map[string]any
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if _, ok := back["traceEvents"]; !ok {
		t.Fatal("traceEvents key missing")
	}
}
