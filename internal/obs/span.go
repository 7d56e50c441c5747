package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// SpanRecord is one completed span as kept in the recent-span ring buffer
// and served at /spans. TraceID is zero for untraced local spans; sampled
// spans carry the 64-bit trace ID that links records across processes.
type SpanRecord struct {
	ID           uint64            `json:"id"`
	ParentID     uint64            `json:"parent_id,omitempty"`
	TraceID      uint64            `json:"trace_id,omitempty"`
	Name         string            `json:"name"`
	StartUnixNS  int64             `json:"start_unix_ns"`
	DurationNS   int64             `json:"duration_ns"`
	DurationText string            `json:"duration"`
	Attrs        map[string]string `json:"attrs,omitempty"`
}

// Span is a lightweight in-flight timer. Ending a span records its
// duration into the "<name>.seconds" histogram of its registry and pushes
// a SpanRecord into the ring buffer. Spans nest: child spans carry their
// parent's ID so the /spans view can be reassembled into a tree, and spans
// started with StartSpanCtx additionally carry a trace ID so /traces can
// assemble cross-process causal chains.
//
// A nil *Span is a valid no-op: End, SetAttr and Context all tolerate it,
// which is how unsampled hot paths skip span creation without branching at
// every use site.
type Span struct {
	reg      *Registry
	name     string
	id       uint64
	parentID uint64
	trace    TraceContext
	start    time.Time
	attrs    map[string]string
	ended    atomic.Bool
}

// StartSpan starts a root span.
func (r *Registry) StartSpan(name string) *Span {
	return &Span{reg: r, name: name, id: r.spanID.Add(1), start: time.Now()}
}

// Child starts a nested span under s (in the same trace, if any).
func (s *Span) Child(name string) *Span {
	return s.reg.startSpanAt(name, TraceContext{TraceID: s.trace.TraceID, SpanID: s.id}, time.Now())
}

// Context returns the trace context rooted at this span: children created
// from it (locally or across a wire hop) become this span's children in
// the assembled trace. The zero context is returned for untraced spans and
// nil receivers.
func (s *Span) Context() TraceContext {
	if s == nil || !s.trace.Sampled() {
		return TraceContext{}
	}
	return TraceContext{TraceID: s.trace.TraceID, SpanID: s.id}
}

// SetAttr attaches one key/value attribute to the span, shown in /traces
// and the Chrome export (e.g. the retry attempt number of a wire hop).
// Call it only from the goroutine that owns the span, before End. No-op on
// nil receivers.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	if s.attrs == nil {
		s.attrs = make(map[string]string, 4)
	}
	s.attrs[key] = value
}

// End completes the span, recording its duration (once; later calls are
// no-ops returning 0). Safe on a nil receiver, so callers holding a
// maybe-sampled span need no branch.
func (s *Span) End() time.Duration {
	if s == nil || !s.ended.CompareAndSwap(false, true) {
		return 0
	}
	d := time.Since(s.start)
	s.reg.Histogram(s.name + ".seconds").Observe(d.Seconds())
	s.reg.spanRingRef().push(SpanRecord{
		ID:           s.id,
		ParentID:     s.parentID,
		TraceID:      s.trace.TraceID,
		Name:         s.name,
		StartUnixNS:  s.start.UnixNano(),
		DurationNS:   d.Nanoseconds(),
		DurationText: d.String(),
		Attrs:        s.attrs,
	})
	return d
}

// EndAt completes the span as End does but with an explicit end time —
// the receiving half of a wire hop whose duration is send-to-receive, not
// receive-to-now.
func (s *Span) EndAt(end time.Time) time.Duration {
	if s == nil || !s.ended.CompareAndSwap(false, true) {
		return 0
	}
	d := end.Sub(s.start)
	if d < 0 {
		d = 0
	}
	s.reg.Histogram(s.name + ".seconds").Observe(d.Seconds())
	s.reg.spanRingRef().push(SpanRecord{
		ID:           s.id,
		ParentID:     s.parentID,
		TraceID:      s.trace.TraceID,
		Name:         s.name,
		StartUnixNS:  s.start.UnixNano(),
		DurationNS:   d.Nanoseconds(),
		DurationText: d.String(),
		Attrs:        s.attrs,
	})
	return d
}

// spanRing is a fixed-capacity ring of recently completed spans. Pushing
// past capacity overwrites the oldest record and counts it as dropped, so
// /spans can report the loss instead of silently rotating.
type spanRing struct {
	mu      sync.Mutex
	buf     []SpanRecord
	head    int // index of the oldest record once the ring is full
	total   int64
	dropped int64
}

func newSpanRing(capacity int) *spanRing {
	if capacity < 1 {
		capacity = 1
	}
	return &spanRing{buf: make([]SpanRecord, 0, capacity)}
}

func (r *spanRing) push(rec SpanRecord) {
	r.mu.Lock()
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, rec)
	} else {
		r.buf[r.head] = rec
		r.head = (r.head + 1) % len(r.buf)
		r.dropped++
	}
	r.total++
	r.mu.Unlock()
}

// reset clears the buffered spans and the recorded/dropped totals.
func (r *spanRing) reset() {
	r.mu.Lock()
	r.buf = r.buf[:0]
	r.head = 0
	r.total = 0
	r.dropped = 0
	r.mu.Unlock()
}

func (r *spanRing) totalRecorded() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

func (r *spanRing) totalDropped() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// recent returns the buffered spans oldest-first.
func (r *spanRing) recent() []SpanRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]SpanRecord, 0, len(r.buf))
	out = append(out, r.buf[r.head:]...)
	out = append(out, r.buf[:r.head]...)
	return out
}

// RecentSpans returns the registry's buffered spans, oldest-first.
func (r *Registry) RecentSpans() []SpanRecord { return r.spanRingRef().recent() }
