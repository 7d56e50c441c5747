package obs

import (
	"sort"
	"sync/atomic"
	"time"
)

// TraceContext identifies a position inside one distributed trace: the
// trace the work belongs to and the span that caused it. The zero value
// means "unsampled", and every API accepting a TraceContext treats the zero
// value as a no-op — the hot path stays allocation-free when a batch was
// not sampled.
type TraceContext struct {
	TraceID uint64 `json:"trace_id"`
	SpanID  uint64 `json:"span_id"`
}

// Sampled reports whether the context belongs to a sampled trace.
func (tc TraceContext) Sampled() bool { return tc.TraceID != 0 }

// DeriveID is the split-RNG finalizer (the same SplitMix64 constants as
// stats.RNG.Split) applied to (state, i): a pure function, so every ID in
// the system is deterministically derived from a seed and a sequence
// number. The result is never 0 — 0 is the "unsampled" sentinel.
func DeriveID(state, i uint64) uint64 {
	z := state + 0x9E3779B97F4A7C15*(i+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	z = z*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03
	if z == 0 {
		z = 1
	}
	return z
}

// Tracer decides, per batch, whether the work it spawns is traced, and
// derives the trace ID for sampled batches. Sampling is deterministic —
// batch sequence numbers divisible by the sampling period are traced — so
// a seeded run always samples the same batches. A nil Tracer never samples.
type Tracer struct {
	seed  uint64
	every uint64
	seq   atomic.Uint64
}

// NewTracer creates a tracer sampling one batch in every sampleEvery
// (sampleEvery <= 0 disables sampling entirely).
func NewTracer(seed uint64, sampleEvery int) *Tracer {
	t := &Tracer{seed: seed}
	if sampleEvery > 0 {
		t.every = uint64(sampleEvery)
	}
	return t
}

// Sample draws the next batch sequence number and returns a root context
// for it when that batch is sampled, the zero context otherwise. The
// unsampled path performs one atomic add and no allocation.
func (t *Tracer) Sample() TraceContext {
	if t == nil || t.every == 0 {
		return TraceContext{}
	}
	seq := t.seq.Add(1) - 1
	if seq%t.every != 0 {
		return TraceContext{}
	}
	return TraceContext{TraceID: DeriveID(t.seed, seq)}
}

// StartSpanCtx starts a span joined to the given trace context: the span
// becomes a child of tc.SpanID inside tc.TraceID. With the zero context it
// behaves exactly like StartSpan (an untraced local span).
func (r *Registry) StartSpanCtx(name string, tc TraceContext) *Span {
	return r.startSpanAt(name, tc, time.Now())
}

// StartSpanCtxAt is StartSpanCtx with an explicit start time — how a
// receiver reconstructs a wire-hop span whose clock started on the sending
// side (the frame carries the send timestamp).
func (r *Registry) StartSpanCtxAt(name string, tc TraceContext, start time.Time) *Span {
	return r.startSpanAt(name, tc, start)
}

func (r *Registry) startSpanAt(name string, tc TraceContext, start time.Time) *Span {
	id := r.spanID.Add(1)
	if tc.Sampled() {
		id = DeriveID(tc.TraceID, id)
	}
	return &Span{reg: r, name: name, id: id, parentID: tc.SpanID, trace: tc, start: start}
}

// StartSpanCtx starts a context-joined span on the default registry.
func StartSpanCtx(name string, tc TraceContext) *Span { return std.StartSpanCtx(name, tc) }

// StartSpanCtxAt starts a context-joined span with an explicit start time
// on the default registry.
func StartSpanCtxAt(name string, tc TraceContext, start time.Time) *Span {
	return std.StartSpanCtxAt(name, tc, start)
}

// TraceNode is one span in an assembled trace tree.
type TraceNode struct {
	SpanRecord
	Children []*TraceNode `json:"children,omitempty"`
}

// Trace is one assembled trace: every buffered span sharing a trace ID,
// linked parent-to-child. Spans whose parent has aged out of the ring (or
// lives in another process's ring) surface as extra roots rather than being
// dropped.
type Trace struct {
	TraceID     uint64       `json:"trace_id"`
	Spans       int          `json:"spans"`
	StartUnixNS int64        `json:"start_unix_ns"`
	DurationNS  int64        `json:"duration_ns"`
	Roots       []*TraceNode `json:"roots"`
}

// Traces assembles the buffered sampled spans into trace trees, oldest
// trace first.
func (r *Registry) Traces() []Trace {
	return AssembleTraces(r.RecentSpans())
}

// AssembleTraces groups records by trace ID and links them into trees —
// exposed separately so dumps merged from several processes' /spans can be
// assembled too.
func AssembleTraces(records []SpanRecord) []Trace {
	byTrace := map[uint64][]SpanRecord{}
	for _, rec := range records {
		if rec.TraceID == 0 {
			continue
		}
		byTrace[rec.TraceID] = append(byTrace[rec.TraceID], rec)
	}
	out := make([]Trace, 0, len(byTrace))
	for id, recs := range byTrace {
		nodes := make(map[uint64]*TraceNode, len(recs))
		for _, rec := range recs {
			nodes[rec.ID] = &TraceNode{SpanRecord: rec}
		}
		tr := Trace{TraceID: id, Spans: len(recs)}
		var endNS int64
		for _, rec := range recs {
			n := nodes[rec.ID]
			if parent, ok := nodes[rec.ParentID]; ok && rec.ParentID != rec.ID {
				parent.Children = append(parent.Children, n)
			} else {
				tr.Roots = append(tr.Roots, n)
			}
			if tr.StartUnixNS == 0 || rec.StartUnixNS < tr.StartUnixNS {
				tr.StartUnixNS = rec.StartUnixNS
			}
			if e := rec.StartUnixNS + rec.DurationNS; e > endNS {
				endNS = e
			}
		}
		tr.DurationNS = endNS - tr.StartUnixNS
		sortNodes(tr.Roots)
		for _, n := range nodes {
			sortNodes(n.Children)
		}
		out = append(out, tr)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].StartUnixNS != out[b].StartUnixNS {
			return out[a].StartUnixNS < out[b].StartUnixNS
		}
		return out[a].TraceID < out[b].TraceID
	})
	return out
}

func sortNodes(ns []*TraceNode) {
	sort.Slice(ns, func(a, b int) bool {
		if ns[a].StartUnixNS != ns[b].StartUnixNS {
			return ns[a].StartUnixNS < ns[b].StartUnixNS
		}
		return ns[a].ID < ns[b].ID
	})
}

// ChromeEvent is one complete ("ph":"X") event of the Chrome trace-event
// format. Timestamps and durations are microseconds, as the format
// requires; IDs are rendered in args as hex strings because JavaScript
// consumers cannot hold a full uint64 in a JSON number.
type ChromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// ChromeTraceDoc is the JSON-object form of the Chrome trace-event format.
// Perfetto and chrome://tracing load it directly; extra top-level keys
// (like the journal kertmon -trace-out appends) are permitted by the
// format and ignored by viewers.
type ChromeTraceDoc struct {
	TraceEvents     []ChromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// ChromeTrace renders assembled traces as Chrome trace events. Each trace
// becomes one "process" row (pid = 1-based trace index) so nested spans of
// one causal chain stack visually in Perfetto.
func ChromeTrace(traces []Trace) *ChromeTraceDoc {
	doc := &ChromeTraceDoc{DisplayTimeUnit: "ms", TraceEvents: []ChromeEvent{}}
	for i, tr := range traces {
		pid := i + 1
		var walk func(n *TraceNode)
		walk = func(n *TraceNode) {
			args := map[string]string{
				"trace_id": hexID(n.TraceID),
				"span_id":  hexID(n.ID),
			}
			if n.ParentID != 0 {
				args["parent_id"] = hexID(n.ParentID)
			}
			for k, v := range n.Attrs {
				args[k] = v
			}
			doc.TraceEvents = append(doc.TraceEvents, ChromeEvent{
				Name: n.Name,
				Cat:  "kertbn",
				Ph:   "X",
				TS:   float64(n.StartUnixNS) / 1e3,
				Dur:  float64(n.DurationNS) / 1e3,
				PID:  pid,
				TID:  1,
				Args: args,
			})
			for _, c := range n.Children {
				walk(c)
			}
		}
		for _, root := range tr.Roots {
			walk(root)
		}
	}
	return doc
}

const hexDigits = "0123456789abcdef"

// hexID renders a 64-bit ID as a fixed-width hex string.
func hexID(v uint64) string {
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = hexDigits[v&0xF]
		v >>= 4
	}
	return string(b[:])
}
