package monitor

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"kertbn/internal/obs"
)

func init() { obs.RegisterPrefix("monitor", "internal/monitor") }

// Monitoring-pipeline metrics: what flows from points through agents into
// assembled rows — the live Section-2 data path.
var (
	monBatches   = obs.C("monitor.batches")
	monMeasures  = obs.C("monitor.measurements")
	monRows      = obs.C("monitor.rows_assembled")
	monDropped   = obs.C("monitor.rows_dropped")
	monPending   = obs.G("monitor.pending_requests")
	monFlushSize = obs.HCount("monitor.agent_flush_size")
)

// Measurement is one monitoring-point observation: the elapsed time of one
// service (or the end-to-end response time) for one request.
type Measurement struct {
	// RequestID correlates measurements of the same end-to-end request.
	RequestID int64
	// Column is the dataset column the value belongs to: service index,
	// resource index, or the D column (= NumColumns-1).
	Column int
	// Value is the measured elapsed time (seconds).
	Value float64
}

// Report is one batch of measurements shipped by an agent. Trace carries
// the batch's trace context when the agent's tracer sampled it; the zero
// value gob-encodes to nothing, so reports from untraced agents are
// byte-identical to pre-trace reports and old receivers simply ignore the
// field (gob schema evolution).
type Report struct {
	AgentID string
	Batch   []Measurement
	Trace   obs.TraceContext
}

// Point is a monitoring point attached to one measured column. Observations
// flow to the owning agent.
type Point struct {
	column int
	agent  *Agent
}

// Observe records one measurement.
func (p *Point) Observe(requestID int64, value float64) {
	p.agent.add(Measurement{RequestID: requestID, Column: p.column, Value: value})
}

// Sender ships reports toward the management server.
type Sender interface {
	Send(Report) error
}

// Agent is the per-machine monitoring agent: it listens to its points and
// batches measurements before reporting them (the batching the paper uses
// to avoid flooding the network).
type Agent struct {
	ID        string
	BatchSize int
	sender    Sender

	mu    sync.Mutex
	batch []Measurement

	// tracer, when set, samples whole batches: the decision is drawn when
	// a batch opens, so every measurement of a sampled batch rides one
	// trace. batchStart backdates the flush span to the batch opening,
	// making the span's duration the queue wait plus the send.
	tracer     *obs.Tracer
	batchCtx   obs.TraceContext
	batchStart time.Time
}

// SetTracer attaches a batch-sampling tracer (nil disables tracing). Safe
// to call before traffic starts.
func (a *Agent) SetTracer(t *obs.Tracer) {
	a.mu.Lock()
	a.tracer = t
	a.mu.Unlock()
}

// NewAgent creates an agent flushing every batchSize measurements.
func NewAgent(id string, batchSize int, sender Sender) (*Agent, error) {
	if batchSize <= 0 {
		return nil, fmt.Errorf("monitor: batch size must be positive")
	}
	if sender == nil {
		return nil, fmt.Errorf("monitor: agent needs a sender")
	}
	return &Agent{ID: id, BatchSize: batchSize, sender: sender}, nil
}

// NewPoint attaches a monitoring point for one dataset column.
func (a *Agent) NewPoint(column int) *Point {
	return &Point{column: column, agent: a}
}

func (a *Agent) add(m Measurement) {
	a.mu.Lock()
	if len(a.batch) == 0 {
		// A new batch opens at its full size: it is handed to the sender
		// whole, so it cannot be reused, but it need not grow either.
		if cap(a.batch) < a.BatchSize {
			a.batch = make([]Measurement, 0, a.BatchSize)
		}
		// Draw its sampling decision now so the flush span can be
		// backdated to this moment (queue wait included).
		a.batchCtx = a.tracer.Sample()
		if a.batchCtx.Sampled() {
			a.batchStart = time.Now()
		}
	}
	a.batch = append(a.batch, m)
	shouldFlush := len(a.batch) >= a.BatchSize
	var out []Measurement
	var tc obs.TraceContext
	var start time.Time
	if shouldFlush {
		out, tc, start = a.batch, a.batchCtx, a.batchStart
		a.batch, a.batchCtx = nil, obs.TraceContext{}
	}
	a.mu.Unlock()
	if shouldFlush {
		// Errors are reported through Flush; periodic sends best-effort
		// drop on the floor like the real UDP-ish reporting path would.
		_ = a.send(out, tc, start)
	}
}

// Flush ships any buffered measurements immediately.
func (a *Agent) Flush() error {
	a.mu.Lock()
	out, tc, start := a.batch, a.batchCtx, a.batchStart
	a.batch, a.batchCtx = nil, obs.TraceContext{}
	a.mu.Unlock()
	if len(out) == 0 {
		return nil
	}
	return a.send(out, tc, start)
}

// send ships one batch, wrapping sampled batches in a "monitor.flush" root
// span that starts when the batch opened — its duration is the time
// measurements waited in the buffer plus the send itself.
func (a *Agent) send(out []Measurement, tc obs.TraceContext, start time.Time) error {
	monFlushSize.Observe(float64(len(out)))
	var sp *obs.Span
	if tc.Sampled() {
		sp = obs.StartSpanCtxAt("monitor.flush", tc, start)
		sp.SetAttr("agent", a.ID)
		defer sp.End()
		tc = sp.Context()
	}
	return a.sender.Send(Report{AgentID: a.ID, Batch: out, Trace: tc})
}

// RowSink receives completed per-request rows.
type RowSink func(row []float64)

// RowSinkCtx receives completed per-request rows together with the trace
// context of the batch that completed them (the zero context for rows whose
// completing batch was unsampled) — typically a core.Scheduler.PushCtx.
type RowSinkCtx func(row []float64, tc obs.TraceContext)

// Server is the management server: it joins measurements by request id into
// complete rows of width numColumns and hands them to the sink (typically a
// core.Scheduler window push).
type Server struct {
	numColumns int
	sink       RowSinkCtx

	mu      sync.Mutex
	cond    *sync.Cond // signaled after each completed-row sink returns
	partial map[int64]*partialRow
	// Complete counts rows delivered; Dropped counts requests evicted
	// incomplete (missing data — the situation dComp exists for).
	Complete int
	Dropped  int
	// MaxPartial bounds the join buffer; oldest incomplete requests are
	// dropped beyond it.
	MaxPartial int
}

type partialRow struct {
	values []float64
	seen   []bool
	count  int
	order  int64
}

// NewServer creates a management server assembling rows of the given width.
func NewServer(numColumns int, sink RowSink) (*Server, error) {
	if sink == nil {
		return nil, fmt.Errorf("monitor: server needs a sink")
	}
	return NewServerCtx(numColumns, func(row []float64, _ obs.TraceContext) { sink(row) })
}

// NewServerCtx is NewServer with a trace-aware sink: completed rows arrive
// with the trace context of the report that completed them.
func NewServerCtx(numColumns int, sink RowSinkCtx) (*Server, error) {
	if numColumns <= 0 {
		return nil, fmt.Errorf("monitor: numColumns must be positive")
	}
	if sink == nil {
		return nil, fmt.Errorf("monitor: server needs a sink")
	}
	s := &Server{
		numColumns: numColumns,
		sink:       sink,
		partial:    map[int64]*partialRow{},
		MaxPartial: 10000,
	}
	s.cond = sync.NewCond(&s.mu)
	return s, nil
}

// Send implements Sender, accepting a report directly (in-process path).
// Each call is timed into the "monitor.ingest.seconds" histogram — the
// end-to-end ingest latency (row assembly plus whatever the sink does,
// model-health scoring and rebuilds included) that the health package's
// "health.score.seconds" overhead is judged against.
func (s *Server) Send(r Report) error {
	// A sampled report's ingest span joins the batch's trace (child of the
	// flush span in-process, of the wire-hop span over TCP); the rows it
	// completes inherit the ingest span as their parent.
	sp := obs.StartSpanCtx("monitor.ingest", r.Trace)
	defer sp.End()
	tc := sp.Context()
	monBatches.Inc()
	monMeasures.Add(int64(len(r.Batch)))
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, m := range r.Batch {
		if m.Column < 0 || m.Column >= s.numColumns {
			return fmt.Errorf("monitor: column %d out of range [0,%d)", m.Column, s.numColumns)
		}
		p, ok := s.partial[m.RequestID]
		if !ok {
			p = &partialRow{
				values: make([]float64, s.numColumns),
				seen:   make([]bool, s.numColumns),
				order:  m.RequestID,
			}
			s.partial[m.RequestID] = p
		}
		if !p.seen[m.Column] {
			p.seen[m.Column] = true
			p.count++
		}
		p.values[m.Column] = m.Value
		if p.count == s.numColumns {
			row := p.values
			delete(s.partial, m.RequestID)
			s.mu.Unlock()
			s.sink(row, tc)
			s.mu.Lock()
			// Count the row only after its sink returned: that makes
			// CompleteCount()==N a completion barrier — when the counter
			// reads N, all N sink invocations (including any model rebuild
			// the sink triggered) have finished. Incrementing before the
			// sink is the shutdown race that let a process exit while the
			// final rebuild was still in flight.
			s.Complete++
			monRows.Inc()
			s.cond.Broadcast()
		}
	}
	s.evictLocked()
	monPending.Set(float64(len(s.partial)))
	return nil
}

// evictLocked drops the oldest incomplete rows beyond MaxPartial.
func (s *Server) evictLocked() {
	if len(s.partial) <= s.MaxPartial {
		return
	}
	ids := make([]int64, 0, len(s.partial))
	for id := range s.partial {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	for _, id := range ids[:len(s.partial)-s.MaxPartial] {
		delete(s.partial, id)
		s.Dropped++
		monDropped.Inc()
	}
}

// Pending returns the number of incomplete requests buffered.
func (s *Server) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.partial)
}

// CompleteCount returns the number of fully assembled rows delivered so
// far (a lock-guarded read of Complete for concurrent callers).
func (s *Server) CompleteCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.Complete
}

// WaitComplete blocks until at least n rows have been delivered — meaning
// their sink invocations have returned, since Complete is incremented only
// afterwards — or the timeout elapses. It reports whether the target was
// reached. This is the shutdown synchronization point: after
// WaitComplete(n, ...) returns true, no rebuild triggered by any of those
// n rows is still in flight.
func (s *Server) WaitComplete(n int, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	// The timer takes the lock before broadcasting so it cannot fire
	// between a waiter's deadline check and its Wait (lost wakeup).
	timer := time.AfterFunc(timeout, func() {
		s.mu.Lock()
		s.mu.Unlock() //nolint:staticcheck // empty critical section is the handoff
		s.cond.Broadcast()
	})
	defer timer.Stop()
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.Complete < n {
		if !time.Now().Before(deadline) {
			return false
		}
		s.cond.Wait()
	}
	return true
}
