package core

import (
	"fmt"
	"sync"
	"time"

	"kertbn/internal/obs"
)

// Scheduler metrics: pushed points and rebuild count as counters, window
// fill as a gauge in [0,1], rebuild durations as the "sched.rebuild"
// span's histogram — the live view of Equation 1/2's reconstruction
// scheme.
var (
	schedPushed        = obs.C("sched.points_pushed")
	schedRebuilds      = obs.C("sched.rebuilds")
	schedFailures      = obs.C("sched.rebuild_failures")
	schedWindowFill    = obs.G("sched.window_fill")
	schedWindowLen     = obs.G("sched.window_len")
	schedRebuildsG     = obs.G("sched.rebuilds_done")
	schedLastBuildG    = obs.G("sched.last_build_seconds")
	schedHoldout       = obs.C("sched.holdout_rows")
	schedDriftRebuilds = obs.C("sched.drift_rebuilds")
	// schedFreshness is the ingest-freshness lag: how long the oldest row
	// accepted since the previous rebuild waited before a model absorbed
	// it. It is the SLO input for the fleet's ingest-freshness objective —
	// a growing lag means deployed models are scoring traffic the window
	// hasn't caught up with.
	schedFreshness = obs.H("sched.freshness.seconds")
)

// ScheduleConfig encodes Section 2's periodic model-(re)construction
// scheme:
//
//	T_CON = α_model · T_DATA        (Equation 2)
//	W     = K · T_CON               (Equation 1)
//
// so each reconstruction sees K·α_model data points: the current interval's
// data plus the K−1 previous intervals'.
type ScheduleConfig struct {
	// TData is the data-collection interval (how often one point arrives).
	TData time.Duration
	// Alpha is α_model, the model-construction coefficient: points per
	// construction interval.
	Alpha int
	// K is the Environmental Correlation Metric: how many construction
	// intervals of data remain correlated with the present. Environments
	// with frequent autonomic actions use small K.
	K int
}

// Validate checks the schedule parameters.
func (c ScheduleConfig) Validate() error {
	if c.TData <= 0 {
		return fmt.Errorf("core: T_DATA must be positive")
	}
	if c.Alpha <= 0 {
		return fmt.Errorf("core: α_model must be positive")
	}
	if c.K <= 0 {
		return fmt.Errorf("core: K must be positive")
	}
	return nil
}

// TCon returns the construction interval T_CON = α·T_DATA.
func (c ScheduleConfig) TCon() time.Duration { return time.Duration(c.Alpha) * c.TData }

// WindowDuration returns W = K·T_CON.
func (c ScheduleConfig) WindowDuration() time.Duration { return time.Duration(c.K) * c.TCon() }

// WindowPoints returns the number of data points available for inferring
// the model, K·α_model.
func (c ScheduleConfig) WindowPoints() int { return c.K * c.Alpha }

// IncrementalBuilder is what the scheduler rebuilds through: rows are
// ingested one at a time into sufficient-statistic accumulators, and Build
// refits parameters from those accumulators without re-scanning the window
// (see IncrementalKERT).
type IncrementalBuilder interface {
	// Ingest folds one data point into the accumulators.
	Ingest(row []float64) error
	// Build refits the model from accumulated statistics.
	Build() (*Model, error)
	// Len returns the number of buffered points.
	Len() int
}

// HealthPolicy is the hook through which a model-health monitor (see
// internal/health) rides the scheduler's data path without core depending
// on it. The scheduler calls SetModel after every successful
// reconstruction, Observe for every pushed row once a model exists
// (withholding rows Observe marks as holdout from the training window),
// and — only when RebuildOnDrift is enabled — ConsumeAlarm to learn
// whether a drift alarm should force an early reconstruction.
type HealthPolicy interface {
	// SetModel is told about each newly deployed model.
	SetModel(m *Model) error
	// ObserveCtx scores one raw row; holdout=true means the row must be
	// withheld from model training (it belongs to the online holdout split
	// the policy evaluates ε on). tc is the trace context of the batch the
	// row arrived in — the zero context for unsampled batches, which the
	// policy must handle without allocating.
	ObserveCtx(row []float64, tc obs.TraceContext) (holdout bool, err error)
	// ConsumeAlarm returns true at most once per drift alarm.
	ConsumeAlarm() bool
}

// TraceAwareBuilder is optionally implemented by incremental builders that
// propagate trace context into the work a rebuild fans out (e.g. a
// decentralized relearn shipping CPDs over TCP). The scheduler hands it the
// rebuild span's context immediately before Build.
type TraceAwareBuilder interface {
	SetBuildTrace(tc obs.TraceContext)
}

// StructureInvalidator is implemented by incremental builders whose cached
// structure (learned DAG, frozen discretization codec) can be forced to
// refit on the next Build — what a drift-triggered reconstruction wants,
// since drift means the cached structure itself is suspect.
type StructureInvalidator interface {
	InvalidateStructure()
}

// WindowTruncator is implemented by incremental builders that can drop
// their oldest buffered rows while keeping accumulators consistent (see
// dataset.Stream.Truncate). The drift-triggered reconstruction path uses
// it: Equation 1's window W = K·T_CON rests on the assumption that the
// last K construction intervals remain correlated with the present, and a
// drift alarm is direct evidence that assumption just broke — so the
// window collapses to the most recent interval (K = 1) and refills with
// post-change traffic.
type WindowTruncator interface {
	// TruncateWindow keeps only the newest keep rows, reporting how many
	// were dropped.
	TruncateWindow(keep int) (dropped int, err error)
}

// Scheduler drives periodic reconstruction in "data time": every Alpha
// pushed points one construction fires over the sliding window. Counting
// points instead of wall-clock keeps experiments deterministic; the monitor
// package layers real-time batching on top. Scheduler is safe for
// concurrent use — monitoring servers deliver rows from multiple
// connections.
type Scheduler struct {
	cfg ScheduleConfig
	inc IncrementalBuilder

	mu      sync.Mutex
	model   *Model
	pushed  int
	rebuilt int
	// lastBuild records the wall-clock duration of the most recent
	// reconstruction (informational).
	lastBuild time.Duration
	// oldestPending is the arrival time of the first row accepted since the
	// last rebuild; rebuilds observe its age into sched.freshness.seconds.
	oldestPending time.Time

	// health, when set, observes every row once a model exists; with
	// rebuildOnDrift enabled its drift alarms force early reconstructions.
	health         HealthPolicy
	rebuildOnDrift bool
	driftRebuilds  int
}

// NewSchedulerIncremental creates a scheduler that rebuilds through an
// incremental builder: each Push streams into sufficient-statistic
// accumulators and rebuilds refit from them, so reconstruction cost no
// longer grows with the window length. The builder's window capacity
// should match cfg.WindowPoints() (see NewIncrementalKERT).
func NewSchedulerIncremental(cfg ScheduleConfig, ib IncrementalBuilder) (*Scheduler, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if ib == nil {
		return nil, fmt.Errorf("core: scheduler needs an incremental builder")
	}
	return &Scheduler{cfg: cfg, inc: ib}, nil
}

// Push feeds one data point. When a construction interval completes
// (every α points) the builder refits the model from its window; the
// rebuilt model (or nil if no rebuild fired) is returned. The builder runs
// while the scheduler lock is held, so concurrent pushes serialize behind
// a reconstruction — exactly the back-pressure a real management server
// would apply.
func (s *Scheduler) Push(row []float64) (*Model, error) {
	return s.PushCtx(row, obs.TraceContext{})
}

// PushCtx is Push carrying the trace context of the batch the row arrived
// in. With a sampled context the whole push — health scoring, ingestion,
// any rebuild it triggers — nests under one "sched.push" span inside the
// caller's trace, and the journal events it emits carry the trace IDs. The
// zero context makes PushCtx behave exactly like Push, without allocating
// for tracing.
func (s *Scheduler) PushCtx(row []float64, tc obs.TraceContext) (*Model, error) {
	s.mu.Lock()
	defer s.mu.Unlock()

	var push *obs.Span
	if tc.Sampled() {
		push = obs.StartSpanCtx("sched.push", tc)
		defer push.End()
		tc = push.Context()
	}

	// Model-health scoring rides in front of ingestion: once a model is
	// deployed every row is scored, and rows the policy claims for its
	// online holdout split never enter the training window.
	drift := false
	if s.health != nil && s.model != nil {
		holdout, err := s.health.ObserveCtx(row, tc)
		if err != nil {
			return nil, fmt.Errorf("core: health policy: %w", err)
		}
		if holdout {
			schedHoldout.Inc()
			s.exportGaugesLocked()
			return nil, nil
		}
		if s.rebuildOnDrift {
			drift = s.health.ConsumeAlarm()
		}
	}

	if err := s.inc.Ingest(row); err != nil {
		return nil, err
	}
	s.pushed++
	schedPushed.Inc()
	if s.oldestPending.IsZero() {
		s.oldestPending = time.Now()
	}
	s.exportGaugesLocked()
	if s.pushed%s.cfg.Alpha != 0 && !drift {
		return nil, nil
	}
	if drift {
		// A drift alarm means the deployed model no longer explains the
		// traffic: rebuild now rather than waiting out T_CON, force cached
		// structure (learned DAG / frozen codec) to refit, and drop window
		// rows older than one construction interval — the correlation
		// premise behind W = K·T_CON is void once a change is detected, so
		// K collapses to 1 and the window refills with fresh traffic.
		s.driftRebuilds++
		schedDriftRebuilds.Inc()
		// SetHealthPolicy admitted rebuildOnDrift only for builders
		// implementing both interfaces.
		s.inc.(StructureInvalidator).InvalidateStructure()
		dropped, err := s.inc.(WindowTruncator).TruncateWindow(s.cfg.Alpha)
		if err != nil {
			return nil, fmt.Errorf("core: drift window truncation: %w", err)
		}
		obs.J().Record(obs.Event{
			Type: obs.EventTruncation, TraceID: tc.TraceID, SpanID: tc.SpanID,
			Generation: s.rebuilt, Rows: dropped, Detail: "drift collapsed K to 1",
		})
	}
	sp := obs.StartSpanCtx("sched.rebuild", tc)
	if drift {
		sp.SetAttr("cause", "drift")
	}
	if tb, ok := s.inc.(TraceAwareBuilder); ok {
		tb.SetBuildTrace(sp.Context())
	}
	start := time.Now()
	m, err := s.inc.Build()
	buildCtx := sp.Context()
	sp.End()
	if err != nil {
		schedFailures.Inc()
		return nil, fmt.Errorf("core: reconstruction %d failed: %w", s.rebuilt+1, err)
	}
	s.lastBuild = time.Since(start)
	if !s.oldestPending.IsZero() {
		schedFreshness.Observe(time.Since(s.oldestPending).Seconds())
		s.oldestPending = time.Time{}
	}
	s.model = m
	s.rebuilt++
	cause := "cadence"
	if drift {
		cause = "drift"
	}
	m.SetProvenance(s.rebuilt, buildCtx)
	obs.J().Record(obs.Event{
		Type: obs.EventRebuild, TraceID: tc.TraceID, SpanID: buildCtx.SpanID,
		Generation: s.rebuilt, Rows: s.inc.Len(), Detail: cause,
	})
	obs.J().Record(obs.Event{
		Type: obs.EventGenerationSwap, TraceID: tc.TraceID, SpanID: buildCtx.SpanID,
		Generation: s.rebuilt,
	})
	schedRebuilds.Inc()
	s.exportGaugesLocked()
	if s.health != nil {
		if herr := s.health.SetModel(m); herr != nil {
			return m, fmt.Errorf("core: health policy rejected model %d: %w", s.rebuilt, herr)
		}
	}
	return m, nil
}

// exportGaugesLocked publishes the scheduler state gauges — window
// occupancy, rebuild count and last build duration — so /metrics always
// reflects the live reconstruction scheme.
func (s *Scheduler) exportGaugesLocked() {
	wl := s.inc.Len()
	schedWindowLen.Set(float64(wl))
	schedWindowFill.Set(float64(wl) / float64(s.cfg.WindowPoints()))
	schedRebuildsG.Set(float64(s.rebuilt))
	schedLastBuildG.Set(s.lastBuild.Seconds())
}

// SetHealthPolicy attaches a model-health policy (observe-only when
// rebuildOnDrift is false). With rebuildOnDrift enabled, a consumed drift
// alarm forces an immediate reconstruction ahead of the fixed α-cadence,
// with the builder's structure invalidated and its window truncated to the
// most recent construction interval; the builder must therefore implement
// StructureInvalidator and WindowTruncator, or the policy is refused. If a
// model is already deployed the policy is told about it immediately.
func (s *Scheduler) SetHealthPolicy(p HealthPolicy, rebuildOnDrift bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if rebuildOnDrift && p != nil {
		_, inv := s.inc.(StructureInvalidator)
		_, tr := s.inc.(WindowTruncator)
		if !inv || !tr {
			return fmt.Errorf("core: drift rebuilds need a builder implementing StructureInvalidator and WindowTruncator, %T does not", s.inc)
		}
	}
	s.health = p
	s.rebuildOnDrift = rebuildOnDrift && p != nil
	if p != nil && s.model != nil {
		if err := p.SetModel(s.model); err != nil {
			return fmt.Errorf("core: health policy rejected current model: %w", err)
		}
	}
	return nil
}

// DriftRebuilds returns how many reconstructions were forced by drift
// alarms (always ≤ Rebuilds()).
func (s *Scheduler) DriftRebuilds() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.driftRebuilds
}

// Model returns the most recently constructed model (nil before the first
// construction interval completes).
func (s *Scheduler) Model() *Model {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.model
}

// Rebuilds returns how many reconstructions have fired.
func (s *Scheduler) Rebuilds() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rebuilt
}

// WindowLen returns the current number of buffered points.
func (s *Scheduler) WindowLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inc.Len()
}

// LastBuildTime reports the wall-clock duration of the most recent
// reconstruction.
func (s *Scheduler) LastBuildTime() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastBuild
}

// Config returns the schedule parameters.
func (s *Scheduler) Config() ScheduleConfig { return s.cfg }
