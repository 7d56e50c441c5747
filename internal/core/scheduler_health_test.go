package core

import (
	"fmt"
	"testing"
	"time"

	"kertbn/internal/dataset"
	"kertbn/internal/obs"
)

// TestFailedBuilderDoesNotAdvanceRebuilds: a reconstruction error must
// surface from Push without bumping Rebuilds() or replacing the deployed
// model, and the next interval must retry cleanly.
func TestFailedBuilderDoesNotAdvanceRebuilds(t *testing.T) {
	fail := true
	calls := 0
	builder := func(w *dataset.Dataset) (*Model, error) {
		calls++
		if fail {
			return nil, fmt.Errorf("injected build failure %d", calls)
		}
		return &Model{}, nil
	}
	cfg := ScheduleConfig{TData: time.Second, Alpha: 3, K: 2}
	s, err := NewSchedulerIncremental(cfg, newWindowBuilder(t, cfg, []string{"x", "D"}, builder))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		m, err := s.Push([]float64{1, 2})
		if i < 2 {
			if m != nil || err != nil {
				t.Fatalf("row %d: unexpected rebuild (m=%v err=%v)", i, m, err)
			}
			continue
		}
		if err == nil {
			t.Fatal("cadence row: builder failure not surfaced")
		}
	}
	if got := s.Rebuilds(); got != 0 {
		t.Errorf("Rebuilds() = %d after failed construction, want 0", got)
	}
	if s.Model() != nil {
		t.Error("failed construction deployed a model")
	}

	// The very next interval retries and succeeds.
	fail = false
	for i := 0; i < 3; i++ {
		if _, err := s.Push([]float64{1, 2}); err != nil {
			t.Fatalf("retry row %d: %v", i, err)
		}
	}
	if got := s.Rebuilds(); got != 1 {
		t.Errorf("Rebuilds() = %d after successful retry, want 1", got)
	}
	if s.Model() == nil {
		t.Error("successful retry did not deploy a model")
	}
	if calls != 2 {
		t.Errorf("builder invoked %d times, want 2", calls)
	}
}

// windowBuilder is a test IncrementalBuilder that keeps the newest
// K·α rows and rebuilds through build over a snapshot of them, as a
// full refit would. It truncates and counts structure invalidations, so
// drift rebuilds are allowed over it.
type windowBuilder struct {
	w             *dataset.Window
	build         func(*dataset.Dataset) (*Model, error)
	invalidations int
}

func newWindowBuilder(t testing.TB, cfg ScheduleConfig, columns []string, build func(*dataset.Dataset) (*Model, error)) *windowBuilder {
	t.Helper()
	w, err := dataset.NewWindow(columns, cfg.WindowPoints())
	if err != nil {
		t.Fatal(err)
	}
	return &windowBuilder{w: w, build: build}
}

func (b *windowBuilder) Ingest(row []float64) error {
	_, err := b.w.Push(row)
	return err
}

func (b *windowBuilder) Build() (*Model, error) { return b.build(b.w.Snapshot()) }
func (b *windowBuilder) Len() int               { return b.w.Len() }
func (b *windowBuilder) InvalidateStructure()   { b.invalidations++ }

func (b *windowBuilder) TruncateWindow(keep int) (int, error) {
	before := b.w.Len()
	b.w.DropOldest(before - keep)
	return before - b.w.Len(), nil
}

// stubPolicy is a scripted HealthPolicy for scheduler-contract tests.
type stubPolicy struct {
	observed   int
	holdoutAt  map[int]bool // 1-based observation index -> holdout
	alarmAt    int          // observation index after which one alarm is pending
	alarm      bool
	setModels  int
	lastModel  *Model
	observeErr error
}

func (p *stubPolicy) SetModel(m *Model) error {
	p.setModels++
	p.lastModel = m
	return nil
}

func (p *stubPolicy) ObserveCtx(row []float64, _ obs.TraceContext) (bool, error) {
	if p.observeErr != nil {
		return false, p.observeErr
	}
	p.observed++
	if p.alarmAt > 0 && p.observed == p.alarmAt {
		p.alarm = true
	}
	return p.holdoutAt[p.observed], nil
}

func (p *stubPolicy) ConsumeAlarm() bool {
	fired := p.alarm
	p.alarm = false
	return fired
}

// TestDriftAlarmForcesEarlyRebuild: with RebuildOnDrift enabled, a consumed
// alarm reconstructs immediately instead of waiting out the α-cadence, and
// DriftRebuilds tracks it.
func TestDriftAlarmForcesEarlyRebuild(t *testing.T) {
	builds := 0
	builder := func(w *dataset.Dataset) (*Model, error) {
		builds++
		return &Model{}, nil
	}
	cfg := ScheduleConfig{TData: time.Second, Alpha: 10, K: 2}
	s, err := NewSchedulerIncremental(cfg, newWindowBuilder(t, cfg, []string{"x", "D"}, builder))
	if err != nil {
		t.Fatal(err)
	}
	policy := &stubPolicy{alarmAt: 3} // alarm on the 3rd observed row
	if err := s.SetHealthPolicy(policy, true); err != nil {
		t.Fatal(err)
	}
	// First interval: 10 rows, cadence rebuild, policy told about model.
	for i := 0; i < 10; i++ {
		if _, err := s.Push([]float64{1, 2}); err != nil {
			t.Fatal(err)
		}
	}
	if policy.setModels != 1 {
		t.Fatalf("policy saw %d models after first cadence, want 1", policy.setModels)
	}
	// Rows 11..13: the 3rd observed row raises the alarm, so Push 13
	// rebuilds early — 7 rows ahead of the cadence.
	var rebuilt *Model
	for i := 0; i < 3; i++ {
		m, err := s.Push([]float64{1, 2})
		if err != nil {
			t.Fatal(err)
		}
		if m != nil {
			rebuilt = m
		}
	}
	if rebuilt == nil {
		t.Fatal("drift alarm did not force a rebuild")
	}
	if got := s.DriftRebuilds(); got != 1 {
		t.Errorf("DriftRebuilds() = %d, want 1", got)
	}
	if got := s.Rebuilds(); got != 2 {
		t.Errorf("Rebuilds() = %d, want 2 (one cadence + one drift)", got)
	}
	if policy.setModels != 2 {
		t.Errorf("policy saw %d models, want 2", policy.setModels)
	}
}

// TestObserveOnlyPolicyNeverForcesRebuilds: with rebuildOnDrift disabled
// the scheduler never consumes alarms, keeping the fixed cadence intact.
func TestObserveOnlyPolicyNeverForcesRebuilds(t *testing.T) {
	builder := func(w *dataset.Dataset) (*Model, error) { return &Model{}, nil }
	cfg := ScheduleConfig{TData: time.Second, Alpha: 5, K: 2}
	s, err := NewSchedulerIncremental(cfg, newWindowBuilder(t, cfg, []string{"x", "D"}, builder))
	if err != nil {
		t.Fatal(err)
	}
	policy := &stubPolicy{alarmAt: 1}
	if err := s.SetHealthPolicy(policy, false); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := s.Push([]float64{1, 2}); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.DriftRebuilds(); got != 0 {
		t.Errorf("observe-only policy forced %d rebuilds", got)
	}
	if got := s.Rebuilds(); got != 4 {
		t.Errorf("Rebuilds() = %d, want 4 cadence rebuilds", got)
	}
	if policy.alarm == false && policy.observed == 0 {
		t.Error("policy never observed rows")
	}
}

// TestHoldoutRowsSkipTrainingWindow: rows flagged holdout by the policy are
// scored but not ingested, and do not advance the cadence.
func TestHoldoutRowsSkipTrainingWindow(t *testing.T) {
	builder := func(w *dataset.Dataset) (*Model, error) { return &Model{}, nil }
	cfg := ScheduleConfig{TData: time.Second, Alpha: 4, K: 2}
	s, err := NewSchedulerIncremental(cfg, newWindowBuilder(t, cfg, []string{"x", "D"}, builder))
	if err != nil {
		t.Fatal(err)
	}
	policy := &stubPolicy{holdoutAt: map[int]bool{2: true, 4: true}}
	if err := s.SetHealthPolicy(policy, false); err != nil {
		t.Fatal(err)
	}
	// First cadence: 4 training rows (no model yet, nothing observed).
	for i := 0; i < 4; i++ {
		if _, err := s.Push([]float64{1, 2}); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.WindowLen(); got != 4 {
		t.Fatalf("window holds %d rows, want 4", got)
	}
	// Six more rows; observations 2 and 4 are held out, so only 4 train —
	// exactly one more cadence rebuild.
	for i := 0; i < 6; i++ {
		if _, err := s.Push([]float64{1, 2}); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.WindowLen(); got != 8 {
		t.Errorf("window holds %d rows, want 8 (2 of 6 held out)", got)
	}
	if got := s.Rebuilds(); got != 2 {
		t.Errorf("Rebuilds() = %d, want 2", got)
	}
	if policy.observed != 6 {
		t.Errorf("policy observed %d rows, want 6", policy.observed)
	}
}

// TestDriftRebuildsNeedTruncatingBuilder: SetHealthPolicy refuses
// rebuildOnDrift unless the builder can both truncate its window and
// invalidate its structure, so a drift alarm can never rebuild over the
// whole stale window. Observe-only policies stay allowed.
func TestDriftRebuildsNeedTruncatingBuilder(t *testing.T) {
	cfg := ScheduleConfig{TData: time.Second, Alpha: 5, K: 3}
	wb := newWindowBuilder(t, cfg, []string{"x", "D"}, func(*dataset.Dataset) (*Model, error) { return &Model{}, nil })
	type plain struct{ IncrementalBuilder }
	type truncateOnly struct {
		IncrementalBuilder
		WindowTruncator
	}
	for name, b := range map[string]IncrementalBuilder{
		"neither":       plain{wb},
		"truncate only": truncateOnly{wb, wb},
	} {
		s, err := NewSchedulerIncremental(cfg, b)
		if err != nil {
			t.Fatal(err)
		}
		policy := &stubPolicy{alarmAt: 1}
		if err := s.SetHealthPolicy(policy, true); err == nil {
			t.Errorf("%s: drift rebuilds accepted over a builder that cannot truncate and invalidate", name)
		}
		if err := s.SetHealthPolicy(policy, false); err != nil {
			t.Errorf("%s: observe-only policy refused: %v", name, err)
		}
	}
	s, err := NewSchedulerIncremental(cfg, wb)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetHealthPolicy(&stubPolicy{}, true); err != nil {
		t.Fatalf("drift rebuilds refused over a truncating builder: %v", err)
	}
}
