package main

import (
	"testing"
	"time"

	"kertbn/internal/core"
	"kertbn/internal/dataset"
	"kertbn/internal/obs"
	"kertbn/internal/simsvc"
	"kertbn/internal/stats"
	"kertbn/internal/workflow"
)

// alarmPolicy is a health policy that scores nothing and raises one drift
// alarm once armed.
type alarmPolicy struct{ armed bool }

func (p *alarmPolicy) SetModel(*core.Model) error { return nil }
func (p *alarmPolicy) ObserveCtx([]float64, obs.TraceContext) (bool, error) {
	return false, nil
}
func (p *alarmPolicy) ConsumeAlarm() bool {
	fire := p.armed
	p.armed = false
	return fire
}

// TestDriftRebuildTruncatesWindow drives kertmon's scheduler (its discrete
// model, decentral relearn hook included) through three generations and
// then a drift alarm: the drift rebuild must collapse the window to the
// newest α rows instead of leaving all K·α in place.
func TestDriftRebuildTruncatesWindow(t *testing.T) {
	const alpha, k = 50, 3
	relearns := 0
	relearn := func(*core.Model, *dataset.Dataset, obs.TraceContext) error {
		relearns++
		return nil
	}
	scfg := core.ScheduleConfig{TData: time.Second, Alpha: alpha, K: k}
	sched, err := newScheduler(modelConfig(workflow.EDiaMoND()), scfg, relearn)
	if err != nil {
		t.Fatal(err)
	}
	policy := &alarmPolicy{}
	if err := sched.SetHealthPolicy(policy, true); err != nil {
		t.Fatalf("kertmon's builder refused for drift rebuilds: %v", err)
	}
	data, err := simsvc.EDiaMoNDSystem().GenerateDataset(k*alpha+1, stats.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k*alpha; i++ {
		if _, err := sched.Push(data.Rows[i]); err != nil {
			t.Fatal(err)
		}
	}
	if sched.Rebuilds() != k || sched.WindowLen() != k*alpha {
		t.Fatalf("after %d rows: %d rebuilds, window %d; want %d, %d",
			k*alpha, sched.Rebuilds(), sched.WindowLen(), k, k*alpha)
	}
	policy.armed = true
	m, err := sched.Push(data.Rows[k*alpha])
	if err != nil {
		t.Fatal(err)
	}
	if m == nil || sched.DriftRebuilds() != 1 {
		t.Fatalf("alarm did not force a rebuild: model %v, drift rebuilds %d", m, sched.DriftRebuilds())
	}
	if got := sched.WindowLen(); got != alpha {
		t.Errorf("window after drift rebuild = %d rows, want α = %d", got, alpha)
	}
	if relearns != k+1 {
		t.Errorf("relearn ran %d times, want %d (once per generation)", relearns, k+1)
	}
}
