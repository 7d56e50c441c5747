package main

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

func TestPercentileRefusesThinTails(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want float64 // 0: refused
	}{
		{n: 99, p: 0.9},
		{n: 100, p: 0.9, want: 90},
		{n: 19, p: 0.5},
		{n: 20, p: 0.5, want: 10},
		{n: 0, p: 0.5},
	} {
		got, err := percentile(seq(c.n), c.p)
		if c.want == 0 {
			if err == nil {
				t.Errorf("p%g of %d samples = %g, want refusal", 100*c.p, c.n, got)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("p%g of %d samples = %g, %v; want %g", 100*c.p, c.n, got, err, c.want)
		}
	}
}

func TestSelfTimesNestedAndOverlapping(t *testing.T) {
	spans := []span{
		{Start: 0, End: 100, Parent: -1},   // 0: root
		{Start: 10, End: 40, Parent: 0},    // 1: child
		{Start: 30, End: 60, Parent: 0},    // 2: child overlapping 1
		{Start: 15, End: 20, Parent: 1},    // 3: grandchild under 1
		{Start: 90, End: 130, Parent: 0},   // 4: child running past the root's end
		{Start: 200, End: 210, Parent: -1}, // 5: unrelated root
	}
	want := []int64{
		100 - 50 - 10, // children cover [10,60] and [90,100]
		30 - 5,
		30,
		5,
		40,
		10,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d: self %d, want %d", i, got[i], want[i])
		}
	}
}

func TestRecorderLinksLayersAcrossCalls(t *testing.T) {
	r := newRecorder(16)
	r.setOn(true)
	agent := r.begin(layerAgent, 7)
	send := r.begin(layerSend, -1)
	sched := r.begin(layerSched, 7)
	obs := r.begin(layerObserve, -1)
	r.end(obs)
	r.end(sched)
	deploy := r.begin(layerGatewayDeploy, 7)
	r.end(deploy)
	r.end(send)
	r.end(agent)
	for i, want := range []int32{-1, agent, send, sched, send} {
		if got := r.spans[i].Parent; got != want {
			t.Errorf("span %d (%s): parent %d, want %d", i, layerNames[r.spans[i].Layer], got, want)
		}
		if r.spans[i].ID != 7 {
			t.Errorf("span %d: id %d, want the row id 7", i, r.spans[i].ID)
		}
	}
	r.fold()
	var self, wall int64 = 0, r.totals[layerAgent].dur
	for l := layer(0); l < numLayers; l++ {
		self += r.totals[l].self
	}
	if self != wall {
		t.Errorf("self times sum to %d, want the root's duration %d", self, wall)
	}
	r.setOn(false)
	if i := r.begin(layerAgent, 1); i != -1 {
		t.Errorf("begin with tracing off returned %d", i)
	}
}

func TestOnScheduleReportsLateness(t *testing.T) {
	start := time.Now().Add(5 * time.Millisecond)
	var late []time.Duration
	onSchedule(start, start.Add(100*time.Millisecond), 50, func(i int, due time.Time) {
		late = append(late, time.Since(due))
		if i == 1 {
			time.Sleep(50 * time.Millisecond) // overruns the 20 ms slot
		}
	})
	if len(late) != 5 {
		t.Fatalf("%d calls, want 5 (one per 20 ms in 100 ms)", len(late))
	}
	// Call 2 was due 20 ms after call 1 but could start only ~50 ms after.
	if late[2] < 25*time.Millisecond {
		t.Errorf("call after an overrun reported %v late, want >= 25ms", late[2])
	}
	if late[4] > late[2] {
		t.Errorf("lateness did not recover: %v then %v", late[2], late[4])
	}
}

func TestAskTimedCountsFromScheduledSend(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(20 * time.Millisecond)
		w.Header().Set("X-Kertbn-Cache", "miss")
		w.Write([]byte("{}"))
	}))
	defer srv.Close()
	p := &pipeline{client: srv.Client(), base: srv.URL}
	var l queryLog
	due := time.Now().Add(-30 * time.Millisecond)
	p.askTimed(&l, 0, due)
	q := l.timed[0]
	if !q.ok || q.cache != "miss" || l.answered != 1 {
		t.Fatalf("query not recorded as an answered miss: %+v", q)
	}
	if q.late < 30*time.Millisecond {
		t.Errorf("late %v, want >= 30ms (sent 30 ms after its due time)", q.late)
	}
	if q.latency < q.late+20*time.Millisecond {
		t.Errorf("latency %v does not include the %v of lateness plus the 20ms service", q.latency, q.late)
	}
}

func TestNewPipelineFailsCleanly(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	in := &inputs{cols: make([]string, 7), rows: [][]float64{make([]float64, 7)}}
	if _, err := newPipeline(workloads["ingest-cont"], in, nil, filepath.Join(file, "journals"), 1); err == nil {
		t.Fatal("pipeline built with its journal directory under a regular file")
	}
}

// smoke runs a workload briefly. Percentile sample minimums are not
// checked: a one-second phase is too short for them.
func smoke(t *testing.T, name string, withholdAt int64) *result {
	t.Helper()
	res, err := run(runConfig{
		spec: workloads[name], seed: 3, seconds: time.Second,
		setups: 1, slices: 2, dir: t.TempDir(), withholdAt: withholdAt,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSmokeRunsPassTheGate(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the pipeline")
	}
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			res := smoke(t, name, -1)
			if !res.correct() || res.failed != 0 || res.attempted == 0 {
				t.Errorf("gate failed: %d/%d failed, %v", res.failed, res.attempted, res.problems)
			}
			if _, ok := res.metrics["setup_s"]; !ok {
				t.Error("no setup_s metric")
			}
		})
	}
}

func TestWithheldMeasurementFailsTheGate(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the pipeline")
	}
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			res := smoke(t, name, 5)
			if res.correct() || res.failed == 0 {
				t.Fatalf("gate passed with a row's last measurement withheld")
			}
			all := strings.Join(res.problems, "\n")
			for _, want := range []string{"delivered", "pending"} {
				if !strings.Contains(all, want) {
					t.Errorf("problems do not mention %q:\n%s", want, all)
				}
			}
		})
	}
}
