package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"

	"kertbn/internal/simsvc"
	"kertbn/internal/stats"
)

// workloadSpec is one input mix. Every workload runs kertmon's schedule
// (α=100, K=3) through the same pipeline; they differ in the model, the
// agents, and whether ingest is closed- or open-loop.
type workloadSpec struct {
	name      string
	discrete  bool    // kertmon's discrete model, relearned decentrally after each refit
	agentCols [][]int // dataset columns each agent reports, one connection per agent
	// ingestRate (rows/s) and queryRate (queries/s) make the timed phase an
	// open loop; zero ingestRate means a closed loop with no queries.
	ingestRate float64
	queryRate  float64
}

var (
	twoAgents = [][]int{{0, 1, 2}, {3, 4, 5, 6}}
	oneAgent  = [][]int{{0, 1, 2, 3, 4, 5, 6}}
)

var workloads = map[string]workloadSpec{
	"ingest-cont":  {name: "ingest-cont", agentCols: twoAgents},
	"rebuild-disc": {name: "rebuild-disc", discrete: true, agentCols: twoAgents},
	// ~111 delivered rows make a generation (every 10th scored row is
	// health holdout), so 23 rows/s swaps the model every ~4.8 s; 10
	// queries/s over the Zipf catalogue then miss about a quarter of the
	// time. 100 ms between queries outlasts the slowest miss, so the
	// schedule does not fall behind.
	"serve-mixed": {name: "serve-mixed", agentCols: oneAgent, ingestRate: 23, queryRate: 10},
}

const (
	// poolRows input rows are generated before timing; row id i replays
	// pool row i mod poolRows, far more than a window apart.
	poolRows = 1 << 16
	// setupRowLimit bounds the rows a set-up may need for its first
	// full-window generation (about 340).
	setupRowLimit = 2000
	// burstGens is how many generations serve-mixed's closed-loop bursts
	// deploy in all: p90 needs 100 samples, and more ride out brief
	// slowdowns.
	burstGens = 330
	// minLags is how many generation lags a phase collects: p90 needs
	// 100 samples.
	minLags = 110
	// zipfS skews query popularity over the catalogue.
	zipfS = 1.3
)

// inputs is the generated measurement stream.
type inputs struct {
	cols []string
	rows [][]float64
}

func (in *inputs) row(id int64) []float64 { return in.rows[id%int64(len(in.rows))] }

func makeInputs(seed uint64) (*inputs, error) {
	sys := simsvc.EDiaMoNDSystem()
	d, err := sys.GenerateDataset(poolRows, stats.NewRNG(seed).Split(0))
	if err != nil {
		return nil, err
	}
	return &inputs{cols: d.Columns, rows: d.Rows}, nil
}

// runConfig is one invocation.
type runConfig struct {
	spec    workloadSpec
	seed    uint64
	seconds time.Duration
	trace   bool
	setups  int
	// slices splits a closed-loop timed phase, with a probe pass between
	// slices; serve-mixed instead runs that many probe passes and bursts
	// after its timed phase. A last probe pass follows either.
	slices  int
	dir     string // journals live here
	spanOut string // traced runs write their kept spans here ("" = nowhere)
	// withholdAt, when >= 0, makes the generator drop the last measurement
	// of the timed phase's withholdAt-th row (correctness-gate tests).
	withholdAt int64
}

// slice is one closed-loop stretch of the timed phase.
type slice struct {
	rows      int64
	wall, cpu time.Duration
	traced    bool
}

// phase is what a timed phase measured.
type phase struct {
	slices []slice          // closed loop; an open loop is one slice
	lags   []float64        // generation lags, ms
	mem    runtime.MemStats // deltas over the untraced slices (open loop: the phase)

	ingestLate, queryLate []float64 // ms, open loop only
	execs                 int64     // gateway batch executions during the phase
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMiB is the process's peak resident set.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// settle collects the garbage of whatever ran before a timed stretch (set-
// ups, probe passes and their large response bodies), so the stretch pays
// only for the collections its own allocations cause.
func settle() { runtime.GC() }

// setUp builds pipeline i and feeds it until the window holds K·α rows,
// the generation built from it is deployed, and the gateway has answered
// one query.
func setUp(cfg runConfig, in *inputs, rec *recorder, i int) (*pipeline, time.Duration, error) {
	start := time.Now()
	p, err := newPipeline(cfg.spec, in, rec, filepath.Join(cfg.dir, "pipeline"+strconv.Itoa(i)), cfg.seed)
	if err != nil {
		return nil, 0, err
	}
	for {
		if _, _, full := p.sinkState(); full {
			break
		}
		if p.next >= setupRowLimit {
			p.close()
			return nil, 0, fmt.Errorf("set-up: no full-window generation after %d rows", p.next)
		}
		p.emit()
	}
	a, err := p.ask(catalogue[0])
	if err == nil && a.status != 200 {
		err = fmt.Errorf("status %d", a.status)
	}
	if err != nil {
		p.close()
		return nil, 0, fmt.Errorf("set-up query: %w", err)
	}
	return p, time.Since(start), nil
}

// closedLoop emits rows back to back for d, in n slices. Each slice ends
// with a flush, so no row waits in an agent across a pause, and between
// slices runs between (the query probe). A traced run traces every other
// slice, so host drift hits traced and untraced slices alike.
func closedLoop(p *pipeline, d time.Duration, n int, traced bool, between func()) phase {
	var ph phase
	var m0, m1 runtime.MemStats
	for s := 0; s < n; s++ {
		on := traced && s%2 == 1
		settle()
		if traced && !on {
			runtime.ReadMemStats(&m0)
		}
		p.recordLags(true)
		p.rec.setOn(on)
		t0, r0, c0 := time.Now(), p.next, cpuTime()
		for {
			// On a slow host the last slice runs on, up to four times its
			// length, until the phase has the generations a p90 needs.
			el := time.Since(t0)
			if el >= d/time.Duration(n) && (s < n-1 || el >= 4*d/time.Duration(n) ||
				len(ph.lags)+p.lagsRecorded() >= minLags) {
				break
			}
			p.emit()
		}
		p.flush()
		sl := slice{rows: p.next - r0, wall: time.Since(t0), cpu: cpuTime() - c0, traced: on}
		p.rec.setOn(false)
		ph.lags = append(ph.lags, p.recordLags(false)...)
		ph.slices = append(ph.slices, sl)
		switch {
		case on:
			p.rec.fold()
		case traced:
			runtime.ReadMemStats(&m1)
			ph.mem.Mallocs += m1.Mallocs - m0.Mallocs
			ph.mem.TotalAlloc += m1.TotalAlloc - m0.TotalAlloc
			ph.mem.NumGC += m1.NumGC - m0.NumGC
		}
		if s < n-1 {
			between()
		}
	}
	return ph
}

// burst emits rows back to back until gens more generations are deployed,
// recording their lags: the generation-lag sample of a workload whose
// timed phase deploys too few generations for a p90.
func burst(p *pipeline, gens int64, deadline time.Duration) ([]float64, error) {
	settle()
	_, g0, _ := p.sinkState()
	p.recordLags(true)
	stop := time.Now().Add(deadline)
	for {
		if _, g, _ := p.sinkState(); g-g0 >= gens {
			break
		}
		if time.Now().After(stop) {
			p.recordLags(false)
			return nil, fmt.Errorf("burst: fewer than %d generations in %v", gens, deadline)
		}
		p.emit()
	}
	p.flush()
	return p.recordLags(false), nil
}

// onSchedule calls fn(i, due) for i = 0, 1, ... with due = start + i/rate,
// sleeping until each due time, and stops at the first due time at or past
// end. A call that overruns makes the next ones late; fn times from due.
func onSchedule(start, end time.Time, rate float64, fn func(i int, due time.Time)) {
	for i := 0; ; i++ {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if !due.Before(end) {
			return
		}
		time.Sleep(time.Until(due))
		fn(i, due)
	}
}

// openLoop runs the serve-mixed phase for d: one thread emits rows and
// another sends queries, each on its own fixed schedule.
func openLoop(p *pipeline, d time.Duration, traced bool, pop *popularity, log *queryLog, seen map[int]answer) phase {
	var ph phase
	var m0, m1 runtime.MemStats
	settle()
	if traced {
		runtime.ReadMemStats(&m0)
	}
	p.rec.setOn(traced)
	execs0 := p.gw.BatchExecutions()
	start := time.Now().Add(10 * time.Millisecond)
	end := start.Add(d)
	cpu0, first := cpuTime(), p.next
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		onSchedule(start, end, p.spec.ingestRate, func(_ int, due time.Time) {
			ph.ingestLate = append(ph.ingestLate, ms(time.Since(due)))
			p.emit()
		})
	}()
	onSchedule(start, end, p.spec.queryRate, func(j int, due time.Time) {
		e := pop.draw()
		sp := p.rec.begin(layerQuery, int64(j))
		a := p.askTimed(log, e, due)
		p.rec.end(sp)
		if a.status == 200 {
			log.same(seen, e, a)
		}
	})
	for _, q := range log.timed {
		ph.queryLate = append(ph.queryLate, ms(q.late))
	}
	wg.Wait()
	p.flush()
	p.rec.setOn(false)
	if traced {
		p.rec.fold()
		runtime.ReadMemStats(&m1)
		ph.mem.Mallocs = m1.Mallocs - m0.Mallocs
		ph.mem.TotalAlloc = m1.TotalAlloc - m0.TotalAlloc
		ph.mem.NumGC = m1.NumGC - m0.NumGC
	}
	ph.slices = []slice{{rows: p.next - first, wall: time.Since(start), cpu: cpuTime() - cpu0, traced: traced}}
	ph.execs = p.gw.BatchExecutions() - execs0
	return ph
}
