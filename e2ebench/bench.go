package main

import (
	"fmt"
	"time"

	"kertbn/internal/core"
	"kertbn/internal/stats"
)

// metric is one reported value, as the result line carries it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome.
type result struct {
	attempted, failed int64
	metrics           map[string]metric
	problems          []string // failed correctness checks
	refused           []string // percentiles with too few samples beyond them
}

func (r *result) correct() bool { return len(r.problems) == 0 }

// run executes one workload: repeated set-ups, the timed phase with the
// query probe, for serve-mixed a generation burst, then the correctness
// gate.
func run(cfg runConfig) (*result, error) {
	in, err := makeInputs(cfg.seed)
	if err != nil {
		return nil, err
	}
	var rec *recorder
	if cfg.trace {
		rec = newRecorder(1 << 19)
	}
	var setupS []float64
	var p *pipeline
	for i := 0; i < cfg.setups; i++ {
		q, d, err := setUp(cfg, in, rec, i)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, d.Seconds())
		if i < cfg.setups-1 {
			q.close()
		} else {
			p = q
		}
	}
	defer p.close()
	if cfg.withholdAt >= 0 {
		p.withhold = p.next + cfg.withholdAt
	}

	var (
		log    queryLog
		ph     phase
		served []timedQuery // serve-mixed: the queries of the timed phase
		seen   = map[int]answer{}
		open   = cfg.spec.ingestRate != 0
	)
	execs0 := p.gw.BatchExecutions()
	if open {
		pop := newPopularity(len(catalogue), zipfS, stats.NewRNG(cfg.seed).Split(1))
		ph = openLoop(p, cfg.seconds, cfg.trace, pop, &log, seen)
		served = log.timed
		execs0 = p.gw.BatchExecutions()
		// Too few generations fall in the timed phase for a p90, so the
		// lags come from closed-loop bursts with no queries running, one
		// after each probe pass, spread out like the closed-loop slices.
		for i := 0; i < cfg.slices; i++ {
			p.probe(&log, seen, false)
			lags, err := burst(p, (burstGens+int64(cfg.slices)-1)/int64(cfg.slices), 10*time.Second)
			if err != nil {
				return nil, err
			}
			ph.lags = append(ph.lags, lags...)
		}
	} else {
		ph = closedLoop(p, cfg.seconds, cfg.slices, cfg.trace, func() { p.probe(&log, seen, false) })
	}
	p.probe(&log, seen, true)
	probed := log.timed[len(served):]
	probeExecs := p.gw.BatchExecutions() - execs0

	res := &result{metrics: map[string]metric{}}
	res.problems = append(res.problems, verify(p)...)
	res.problems = append(res.problems, log.problems...)
	d, _, _ := p.sinkState()
	res.attempted = p.next + log.sent
	res.failed = (p.next - d) + (log.sent - log.answered) + p.rebuildErrs + p.sendErrs.Load()

	put := func(name string, v float64, unit string) { res.metrics[name] = metric{v, unit} }
	pct := func(name string, xs []float64, q float64, unit string) {
		v, err := percentile(xs, q)
		if err != nil {
			res.refused = append(res.refused, fmt.Sprintf("%s: %v", name, err))
		}
		put(name, v, unit)
	}
	if !cfg.trace {
		// Slice medians: one slow stretch of a drifting host moves them less
		// than it moves a whole-phase total.
		var rate, cpuRow, util []float64
		for _, s := range ph.slices {
			rate = append(rate, float64(s.rows)/s.wall.Seconds())
			cpuRow = append(cpuRow, float64(s.cpu)/1e3/float64(s.rows))
			util = append(util, s.cpu.Seconds()/s.wall.Seconds())
		}
		put("setup_s", median(setupS), "s")
		put("rows_per_s", median(rate), "rows/s")
		pct("gen_lag_p50_ms", ph.lags, 0.5, "ms")
		pct("gen_lag_p90_ms", ph.lags, 0.9, "ms")
		put("cpu_us_per_row", median(cpuRow), "us/row")
		put("cpu_util", median(util), "cores")
		// Closed-loop workloads send no queries while they ingest; their
		// query latency is the probe's executions between slices.
		lat := latencies(served, "")
		if !open {
			lat = latencies(probed, "miss")
		}
		pct("query_p50_ms", lat, 0.5, "ms")
		pct("query_p90_ms", lat, 0.9, "ms")
		put("max_rss_mb", maxRSSMiB(), "MiB")
		return res, nil
	}

	// Per-layer metrics from the traced slices.
	t := rec.totals
	var rows, plainRows int64
	var wall, plainWall time.Duration
	for _, s := range ph.slices {
		if s.traced {
			rows, wall = rows+s.rows, wall+s.wall
		} else {
			plainRows, plainWall = plainRows+s.rows, plainWall+s.wall
		}
	}
	perRow := func(ns int64) float64 { return float64(ns) / 1e3 / float64(rows) }
	gens := t[layerRefit].count
	perGen := func(ns int64, scale float64) float64 {
		if gens == 0 {
			return 0
		}
		return float64(ns) / scale / float64(gens)
	}
	put("monitor.agent.self_us_per_row", perRow(t[layerAgent].self), "us/row")
	put("monitor.send.self_us_per_row", perRow(t[layerSend].self), "us/row")
	put("monitor.send.calls_per_krow", float64(t[layerSend].count)*1e3/float64(rows), "calls/krow")
	put("core.sched.self_us_per_row", perRow(t[layerSched].self), "us/row")
	put("health.observe.us_per_row", perRow(t[layerObserve].dur), "us/row")
	put("health.deploy.ms_per_gen", perGen(t[layerHealthDeploy].dur, 1e6), "ms/gen")
	put("core.ingest.us_per_row", perRow(t[layerIngest].dur), "us/row")
	put("core.refit.ms_per_gen", perGen(t[layerRefit].dur, 1e6), "ms/gen")
	put("gens_per_krow", float64(gens)*1e3/float64(rows), "gens/krow")
	put("decentral.relearn.ms_per_gen", perGen(t[layerRelearn].dur, 1e6), "ms/gen")
	put("gateway.deploy.us_per_gen", perGen(t[layerGatewayDeploy].dur, 1e3), "us/gen")

	// The layer budget and tracing overhead need a closed loop: there the
	// pipeline is never idle, so its self times must add up to wall time.
	budget, overhead := 0.0, 0.0
	memRows := rows
	if !open {
		var self int64
		for l := layer(0); l < layerQuery; l++ {
			self += t[l].self
		}
		budget = 1 - float64(self)/float64(wall)
		overhead = 1 - (float64(rows)/wall.Seconds())/(float64(plainRows)/plainWall.Seconds())
		memRows = plainRows
	}
	put("budget.unaccounted_frac", budget, "frac")
	put("bench.trace_overhead_frac", overhead, "frac")
	put("allocs_per_row", float64(ph.mem.Mallocs)/float64(memRows), "allocs/row")
	put("alloc_bytes_per_row", float64(ph.mem.TotalAlloc)/float64(memRows), "B/row")
	put("gc_per_krow", float64(ph.mem.NumGC)*1e3/float64(memRows), "gc/krow")

	// Gateway: the timed phase's queries on serve-mixed, the probe's
	// elsewhere. Per-route misses always come from the probe, which
	// executes every route at least 36 times.
	qs, execs := served, ph.execs
	if !open {
		qs, execs = probed, probeExecs
	}
	hits := latencies(qs, "hit")
	put("gateway.hit_share", float64(len(hits))/float64(max(len(latencies(qs, "")), 1)), "frac")
	pct("gateway.hit_p50_ms", hits, 0.5, "ms")
	pct("gateway.miss_p50_ms", latencies(qs, "miss"), 0.5, "ms")
	for r, name := range routes {
		var xs []float64
		for _, q := range probed {
			if q.ok && q.cache == "miss" && catalogue[q.entry].route == r {
				xs = append(xs, ms(q.latency))
			}
		}
		pct("gateway.miss_p50_ms."+name, xs, 0.5, "ms")
	}
	put("gateway.execs_per_query", float64(execs)/float64(max(len(qs), 1)), "execs/query")
	late := func(name string, xs []float64) {
		if !open {
			put(name, 0, "ms")
			return
		}
		pct(name, xs, 0.9, "ms")
	}
	late("bench.ingest_late_p90_ms", ph.ingestLate)
	late("bench.query_late_p90_ms", ph.queryLate)
	if cfg.spanOut != "" {
		if err := rec.writeSpans(cfg.spanOut); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// latencies returns the latencies (ms) of the answered queries whose
// cache outcome is cache ("" for all).
func latencies(qs []timedQuery, cache string) []float64 {
	var out []float64
	for _, q := range qs {
		if q.ok && (cache == "" || q.cache == cache) {
			out = append(out, ms(q.latency))
		}
	}
	return out
}

// verify is the correctness gate, run once ingest and queries have
// stopped. It returns one line per failed check.
func verify(p *pipeline) []string {
	var probs []string
	fail := func(format string, args ...any) { probs = append(probs, fmt.Sprintf(format, args...)) }
	// Stop the transport first: TCPServer.Close waits for the connection
	// goroutines, so the server's counters are final.
	for _, s := range p.senders {
		s.Close()
	}
	if err := p.srv.Close(); err != nil {
		fail("management server close: %v", err)
	}
	if got := p.inner.CompleteCount(); int64(got) != p.next {
		fail("%d rows emitted, %d delivered", p.next, got)
	}
	if p.inner.Dropped != 0 {
		fail("%d rows dropped incomplete", p.inner.Dropped)
	}
	if n := p.inner.Pending(); n != 0 {
		fail("%d rows still pending assembly", n)
	}
	for i, j := range p.journals {
		if n := j.Pending(); n != 0 {
			fail("agent %d journal holds %d unacked reports", i, n)
		}
	}
	if n := p.sendErrs.Load(); n != 0 {
		fail("%d agent sends failed", n)
	}
	p.sinkMu.Lock()
	if p.mismatched != 0 {
		fail("%d delivered rows differ from the row emitted in their position", p.mismatched)
	}
	if p.rebuildErrs != 0 {
		fail("%d rebuild errors, last: %v", p.rebuildErrs, p.lastErr)
	}
	p.sinkMu.Unlock()

	diff, err := p.equivalence()
	limit := 1e-9
	if p.spec.discrete {
		limit = 0
	}
	switch {
	case err != nil:
		fail("model equivalence: %v", err)
	case diff > limit:
		fail("incremental model differs from the batch oracle by %g (limit %g)", diff, limit)
	}
	return probs
}

// equivalence rebuilds the final window both ways — IncrementalKERT.Build
// from its sufficient statistics and core.BuildKERT over Snapshot() with
// the frozen codec, each followed by the relearn on the discrete model —
// and returns the largest parameter difference.
func (p *pipeline) equivalence() (float64, error) {
	inc, err := p.refitter.Build()
	if err != nil {
		return 0, fmt.Errorf("incremental build: %w", err)
	}
	window := p.ik.Snapshot()
	batch, err := core.BuildKERT(p.ik.Config(), window)
	if err != nil {
		return 0, fmt.Errorf("batch build: %w", err)
	}
	if p.spec.discrete {
		if err := relearn(batch, window); err != nil {
			return 0, err
		}
	}
	return core.MaxParamDiff(inc, batch)
}
