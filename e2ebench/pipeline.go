package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"kertbn/internal/core"
	"kertbn/internal/dataset"
	"kertbn/internal/decentral"
	"kertbn/internal/gateway"
	"kertbn/internal/health"
	"kertbn/internal/journal"
	"kertbn/internal/learn"
	"kertbn/internal/monitor"
	"kertbn/internal/obs"
	"kertbn/internal/workflow"
)

// kertmon's reconstruction schedule: a generation every α training rows
// over a window of K·α rows.
const (
	alpha     = 100
	kWindows  = 3
	window    = kWindows * alpha
	batchSize = 25 // measurements per agent report, as in kertmon
	// emitRing bounds how many emitted rows may be in flight between the
	// generator and the sink; an agent buffers fewer than batchSize rows.
	emitRing = 1 << 12
)

// kertConfig is the model the pipeline rebuilds. Continuous workloads use
// DefaultKERTConfig (Leak 0): with Leak > 0 and LeakLo/LeakHi unpinned,
// IncrementalKERT.Build deadlocks (see NOTES.md). The discrete model is
// kertmon's: 6 bins, Leak 0.02, the default 16-sample D-CPT.
func kertConfig(discrete bool) core.KERTConfig {
	cfg := core.DefaultKERTConfig(workflow.EDiaMoND())
	if discrete {
		cfg.Type = core.DiscreteModel
		cfg.Bins = 6
		cfg.Leak = 0.02
	}
	return cfg
}

// pipeline is one running instance of the monitored system: agents ship
// measurements over journaled loopback TCP to the management server, whose
// row sink feeds the scheduler (incremental KERT-BN refits, observe-only
// health scoring) and deploys every generation to the HTTP gateway.
type pipeline struct {
	spec workloadSpec
	in   *inputs
	rec  *recorder
	dir  string

	epoch    time.Time
	ik       *core.IncrementalKERT
	refitter *refitter
	sched    *core.Scheduler
	inner    *monitor.Server
	srv      *monitor.TCPServer
	senders  []*monitor.TCPSender
	journals []*journal.Journal
	agents   []*monitor.Agent
	points   []*monitor.Point // by column
	gw       *gateway.Server
	gwRun    *gateway.RunningServer
	client   *http.Client
	base     string

	// Generator state, touched only by the goroutine that emits rows.
	next     int64 // id of the next row to emit
	withhold int64 // row whose last measurement is never emitted (-1: none)
	emitNS   [emitRing]atomic.Int64

	sendErrs atomic.Int64

	// Sink state. The sink runs on the server's connection goroutines.
	sinkMu      sync.Mutex
	delivered   int64
	mismatched  int64
	rebuildErrs int64
	lastErr     error
	gens        int64
	fullGen     bool      // a generation built from a full window is deployed
	lagOn       bool      // record generation lags
	lags        []float64 // ms, one per generation while lagOn
}

// newPipeline builds and starts a pipeline whose journals live in dir.
func newPipeline(spec workloadSpec, in *inputs, rec *recorder, dir string, seed uint64) (_ *pipeline, err error) {
	p := &pipeline{spec: spec, in: in, rec: rec, dir: dir, epoch: time.Now(), withhold: -1}
	defer func() {
		if err != nil {
			p.close()
		}
	}()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cfg := kertConfig(spec.discrete)
	if p.ik, err = core.NewIncrementalKERT(cfg, window); err != nil {
		return nil, err
	}
	p.refitter = &refitter{ik: p.ik, relearn: spec.discrete, rec: rec}
	scfg := core.ScheduleConfig{TData: 20 * time.Second, Alpha: alpha, K: kWindows}
	if p.sched, err = core.NewSchedulerIncremental(scfg, p.refitter); err != nil {
		return nil, err
	}
	mon := health.NewMonitor(health.Config{Seed: seed})
	if err := p.sched.SetHealthPolicy(healthPolicy{m: mon, rec: rec}, false); err != nil {
		return nil, err
	}

	p.gw = gateway.New(nil, gateway.Options{})
	if p.gwRun, err = p.gw.Serve("127.0.0.1:0"); err != nil {
		return nil, err
	}
	p.base = "http://" + p.gwRun.Addr()
	// One HTTP connection carries every query.
	p.client = &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   30 * time.Second,
	}

	if p.inner, err = monitor.NewServerCtx(len(in.cols), p.sink); err != nil {
		return nil, err
	}
	if p.srv, err = monitor.ListenTCPOpts("127.0.0.1:0", p.inner, monitor.ServerOptions{}); err != nil {
		return nil, err
	}
	p.points = make([]*monitor.Point, len(in.cols))
	for a, cols := range spec.agentCols {
		j, err := journal.Open(journal.Options{Path: filepath.Join(dir, fmt.Sprintf("agent%d.wal", a))})
		if err != nil {
			return nil, err
		}
		p.journals = append(p.journals, j)
		s, err := monitor.DialTCPOpts(p.srv.Addr(), monitor.SenderOptions{
			Journal: j, AgentKey: uint64(a + 1), Seed: seed,
			DialTimeout: 2 * time.Second, IOTimeout: 5 * time.Second, AckTimeout: 5 * time.Second,
		})
		if err != nil {
			return nil, err
		}
		p.senders = append(p.senders, s)
		ag, err := monitor.NewAgent(fmt.Sprintf("agent%d", a), batchSize, &sender{inner: s, rec: rec, errs: &p.sendErrs})
		if err != nil {
			return nil, err
		}
		p.agents = append(p.agents, ag)
		for _, c := range cols {
			p.points[c] = ag.NewPoint(c)
		}
	}
	return p, nil
}

// close stops every server and connection and removes the journals. It is
// safe on a partially built pipeline and idempotent.
func (p *pipeline) close() {
	for _, s := range p.senders {
		s.Close()
	}
	p.senders = nil
	for _, j := range p.journals {
		j.Close()
	}
	p.journals = nil
	if p.srv != nil {
		p.srv.Close()
		p.srv = nil
	}
	if p.gwRun != nil {
		p.gwRun.Close()
		p.gwRun = nil
	}
	if p.client != nil {
		p.client.CloseIdleConnections()
	}
	os.RemoveAll(p.dir)
}

func (p *pipeline) sinceEpoch() int64 { return int64(time.Since(p.epoch)) }

// emit sends the next input row's measurements through the agents, in
// column order, as the monitoring points of one request would.
func (p *pipeline) emit() {
	id := p.next
	p.next++
	row := p.in.row(id)
	p.emitNS[id%emitRing].Store(p.sinceEpoch())
	n := len(row)
	if id == p.withhold {
		n--
	}
	sp := p.rec.begin(layerAgent, id)
	for c := 0; c < n; c++ {
		p.points[c].Observe(id, row[c])
	}
	p.rec.end(sp)
}

// flush ships every agent's partial batch.
func (p *pipeline) flush() {
	sp := p.rec.begin(layerAgent, -1)
	for _, a := range p.agents {
		if err := a.Flush(); err != nil {
			p.sendErrs.Add(1)
		}
	}
	p.rec.end(sp)
}

// sink receives assembled rows from the management server. Rows complete
// in emission order (each agent's reports arrive in order), so the n-th
// delivered row must equal input row n.
func (p *pipeline) sink(row []float64, tc obs.TraceContext) {
	p.sinkMu.Lock()
	defer p.sinkMu.Unlock()
	id := p.delivered
	p.delivered++
	if !sameRow(row, p.in.row(id)) {
		p.mismatched++
	}
	sp := p.rec.begin(layerSched, id)
	m, err := p.sched.PushCtx(row, tc)
	p.rec.end(sp)
	if err != nil {
		p.rebuildErrs++
		p.lastErr = err
		return
	}
	if m == nil {
		return
	}
	sp = p.rec.begin(layerGatewayDeploy, id)
	p.gw.SetModel(m)
	p.rec.end(sp)
	p.gens++
	if p.lagOn {
		p.lags = append(p.lags, float64(p.sinceEpoch()-p.emitNS[id%emitRing].Load())/1e6)
	}
	if p.sched.WindowLen() == window {
		p.fullGen = true
	}
}

func sameRow(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sinkState returns a consistent copy of the sink's counters.
func (p *pipeline) sinkState() (delivered, gens int64, fullGen bool) {
	p.sinkMu.Lock()
	defer p.sinkMu.Unlock()
	return p.delivered, p.gens, p.fullGen
}

// lagsRecorded counts the lags recorded since the last hand-over.
func (p *pipeline) lagsRecorded() int {
	p.sinkMu.Lock()
	defer p.sinkMu.Unlock()
	return len(p.lags)
}

// recordLags turns generation-lag recording on or off and hands over
// (and forgets) the lags recorded so far.
func (p *pipeline) recordLags(on bool) []float64 {
	p.sinkMu.Lock()
	defer p.sinkMu.Unlock()
	p.lagOn = on
	lags := p.lags
	p.lags = nil
	return lags
}

// sender times monitor.Sender.Send and counts its errors; agents drop the
// error of a send their Observe triggered.
type sender struct {
	inner monitor.Sender
	rec   *recorder
	errs  *atomic.Int64
}

func (s *sender) Send(r monitor.Report) error {
	sp := s.rec.begin(layerSend, -1)
	err := s.inner.Send(r)
	s.rec.end(sp)
	if err != nil {
		s.errs.Add(1)
	}
	return err
}

// healthPolicy times the observe-only health monitor's two scheduler
// hooks.
type healthPolicy struct {
	m   *health.Monitor
	rec *recorder
}

func (h healthPolicy) SetModel(m *core.Model) error {
	sp := h.rec.begin(layerHealthDeploy, -1)
	defer h.rec.end(sp)
	return h.m.SetModel(m)
}

func (h healthPolicy) ObserveCtx(row []float64, tc obs.TraceContext) (bool, error) {
	sp := h.rec.begin(layerObserve, -1)
	defer h.rec.end(sp)
	return h.m.ObserveCtx(row, tc)
}

func (h healthPolicy) ConsumeAlarm() bool { return h.m.ConsumeAlarm() }

// refitter times IncrementalKERT's ingest and refit and, for the discrete
// model, runs kertmon's decentralized relearn after each refit.
type refitter struct {
	ik      *core.IncrementalKERT
	relearn bool
	rec     *recorder
}

func (b *refitter) Ingest(row []float64) error {
	sp := b.rec.begin(layerIngest, -1)
	defer b.rec.end(sp)
	return b.ik.Ingest(row)
}

func (b *refitter) Len() int { return b.ik.Len() }

func (b *refitter) Build() (*core.Model, error) {
	sp := b.rec.begin(layerRefit, -1)
	m, err := b.ik.Build()
	b.rec.end(sp)
	if err != nil || !b.relearn {
		return m, err
	}
	sp = b.rec.begin(layerRelearn, -1)
	defer b.rec.end(sp)
	return m, relearn(m, b.ik.Snapshot())
}

// relearn is kertmon's decentralized relearn: every service CPD is learned
// again by its own agent from the window (encoded with the model's codec)
// and installed; the D node keeps its workflow-generated CPT.
func relearn(m *core.Model, w *dataset.Dataset) error {
	enc, err := m.Codec.Encode(w)
	if err != nil {
		return err
	}
	plans, err := decentral.PlanFromNetwork(m.Net, map[int]bool{m.DNode: true})
	if err != nil {
		return err
	}
	cols := make(decentral.Columns, enc.NumCols())
	for j := range cols {
		cols[j] = enc.Col(j)
	}
	res, err := decentral.LearnRobust(context.Background(), plans, cols, decentral.InProcShipper{},
		learn.DefaultOptions(), decentral.RobustOptions{Workers: len(plans)})
	if err != nil {
		return fmt.Errorf("decentralized relearn: %w", err)
	}
	if err := decentral.Install(m.Net, res); err != nil {
		return err
	}
	// Compiled query plans embed CPD pointers; the install swapped CPDs.
	m.InvalidatePlans()
	return nil
}
