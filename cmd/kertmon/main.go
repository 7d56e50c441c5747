// Command kertmon demonstrates the full live pipeline of the paper's
// Section 2: a discrete-event simulation of the eDiaMoND testbed generates
// requests; monitoring points on each simulated host report per-service
// elapsed times through batching agents over TCP to a management server;
// the server assembles complete rows and feeds the periodic
// model-(re)construction scheduler (W = K·T_CON); each reconstruction
// prints the fresh model's headline numbers and a pAccel projection.
//
// With -metrics-addr the whole pipeline is observable live: an HTTP
// introspection endpoint serves the internal/obs registry (/metrics JSON
// snapshot, /spans recent spans, pprof, expvar) while the run progresses.
// Each rebuild also re-learns the service CPDs through the decentralized
// engine (disable with -decentral=false), so the Fig. 5 per-node
// learn-time quantiles show up alongside the Fig. 3 build spans.
//
// The -fault-* family injects deterministic faults into the decentralized
// relearn: column shipping moves onto a real TCP fabric wrapped by the
// chaos injector, ships retry with backoff, and nodes whose parents stay
// unreachable fall back to prior-only CPDs — each rebuild prints its
// PartialLearnReport. The schedule is a pure function of -fault-seed, so
// the same flags reproduce the same degradation:
//
//	kertmon -requests 600 -fault-drop 0.2 -fault-seed 7
//
// Reconstructions are incremental: sufficient statistics track the
// sliding window as rows arrive and each rebuild refits from them (flat
// cost in window size).
//
// -health attaches the streaming model-health monitor: every assembled row
// is scored against the live model (per-node log-likelihoods, PIT
// calibration, CUSUM/Page–Hinkley drift detectors, rolling Equation-5 ε
// against an online holdout split), each rebuild prints a health line, and
// the full report is served at /health when -metrics-addr is set.
// -rebuild-on-drift additionally lets drift alarms force reconstructions
// ahead of the α cadence, truncating the window to the newest α rows.
//
// -trace-every N turns on end-to-end distributed tracing: 1 in N agent
// batches is sampled into a trace that links the measurement flush, the
// TCP wire hop, row assembly, the scheduler push, health scoring, any
// rebuild it triggers (including the decentralized relearn's per-attempt
// ships) and the new generation's first query. Traces are served at
// /traces (?format=chrome for the Perfetto-loadable Chrome trace-event
// form), the causal event journal at /events, and -trace-out dumps the
// Chrome document (journal appended) to a file at exit:
//
//	kertmon -requests 600 -health -rebuild-on-drift \
//	        -trace-every 8 -trace-out traces.json
//
// -journal-dir makes the agent transport durable: each host's agent
// appends its report batches to a per-host write-ahead journal in that
// directory before shipping, so a management-server outage parks rows on
// disk instead of losing them; they replay after reconnect and the server
// dedups on (origin, seq). Journals persist across runs — a crashed run's
// unacked reports ship first on the next start.
//
// kertmon is also the fleet telemetry plane's management side: its TCP
// server accepts TelemetrySnapshot frames from any agent started with
// -fleet-addr pointing here (kertsim, kertquery, kertbench, or another
// kertmon), rolls them up per origin and fleet-wide, and serves the
// rollup at /fleet plus the Prometheus text exposition at /metrics.prom
// (both on -metrics-addr; /fleet and /metrics.prom also ride the
// gateway's -serve-addr port). -mgmt-addr pins the management listener to
// a known port so external agents can reach it. -telemetry-every
// additionally makes kertmon ship its *own* registry into the rollup (to
// -fleet-addr when set, else to itself) and starts the SLO evaluator:
// data-loss, ingest-freshness and gateway-latency burn rates over
// multi-window budgets, with firing/recovery journaled as slo_alert
// events (visible at /events).
//
// Usage:
//
//	kertmon [-requests 600] [-alpha 100] [-k 3] [-rate 1.5] [-seed 1]
//	        [-metrics-addr 127.0.0.1:8080] [-metrics-json out.json]
//	        [-decentral=true] [-linger 0s]
//	        [-health] [-rebuild-on-drift]
//	        [-trace-every N] [-trace-seed N] [-trace-out traces.json]
//	        [-fault-drop P -fault-seed N ...] [-journal-dir DIR]
//	        [-mgmt-addr 127.0.0.1:9090] [-telemetry-every 5s]
//	        [-fleet-addr HOST:PORT] [-telemetry-source NAME]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"kertbn/internal/core"
	"kertbn/internal/dataset"
	"kertbn/internal/decentral"
	"kertbn/internal/faulty"
	"kertbn/internal/gateway"
	"kertbn/internal/health"
	"kertbn/internal/journal"
	"kertbn/internal/learn"
	"kertbn/internal/monitor"
	"kertbn/internal/obs"
	"kertbn/internal/simsvc"
	"kertbn/internal/stats"
	"kertbn/internal/telemetry"
	"kertbn/internal/wire/binfmt"
	"kertbn/internal/workflow"
)

func main() {
	var (
		requests    = flag.Int("requests", 600, "requests to simulate")
		alpha       = flag.Int("alpha", 100, "α_model: points per construction interval")
		k           = flag.Int("k", 3, "environmental correlation metric K")
		rate        = flag.Float64("rate", 1.5, "DES arrival rate (req/s)")
		seed        = flag.Uint64("seed", 1, "random seed")
		metricsAddr = flag.String("metrics-addr", "", "serve the live introspection endpoint on this address (e.g. :8080)")
		serveAddr   = flag.String("serve-addr", "", "serve the inference gateway (JSON query API, see API.md) on this address; each reconstruction deploys the new model generation and invalidates the gateway's result cache")
		metricsJSON = flag.String("metrics-json", "", "write the final metrics snapshot to this file")
		useDecen    = flag.Bool("decentral", true, "re-learn service CPDs decentrally on each rebuild (Fig. 5 live)")
		workers     = flag.Int("workers", 0, "bound concurrent decentralized learners per rebuild (0 = one per CPD, the paper's all-agents-at-once scheme)")
		retries     = flag.Int("fault-retries", 2, "chaos: per-column ship retry budget during decentralized relearn")
		linger      = flag.Duration("linger", 0, "keep the metrics endpoint up this long after the run")
		withHealth  = flag.Bool("health", false, "attach a streaming model-health monitor: every row is scored against the live model, drift detectors run per node, and each rebuild prints a health report (served at /health when -metrics-addr is set)")
		onDrift     = flag.Bool("rebuild-on-drift", false, "let drift alarms force reconstructions ahead of the α-cadence (implies -health)")
		traceEvery  = flag.Int("trace-every", 0, "sample 1 in N agent batches into distributed traces (0 = tracing off); sampled batches link flush, wire hop, ingest, scheduler push, health scoring, rebuilds and the new generation's first query into one trace, served at /traces when -metrics-addr is set")
		traceSeed   = flag.Uint64("trace-seed", 0, "seed for the deterministic batch sampler (0 = use -seed)")
		traceOut    = flag.String("trace-out", "", "write the assembled traces as a Chrome trace-event JSON document (Perfetto-loadable, journal appended) to this file")
		journalDir  = flag.String("journal-dir", "", "durable store-and-forward: keep one append-only journal per agent under this directory (created if missing); reports survive transport outages on disk and replay after reconnect, deduped server-side")
		mgmtAddr    = flag.String("mgmt-addr", "127.0.0.1:0", "management TCP listen address for agent reports and fleet telemetry snapshots (pin to a known port so external agents can -fleet-addr here)")
		telEvery    = flag.Duration("telemetry-every", 0, "ship this process's own metric registry into the fleet rollup at this interval and run the SLO burn-rate evaluator (0 = off)")
		fleetAddr   = flag.String("fleet-addr", "", "ship telemetry snapshots to this management server instead of this process's own (-telemetry-every must be set)")
		telSource   = flag.String("telemetry-source", "kertmon", "origin name stamped on shipped telemetry snapshots")
	)
	faultCfg := faulty.RegisterFlags(flag.CommandLine)
	flag.Parse()
	chaos := faultCfg()
	if chaos.Active() && !*useDecen {
		fatal("-fault-* chaos targets the decentralized relearn; drop -decentral=false")
	}
	if *traceSeed == 0 {
		*traceSeed = *seed
	}
	tracing := *traceEvery > 0
	if tracing {
		// Size the span ring for a whole run's sampled spans so the traces
		// dumped at exit are not partially evicted.
		obs.Default().SetSpanCapacity(8192)
		fmt.Printf("tracing: sampling 1 in %d agent batches (seed %d)\n", *traceEvery, *traceSeed)
	}

	// The fleet aggregator rolls up telemetry snapshots from every agent
	// that ships here (including this process's own when -telemetry-every
	// is set). It always exists: the management server applies snapshots
	// into it and /fleet + /metrics.prom serve it.
	agg := telemetry.NewAggregator(telemetry.AggregatorOptions{})

	if *metricsAddr != "" {
		is, err := obs.Default().Serve(*metricsAddr)
		if err != nil {
			fatal(err.Error())
		}
		defer is.Close()
		obs.Default().Handle("/fleet", agg.Handler())
		obs.Default().Handle("/metrics.prom", telemetry.PromHandler(
			telemetry.PromScope{Label: "local", Registry: obs.Default()},
			telemetry.PromScope{Label: "fleet", Registry: agg.Fleet()},
		))
		fmt.Printf("introspection endpoint on http://%s (/metrics /metrics.prom /fleet /spans /debug/pprof/ /debug/vars)\n", is.Addr())
	}

	wf := workflow.EDiaMoND()
	cols := core.ColumnNames(workflow.EDiaMoNDServiceNames, nil)

	// The reconstruction scheduler: discrete KERT-BN rebuilt every α points
	// from the sliding window. Rebuilds are incremental — per-family
	// sufficient statistics track the window as rows arrive and each
	// reconstruction refits from them.
	var relearn relearnFunc
	if *useDecen {
		// The paper's Section-3.4 scheme, live: each monitoring agent
		// learns its own service's CPD after the parent columns ship
		// over; the per-node times land in the
		// decentral.node_learn.seconds histogram. A sampled build trace
		// threads through the round: the learn span and every per-attempt
		// ship join the rebuild's trace.
		relearn = func(m *core.Model, w *dataset.Dataset, tc obs.TraceContext) error {
			if err := decentralRelearn(m, w, *workers, chaos, *retries, tc); err != nil {
				return fmt.Errorf("decentralized re-learn: %w", err)
			}
			return nil
		}
	}
	scfg := core.ScheduleConfig{
		TData: 20 * time.Second, // nominal; the run is in simulated time
		Alpha: *alpha,
		K:     *k,
	}
	sched, err := newScheduler(modelConfig(wf), scfg, relearn)
	if err != nil {
		fatal(err.Error())
	}
	fmt.Printf("schedule: T_CON = %v, window = %d points, incremental reconstructions\n",
		sched.Config().TCon(), sched.Config().WindowPoints())

	// Optional model-health telemetry: the monitor rides the scheduler's
	// data path, scoring every row against the live model. Observe-only
	// with -health; -rebuild-on-drift additionally lets alarms force early
	// reconstructions (with window truncation, K -> 1).
	var mon *health.Monitor
	if *withHealth || *onDrift {
		mon = health.NewMonitor(health.Config{Seed: *seed})
		if err := sched.SetHealthPolicy(mon, *onDrift); err != nil {
			fatal(err.Error())
		}
		if *metricsAddr != "" {
			obs.Default().Handle("/health", mon.Handler())
			fmt.Println("model-health report served at /health")
		}
		fmt.Printf("model health: scoring on (rebuild-on-drift=%v)\n", *onDrift)
	}

	// Inference gateway: deployed generations become queryable over HTTP
	// the moment the scheduler swaps them in.
	var gw *gateway.Server
	if *serveAddr != "" {
		gw = gateway.New(nil, gateway.Options{Fleet: agg})
		gwRun, err := gw.Serve(*serveAddr)
		if err != nil {
			fatal(err.Error())
		}
		defer gwRun.Close()
		fmt.Printf("inference gateway serving on http://%s (API reference: API.md)\n", gwRun.Addr())
	}

	// Management server over TCP; rows flow into the scheduler carrying the
	// trace context of the batch that completed them.
	var rebuilds atomic.Int64
	inner, err := monitor.NewServerCtx(len(cols), func(row []float64, tc obs.TraceContext) {
		m, err := sched.PushCtx(row, tc)
		if err != nil {
			fmt.Fprintln(os.Stderr, "reconstruction failed:", err)
			return
		}
		if m == nil {
			return
		}
		n := rebuilds.Add(1)
		fmt.Printf("\n[rebuild %d] %s KERT-BN from %d points in %v (cost: %d data ops)\n",
			n, m.Type, sched.WindowLen(), sched.LastBuildTime(), m.Cost.DataOps)
		if gw != nil {
			gw.SetModel(m)
		}
		post, err := core.ResponseTimePosterior(m, nil, 0, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, "  query failed:", err)
			return
		}
		fmt.Printf("  response time now: mean %.3fs std %.3fs, P(D>1.2s)=%.3f\n",
			post.Mean(), post.Std(), post.Exceedance(1.2))
		acc, err := core.PAccel(m, workflow.EDOgsaDaiRemote, 0.8*0.45, core.PAccelOptions{})
		if err == nil {
			fmt.Printf("  pAccel(ogsa_dai_remote ->80%%): mean %.3fs, P(D>1.2s)=%.3f\n",
				acc.Mean(), acc.Exceedance(1.2))
		}
		if mon != nil {
			printHealth(mon, sched)
		}
	})
	if err != nil {
		fatal(err.Error())
	}
	tcpSrv, err := monitor.ListenTCPOpts(*mgmtAddr, inner, monitor.ServerOptions{
		Telemetry: func(snap *binfmt.TelemetrySnapshot) { agg.Apply(snap) },
	})
	if err != nil {
		fatal(err.Error())
	}
	defer tcpSrv.Close()
	fmt.Println("management server listening on", tcpSrv.Addr())

	// Fleet telemetry: ship this process's own registry into the rollup
	// (to -fleet-addr when given, else to our own management server) and
	// evaluate the SLO burn rates over the local and fleet registries.
	if *fleetAddr != "" && *telEvery <= 0 {
		fatal("-fleet-addr needs -telemetry-every to pace the snapshots")
	}
	if *telEvery > 0 {
		target := *fleetAddr
		if target == "" {
			target = tcpSrv.Addr()
		}
		telSender, err := monitor.DialTCPOpts(target, monitor.SenderOptions{})
		if err != nil {
			fatal(err.Error())
		}
		shipper, err := telemetry.NewShipper(telSender, telemetry.ShipperOptions{
			Source:   *telSource,
			Interval: *telEvery,
		})
		if err != nil {
			fatal(err.Error())
		}
		shipper.Start()
		regs := []*obs.Registry{obs.Default(), agg.Fleet()}
		slo := telemetry.NewEvaluator(telemetry.EvaluatorOptions{Interval: *telEvery},
			telemetry.DataLossObjective(0.01, telemetry.DefaultWindows(), regs...),
			telemetry.IngestFreshnessObjective(0.05, 5.0, telemetry.DefaultWindows(), regs...),
			telemetry.GatewayLatencyObjective(0.05, 0.25, telemetry.DefaultWindows(), regs...),
		)
		slo.Start()
		defer func() {
			slo.Stop()
			shipper.Stop()
			telSender.Close()
		}()
		fmt.Printf("fleet telemetry: shipping %q snapshots every %v to %s; SLO burn-rate evaluator on\n",
			*telSource, *telEvery, target)
	}

	// One monitoring agent per simulated host, reporting over TCP.
	hosts := map[string][]int{
		"linux-server": {workflow.EDImageList, workflow.EDWorkList},
		"aix-local":    {workflow.EDImageLocatorLocal, workflow.EDOgsaDaiLocal},
		"aix-remote":   {workflow.EDImageLocatorRemote, workflow.EDOgsaDaiRemote},
		"edge-probe":   {len(cols) - 1}, // end-to-end D measured at the edge
	}
	if *journalDir != "" {
		if err := os.MkdirAll(*journalDir, 0o755); err != nil {
			fatal(err.Error())
		}
		fmt.Printf("durable transport: per-agent journals under %s\n", *journalDir)
	}
	points := map[int]*monitor.Point{}
	var agents []*monitor.Agent
	var senders []*monitor.TCPSender
	var journals []*journal.Journal
	agentIdx := uint64(0)
	for host, columns := range hosts {
		var sopts monitor.SenderOptions
		if *journalDir != "" {
			j, err := journal.Open(journal.Options{Path: filepath.Join(*journalDir, host+".wal")})
			if err != nil {
				fatal(err.Error())
			}
			journals = append(journals, j)
			if n := j.Pending(); n > 0 {
				fmt.Printf("  %s: replaying %d journaled reports from a previous run\n", host, n)
			}
			sopts.Journal = j
			// The origin key must be stable across restarts (the journal file
			// is host-keyed, and the server dedups on origin+seq), so derive
			// it from the host name rather than map-iteration order.
			sopts.AgentKey = obs.DeriveID(0x6A726E6C, uint64(len(host)))
			for i := 0; i < len(host); i++ {
				sopts.AgentKey = obs.DeriveID(sopts.AgentKey, uint64(host[i]))
			}
		}
		sender, err := monitor.DialTCPOpts(tcpSrv.Addr(), sopts)
		if err != nil {
			fatal(err.Error())
		}
		senders = append(senders, sender)
		agent, err := monitor.NewAgent(host, 25, sender)
		if err != nil {
			fatal(err.Error())
		}
		if tracing {
			// Each agent samples independently from its own derived seed,
			// so co-hosted agents never collide on trace IDs.
			agent.SetTracer(obs.NewTracer(obs.DeriveID(*traceSeed, agentIdx), *traceEvery))
			agentIdx++
		}
		agents = append(agents, agent)
		for _, c := range columns {
			points[c] = agent.NewPoint(c)
		}
	}
	defer func() {
		for _, s := range senders {
			s.Close()
		}
		// Journals outlive their senders: anything still pending stays on
		// disk for the next run's replay.
		for _, j := range journals {
			j.Close()
		}
	}()

	// Drive the DES; each completed request reports through the points.
	rng := stats.NewRNG(*seed)
	means := []float64{0.08, 0.12, 0.10, 0.22, 0.35, 0.45}
	stations := make([]simsvc.StationConfig, len(means))
	for i, m := range means {
		stations[i] = simsvc.StationConfig{Concurrency: 2, Service: simsvc.DelayDist{Kind: simsvc.DistExponential, A: 1 / m}}
	}
	des, err := simsvc.NewDES(wf, simsvc.DESConfig{
		ArrivalRate:    *rate,
		Stations:       stations,
		HopDelay:       simsvc.DelayDist{Kind: simsvc.DistUniform, A: 0.001, B: 0.004},
		WarmupRequests: 50,
	}, rng)
	if err != nil {
		fatal(err.Error())
	}
	records, err := des.Run(*requests)
	if err != nil {
		fatal(err.Error())
	}
	for reqID, rec := range records {
		for svc, elapsed := range rec.Elapsed {
			points[svc].Observe(int64(reqID), elapsed)
		}
		points[len(cols)-1].Observe(int64(reqID), rec.ResponseTime())
	}
	for _, a := range agents {
		if err := a.Flush(); err != nil {
			fatal(err.Error())
		}
	}
	// TCP delivery is asynchronous; WaitComplete is a true completion
	// barrier — rows are counted only after their sink (including any
	// rebuild it triggers) returns, so no trailing sleep is needed.
	if !inner.WaitComplete(*requests, 5*time.Second) {
		fmt.Fprintf(os.Stderr, "kertmon: warning: only %d/%d rows drained before timeout\n",
			inner.CompleteCount(), *requests)
	}
	fmt.Printf("\npipeline done: %d requests measured, %d rows assembled, %d reconstructions\n",
		*requests, inner.CompleteCount(), sched.Rebuilds())
	if mon != nil {
		fmt.Println("final model health:")
		printHealth(mon, sched)
	}
	if sched.Model() == nil {
		fatal("no model was ever built — too few points per interval?")
	}
	if *linger > 0 && *metricsAddr != "" {
		fmt.Printf("holding the metrics endpoint open for %v...\n", *linger)
		time.Sleep(*linger)
	}
	if *metricsJSON != "" {
		if err := obs.Default().DumpJSON(*metricsJSON); err != nil {
			fatal(err.Error())
		}
		fmt.Println("metrics snapshot written to", *metricsJSON)
	}
	if *traceOut != "" {
		if !tracing {
			fatal("-trace-out needs tracing on: set -trace-every N")
		}
		traces := obs.Default().Traces()
		doc := struct {
			*obs.ChromeTraceDoc
			Journal []obs.Event `json:"journal"`
		}{obs.ChromeTrace(traces), obs.J().Recent()}
		raw, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fatal(err.Error())
		}
		if err := os.WriteFile(*traceOut, raw, 0o644); err != nil {
			fatal(err.Error())
		}
		fmt.Printf("%d traces (%d journal events) written to %s — load in Perfetto (ui.perfetto.dev) or chrome://tracing\n",
			len(traces), len(doc.Journal), *traceOut)
	}
}

// modelConfig is kertmon's model: a discrete KERT-BN over wf with 6 bins
// per service and a 0.02 leak on D.
func modelConfig(wf *workflow.Node) core.KERTConfig {
	kcfg := core.DefaultKERTConfig(wf)
	kcfg.Type = core.DiscreteModel
	kcfg.Bins = 6
	kcfg.Leak = 0.02
	return kcfg
}

// relearnFunc runs after each refit over the model and its window; nil
// means no relearn, and no window snapshot is taken.
type relearnFunc func(*core.Model, *dataset.Dataset, obs.TraceContext) error

// newScheduler builds kertmon's reconstruction scheduler: an incremental
// KERT-BN over a K·α window whose every refit is followed by relearn.
func newScheduler(kcfg core.KERTConfig, scfg core.ScheduleConfig, relearn relearnFunc) (*core.Scheduler, error) {
	ik, err := core.NewIncrementalKERT(kcfg, scfg.WindowPoints())
	if err != nil {
		return nil, err
	}
	return core.NewSchedulerIncremental(scfg, &relearnBuilder{IncrementalKERT: ik, relearn: relearn})
}

// relearnBuilder is IncrementalKERT with kertmon's post-build hook: after
// each refit from sufficient statistics, the decentralized relearn (when
// enabled) runs over the window snapshot. Embedding keeps IncrementalKERT's
// Ingest, Len, TruncateWindow and InvalidateStructure visible to the
// scheduler, so drift rebuilds truncate the window and refit the codec.
type relearnBuilder struct {
	*core.IncrementalKERT
	relearn relearnFunc
	trace   obs.TraceContext
}

// SetBuildTrace implements core.TraceAwareBuilder: the scheduler hands over
// the trace context of the row that triggered this rebuild so the
// decentralized relearn (its learn span and every per-attempt ship) joins
// the same trace.
func (b *relearnBuilder) SetBuildTrace(tc obs.TraceContext) { b.trace = tc }

func (b *relearnBuilder) Build() (*core.Model, error) {
	m, err := b.IncrementalKERT.Build()
	if err != nil || b.relearn == nil {
		return m, err
	}
	return m, b.relearn(m, b.Snapshot(), b.trace)
}

// decentralRelearn re-learns the service CPDs of a freshly built discrete
// KERT-BN through the decentralized engine over the same window (encoded
// with the model's codec), installing the results. The D node keeps its
// workflow-generated CPT. workers <= 0 runs one learner per CPD (the
// paper's fully concurrent scheme); positive values bound the fan-out.
//
// With an active chaos config the ships move onto a real TCP fabric
// wrapped by the fault injector, retry up to retries times, unreachable
// parents degrade to prior-only fallback CPDs, and the rebuild's
// PartialLearnReport is printed.
func decentralRelearn(m *core.Model, w *dataset.Dataset, workers int, chaos faulty.Config, retries int, tc obs.TraceContext) error {
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
	if workers <= 0 {
		workers = len(plans)
	}
	var shipper decentral.Shipper = decentral.InProcShipper{}
	ropts := decentral.RobustOptions{Workers: workers, Trace: tc}
	if chaos.Active() {
		inj, err := faulty.NewInjector(chaos)
		if err != nil {
			return err
		}
		fab, err := decentral.NewTCPFabricOpts(decentral.FabricOptions{
			DialTimeout: time.Second,
			IOTimeout:   2 * time.Second,
			IdleTimeout: 2 * time.Second,
			Injector:    inj,
		})
		if err != nil {
			return err
		}
		defer fab.Close()
		shipper = fab
		ropts.ShipRetries = retries
		ropts.Backoff = faulty.Backoff{Base: 5 * time.Millisecond, Max: 50 * time.Millisecond}
		ropts.Seed = chaos.Seed
		ropts.Fallback = decentral.FallbackLocal
	}
	res, err := decentral.LearnRobust(context.Background(), plans, cols, shipper, learn.DefaultOptions(), ropts)
	if err != nil {
		return err
	}
	if chaos.Active() {
		fmt.Printf("  chaos relearn: %s\n", res.Report.String())
	}
	if err := decentral.Install(m.Net, res); err != nil {
		return err
	}
	// Compiled query plans embed CPD pointers; the install swapped CPDs.
	m.InvalidatePlans()
	return nil
}

// printHealth prints the monitor's per-rebuild health summary: generation,
// rolling log-likelihood, Equation-5 ε against the online holdout split,
// and any drifting nodes.
func printHealth(mon *health.Monitor, sched *core.Scheduler) {
	r := mon.Report()
	eps := "ε undefined (no holdout violations yet)"
	if r.EpsDefined {
		eps = fmt.Sprintf("ε %.3f (p_bn %.3f, p_emp %.3f over %d holdout rows)", r.Eps, r.PBN, r.PEmp, r.HoldoutRows)
	}
	// Right after a rebuild the rolling window has just reset, so fall back
	// to the retiring generation's mean.
	loglik := fmt.Sprintf("mean loglik %.2f", r.MeanLogLik)
	if r.MeanLogLik == 0 && r.PrevMeanLLSet {
		loglik = fmt.Sprintf("mean loglik %.2f (gen %d)", r.PrevMeanLogLik, r.Generation-1)
	} else if r.MeanLogLik == 0 {
		loglik = "no rows scored yet"
	}
	fmt.Printf("  health: gen %d, %d rows scored, %s, %s\n",
		r.Generation, r.RowsScored, loglik, eps)
	if r.Drifting {
		fmt.Printf("  health: DRIFT on %v (%d drift-forced rebuilds so far)\n",
			r.DriftingNodes, sched.DriftRebuilds())
	}
}

func fatal(msg string) {
	fmt.Fprintln(os.Stderr, "kertmon:", msg)
	os.Exit(1)
}
