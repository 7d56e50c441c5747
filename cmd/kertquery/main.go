// Command kertquery builds a response-time model from a CSV dataset (as
// produced by kertsim) and answers the autonomic-management queries the
// paper's applications pose.
//
// Usage:
//
//	kertsim -system ediamond -n 1200 > train.csv
//	kertquery -data train.csv -model kert -query paccel -service 3 -factor 0.9
//	kertquery -data train.csv -model kert -query dcomp -service 3
//	kertquery -data train.csv -model kert -query trace
//	kertquery -data train.csv -model nrt  -query threshold -service 3 -factor 0.9 -h 1.2
//	kertquery -data fresh.csv -load model.kert -query health
//	kertquery -data train.csv -model kert -serve -addr 127.0.0.1:8080
//
// With -serve, kertquery stays resident as the inference gateway: the
// built (or loaded) model is deployed behind the JSON query API described
// in API.md — posterior/dcomp/paccel/threshold/health over HTTP with
// compiled-plan reuse, an evidence-keyed result cache, request
// coalescing, and admission control — instead of answering one -query and
// exiting. The obs introspection surface (/metrics, /spans, /traces,
// /events) is served on the same port.
//
// The health query audits a model against a dataset offline: every row is
// scored (per-node log-likelihoods, PIT calibration, drift detectors) and
// the Equation-5 ε is computed with the whole file as holdout — the
// one-shot counterpart of kertmon's streaming -health monitor.
//
// The trace query runs one traced prior response-time query against the
// model and dumps the assembled trace trees, their Chrome trace-event form
// (load at ui.perfetto.dev or chrome://tracing) and the causal event
// journal as a single JSON document on stdout — the offline counterpart of
// kertmon's /traces and /events endpoints.
//
// The workflow is selected with -workflow: "ediamond" (the paper's
// six-service scenario) or "chain" (all service columns invoked
// sequentially, for ad-hoc datasets).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"kertbn/internal/core"
	"kertbn/internal/dataset"
	"kertbn/internal/decentral"
	"kertbn/internal/gateway"
	"kertbn/internal/health"
	"kertbn/internal/learn"
	"kertbn/internal/obs"
	"kertbn/internal/stats"
	"kertbn/internal/telemetry"
	"kertbn/internal/workflow"
)

func main() {
	var (
		dataPath    = flag.String("data", "", "training CSV (services..., D) as written by kertsim")
		metricsJSON = flag.String("metrics-json", "", "write the final metrics snapshot (build spans, query latency) to this file")
		modelKind   = flag.String("model", "kert", "model to build: kert or nrt")
		wfKind      = flag.String("workflow", "ediamond", "workflow knowledge: ediamond or chain")
		query       = flag.String("query", "paccel", "query: dcomp, paccel, threshold, plocal, loglik, health, trace, dot")
		service     = flag.Int("service", 3, "target service index (dcomp/paccel/threshold)")
		factor      = flag.Float64("factor", 0.9, "paccel/threshold: predicted elapsed-time factor")
		h           = flag.Float64("h", 0, "threshold: response-time threshold in seconds")
		bins        = flag.Int("bins", 8, "discretization arity")
		seed        = flag.Uint64("seed", 1, "random seed for NRT restarts")
		savePath    = flag.String("save", "", "write the built model to this file")
		loadPath    = flag.String("load", "", "load a previously saved model instead of training")
		workers     = flag.Int("workers", 1, "Monte-Carlo inference workers: >1 uses the sharded sampler (deterministic per seed at any count), 1 the serial one")
		useDecen    = flag.Bool("decentral", false, "re-learn the service CPDs through the decentralized engine before answering, printing its PartialLearnReport")
		serve       = flag.Bool("serve", false, "stay resident as the inference gateway (JSON API, see API.md) instead of answering one -query")
		addr        = flag.String("addr", "127.0.0.1:8080", "serve: listen address")
		maxInFlight = flag.Int("max-inflight", 64, "serve: bound on concurrently executing queries (excess shed with 503)")
		rate        = flag.Float64("rate", 0, "serve: per-tenant sustained queries/second (429 beyond; 0 = unlimited)")
		burst       = flag.Int("burst", 0, "serve: per-tenant burst allowance (default ceil(rate))")
		fleetAddr   = flag.String("fleet-addr", "", "ship this process's metric registry as fleet telemetry snapshots to the management server at this address (kertmon -mgmt-addr); the final increment flushes at exit")
		telEvery    = flag.Duration("telemetry-every", 10*time.Second, "telemetry snapshot interval (with -fleet-addr; 0 = one final snapshot at exit only)")
		telSource   = flag.String("telemetry-source", "kertquery", "origin name stamped on shipped telemetry snapshots")
	)
	flag.Parse()
	if *fleetAddr != "" {
		stopTel, err := telemetry.StartTCP(*fleetAddr, *telSource, *telEvery)
		if err != nil {
			fatal(err.Error())
		}
		defer stopTel()
	}
	dumpMetrics := func() {
		if *metricsJSON == "" {
			return
		}
		if err := obs.Default().DumpJSON(*metricsJSON); err != nil {
			fatal(err.Error())
		}
		fmt.Fprintln(os.Stderr, "metrics snapshot written to", *metricsJSON)
	}
	if *dataPath == "" {
		fatal("missing -data")
	}
	f, err := os.Open(*dataPath)
	if err != nil {
		fatal(err.Error())
	}
	train, err := dataset.ReadCSV(f)
	f.Close()
	if err != nil {
		fatal(err.Error())
	}
	if *loadPath != "" {
		lf, err := os.Open(*loadPath)
		if err != nil {
			fatal(err.Error())
		}
		model, err := core.LoadModel(lf)
		lf.Close()
		if err != nil {
			fatal(err.Error())
		}
		fmt.Printf("loaded %s model from %s\n", model.Type, *loadPath)
		if *serve {
			serveGateway(model, *addr, *rate, *burst, *maxInFlight, *workers)
		} else {
			answer(model, train, *query, *service, *factor, *h, *modelKind, *workers, *seed)
		}
		dumpMetrics()
		return
	}
	nServices := train.NumCols() - 1
	if *service < 0 || *service >= nServices {
		fatal(fmt.Sprintf("service %d out of range [0,%d)", *service, nServices))
	}

	var wf *workflow.Node
	switch *wfKind {
	case "ediamond":
		if nServices != 6 {
			fatal("the ediamond workflow needs exactly 6 service columns")
		}
		wf = workflow.EDiaMoND()
	case "chain":
		tasks := make([]*workflow.Node, nServices)
		for i := 0; i < nServices; i++ {
			tasks[i] = workflow.Task(i, train.Columns[i])
		}
		wf = workflow.Seq(tasks...)
	default:
		fatal(fmt.Sprintf("unknown workflow %q", *wfKind))
	}

	var model *core.Model
	switch *modelKind {
	case "kert":
		cfg := core.DefaultKERTConfig(wf)
		cfg.Type = core.DiscreteModel
		cfg.Bins = *bins
		cfg.Leak = 0.02
		model, err = core.BuildKERT(cfg, train)
	case "nrt":
		cfg := core.DefaultNRTConfig()
		cfg.Type = core.DiscreteModel
		cfg.Bins = *bins
		cfg.Restarts = 10
		cfg.RNG = stats.NewRNG(*seed)
		model, err = core.BuildNRT(cfg, train)
	default:
		fatal(fmt.Sprintf("unknown model %q", *modelKind))
	}
	if err != nil {
		fatal(err.Error())
	}
	fmt.Printf("built %s %s model: %d nodes, %d edges, cost {dataOps:%d scoreEvals:%d}\n",
		*modelKind, model.Type, model.Net.N(), model.Net.EdgeCount(),
		model.Cost.DataOps, model.Cost.ScoreEvals)
	if *useDecen {
		if err := decentralRelearn(model, train); err != nil {
			fatal(err.Error())
		}
	}
	if *savePath != "" {
		sf, err := os.Create(*savePath)
		if err != nil {
			fatal(err.Error())
		}
		if err := core.SaveModel(sf, model); err != nil {
			sf.Close()
			fatal(err.Error())
		}
		if err := sf.Close(); err != nil {
			fatal(err.Error())
		}
		fmt.Printf("model saved to %s\n", *savePath)
	}
	if *serve {
		serveGateway(model, *addr, *rate, *burst, *maxInFlight, *workers)
	} else {
		answer(model, train, *query, *service, *factor, *h, *modelKind, *workers, *seed)
	}
	dumpMetrics()
}

// serveGateway deploys the model behind the long-running inference
// gateway and blocks until SIGINT/SIGTERM.
func serveGateway(model *core.Model, addr string, rate float64, burst, maxInFlight, workers int) {
	srv := gateway.New(model, gateway.Options{
		MaxInFlight:   maxInFlight,
		RatePerTenant: rate,
		Burst:         burst,
		Workers:       workers,
	})
	run, err := srv.Serve(addr)
	if err != nil {
		fatal(err.Error())
	}
	fmt.Printf("kertbn gateway serving on http://%s (API reference: API.md; ctrl-c to stop)\n", run.Addr())
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	run.Close()
	fmt.Fprintln(os.Stderr, "kertquery: gateway stopped")
}

// decentralRelearn swaps the freshly built model's service CPDs for ones
// learned through the decentralized engine (Section 3.4) over the same
// training data, printing the round's PartialLearnReport. The D node keeps
// its workflow-generated CPT.
func decentralRelearn(model *core.Model, train *dataset.Dataset) error {
	data := train
	if model.Codec != nil {
		enc, err := model.Codec.Encode(train)
		if err != nil {
			return err
		}
		data = enc
	}
	plans, err := decentral.PlanFromNetwork(model.Net, map[int]bool{model.DNode: true})
	if err != nil {
		return err
	}
	cols := make(decentral.Columns, data.NumCols())
	for j := range cols {
		cols[j] = data.Col(j)
	}
	res, err := decentral.LearnRobust(context.Background(), plans, cols, decentral.InProcShipper{},
		learn.DefaultOptions(), decentral.RobustOptions{Workers: len(plans)})
	if err != nil {
		return err
	}
	fmt.Printf("decentralized relearn: %s\n", res.Report.String())
	if err := decentral.Install(model.Net, res); err != nil {
		return err
	}
	// Compiled query plans embed CPD pointers; the install swapped CPDs.
	model.InvalidatePlans()
	return nil
}

// answer runs one query against a (built or loaded) model.
func answer(model *core.Model, train *dataset.Dataset, query string, service int, factor, h float64, modelKind string, workers int, seed uint64) {
	switch query {
	case "dot":
		fmt.Print(model.Net.DOT(modelKind))

	case "trace":
		// Offline counterpart of kertmon's /traces and /events: stamp the
		// model as a fresh generation carrying a sampled trace, journal the
		// install as a generation swap, run one prior response-time query
		// (which claims the trace as the generation's first infer.query
		// span), then dump the assembled trace trees, their Chrome
		// trace-event form (Perfetto-loadable) and the causal event journal
		// as one JSON document on stdout.
		tc := obs.TraceContext{TraceID: obs.DeriveID(seed, 0)}
		model.SetProvenance(1, tc)
		obs.J().Record(obs.Event{
			Type: obs.EventGenerationSwap, TraceID: tc.TraceID,
			Generation: 1, Detail: "offline model installed by kertquery",
		})
		if _, err := core.PriorMarginal(model, model.DNode, 0, nil); err != nil {
			fatal(err.Error())
		}
		traces := obs.Default().Traces()
		doc := struct {
			Traces  []obs.Trace         `json:"traces"`
			Chrome  *obs.ChromeTraceDoc `json:"chrome"`
			Journal []obs.Event         `json:"journal"`
		}{traces, obs.ChromeTrace(traces), obs.J().Recent()}
		raw, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fatal(err.Error())
		}
		fmt.Println(string(raw))

	case "loglik":
		ll, err := model.Log10Likelihood(train)
		if err != nil {
			fatal(err.Error())
		}
		fmt.Printf("log10 P(train | model) = %.3f\n", ll)

	case "health":
		// One-shot model-health audit: every row of -data is scored against
		// the model — per-node log-likelihoods, PIT calibration, drift
		// detectors and the Equation-5 ε with the whole file as holdout.
		rep, err := health.ScoreDataset(model, train, health.Config{})
		if err != nil {
			fatal(err.Error())
		}
		fmt.Printf("model health over %d rows (%s model):\n", rep.RowsScored, rep.ModelType)
		fmt.Printf("  mean row loglik %.3f (natural log)\n", rep.MeanLogLik)
		if rep.EpsDefined {
			fmt.Printf("  Equation-5 ε = %.4f at h = %.4f s (P_bn %.4f vs empirical %.4f)\n",
				rep.Eps, rep.Threshold, rep.PBN, rep.PEmp)
		} else {
			fmt.Printf("  Equation-5 ε undefined: no rows exceed h = %.4f s\n", rep.Threshold)
		}
		if rep.Drifting {
			fmt.Printf("  DRIFT detected on %v\n", rep.DriftingNodes)
		}
		fmt.Println("  node                    mean_ll   pit_ks  state")
		for _, n := range rep.Nodes {
			fmt.Printf("  %-22s  %7.3f  %7.3f  %s\n", n.Name, n.MeanLogLik, n.PITKS, n.State)
		}

	case "dcomp":
		observed := map[int]float64{}
		for j := 0; j < train.NumCols(); j++ {
			if j == service {
				continue
			}
			observed[j] = stats.Mean(train.Col(j))
		}
		post, err := core.DComp(model, service, observed, core.DCompOptions{Workers: workers})
		if err != nil {
			fatal(err.Error())
		}
		prior, err := core.PriorMarginal(model, service, 0, nil)
		if err != nil {
			fatal(err.Error())
		}
		fmt.Printf("dComp for %q:\n  prior     mean %.4f s (std %.4f)\n  posterior mean %.4f s (std %.4f)\n",
			train.Columns[service], prior.Mean(), prior.Std(), post.Mean(), post.Std())
		printDist(post)

	case "plocal":
		observed := h
		if observed <= 0 {
			// Default: the 95th percentile of observed response times.
			observed = stats.Quantile(train.Col(train.NumCols()-1), 0.95)
		}
		sus, err := core.PLocal(model, observed, core.PLocalOptions{Workers: workers})
		if err != nil {
			fatal(err.Error())
		}
		fmt.Printf("problem localization for D = %.4f s:\n", observed)
		fmt.Println("  rank  service                 prior_s  posterior_s  shift    KL")
		for i, s := range sus {
			fmt.Printf("  %4d  %-22s  %7.4f  %11.4f  %5.2fx  %6.4f\n",
				i+1, s.Name, s.PriorMean, s.PosteriorMean, s.Shift, s.KL)
		}

	case "paccel", "threshold":
		mean := stats.Mean(train.Col(service))
		predicted := factor * mean
		post, err := core.PAccel(model, service, predicted, core.PAccelOptions{Workers: workers})
		if err != nil {
			fatal(err.Error())
		}
		fmt.Printf("pAccel: %q %.4f s -> %.4f s (factor %.2f)\n",
			train.Columns[service], mean, predicted, factor)
		fmt.Printf("projected response time: mean %.4f s, std %.4f s\n", post.Mean(), post.Std())
		if query == "threshold" {
			if h <= 0 {
				fatal("threshold query needs -h > 0")
			}
			fmt.Printf("P(D > %.3f s) = %.4f\n", h, post.Exceedance(h))
		} else {
			printDist(post)
		}

	default:
		fatal(fmt.Sprintf("unknown query %q", query))
	}
}

// printDist prints the posterior's core.Summary, the one the gateway
// serves: the quantile ladder, then one line per histogram bin.
func printDist(p *core.Posterior) {
	s := p.Summary()
	fmt.Print("  quantiles_s")
	for i, pc := range core.SummaryPercents {
		fmt.Printf("  p%d %.4f", pc, s.Quantiles[i])
	}
	fmt.Println()
	fmt.Println("  bin_lo_s  bin_hi_s     prob")
	for i, pr := range s.Probs {
		fmt.Printf("  %8.4f  %8.4f  %7.4f\n", s.Edges[i], s.Edges[i+1], pr)
	}
}

func fatal(msg string) {
	fmt.Fprintln(os.Stderr, "kertquery:", msg)
	os.Exit(1)
}
