package gateway

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"kertbn/internal/bn"
	"kertbn/internal/core"
	"kertbn/internal/dataset"
	"kertbn/internal/health"
	"kertbn/internal/obs"
	"kertbn/internal/telemetry"
)

// RouteDoc describes one registered route — the machine-readable API
// surface served at "/" and cross-checked against API.md by the
// doc-coverage test.
type RouteDoc struct {
	Method  string `json:"method"`
	Path    string `json:"path"`
	Summary string `json:"summary"`
	// Query marks inference routes subject to admission control, rate
	// limiting, caching, and coalescing.
	Query bool `json:"query"`
}

// routeTable is the single source of truth: Handler registers exactly
// these paths, "/" serves this list, and the API.md test walks it.
// Populated in init to break the static routeTable → handleIndex →
// RouteDocs → routeTable initialization cycle.
var routeTable []routeEntry

type routeEntry struct {
	doc     RouteDoc
	name    string // metric/span segment: gateway.route.<name>.*
	handler func(*Server, http.ResponseWriter, *http.Request)
}

func init() {
	routeTable = []routeEntry{
		{RouteDoc{"GET", "/", "route index (this document)", false}, "index", (*Server).handleIndex},
		{RouteDoc{"GET", "/v1/model", "deployed model summary: nodes, edges, generation, structure hash", false}, "model", (*Server).handleModel},
		{RouteDoc{"GET", "/v1/stats", "serving statistics: caches, coalescing, admission", false}, "stats", (*Server).handleStats},
		{RouteDoc{"GET", "/v1/healthz", "liveness probe", false}, "healthz", (*Server).handleHealthz},
		{RouteDoc{"GET", "/metrics", "full obs metric snapshot (JSON)", false}, "metrics", (*Server).handleObs},
		{RouteDoc{"GET", "/metrics.prom", "Prometheus/OpenMetrics text exposition: local and fleet series", false}, "metrics_prom", (*Server).handleProm},
		{RouteDoc{"GET", "/fleet", "fleet telemetry rollup: per-origin and fleet-wide metrics with staleness", false}, "fleet", (*Server).handleFleet},
		{RouteDoc{"GET", "/spans", "recent trace spans (JSON)", false}, "spans", (*Server).handleObs},
		{RouteDoc{"GET", "/traces", "assembled trace trees (JSON)", false}, "traces", (*Server).handleObs},
		{RouteDoc{"GET", "/events", "causal event journal (JSON)", false}, "events", (*Server).handleObs},
		{RouteDoc{"POST", "/v1/query/posterior", "posterior for any node given evidence", true}, "posterior", (*Server).handlePosterior},
		{RouteDoc{"POST", "/v1/query/dcomp", "dComp: infer an unobservable service from observed means", true}, "dcomp", (*Server).handleDComp},
		{RouteDoc{"POST", "/v1/query/paccel", "pAccel: project end-to-end response time for a predicted service mean", true}, "paccel", (*Server).handlePAccel},
		{RouteDoc{"POST", "/v1/query/threshold", "threshold sweep: P(D > h) over candidate thresholds", true}, "threshold", (*Server).handleThreshold},
		{RouteDoc{"POST", "/v1/query/health", "score a dataset against the deployed model (uncached)", true}, "health", (*Server).handleHealth},
	}
}

// RouteDocs returns the documented API surface, in registration order.
func RouteDocs() []RouteDoc {
	out := make([]RouteDoc, len(routeTable))
	for i, e := range routeTable {
		out[i] = e.doc
	}
	return out
}

// statusWriter records the response status for per-route error metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Handler returns the gateway's HTTP handler with every route from
// routeTable instrumented (gateway.route.<name>.{requests,errors,seconds}
// metrics and a gateway.<name> span per request) and query routes wrapped
// in admission control.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, e := range routeTable {
		e := e
		h := func(w http.ResponseWriter, r *http.Request) { e.handler(s, w, r) }
		if e.doc.Query {
			h = s.admit(h)
		}
		mux.HandleFunc(e.doc.Path, s.instrument(e.name, e.doc.Method, h))
	}
	return mux
}

// instrument wraps a route with its per-route metrics, a span, and the
// method check.
func (s *Server) instrument(name, method string, h http.HandlerFunc) http.HandlerFunc {
	requests := obs.C("gateway.route." + name + ".requests")
	errors := obs.C("gateway.route." + name + ".errors")
	seconds := obs.H("gateway.route." + name + ".seconds")
	return func(w http.ResponseWriter, r *http.Request) {
		requests.Inc()
		sp := obs.StartSpan("gateway." + name)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		if r.Method != method {
			writeError(sw, http.StatusMethodNotAllowed, 0, "%s requires %s", r.URL.Path, method)
		} else {
			h(sw, r)
		}
		seconds.Observe(time.Since(start).Seconds())
		sp.SetAttr("status", strconv.Itoa(sw.status))
		sp.SetAttr("cache", sw.Header().Get("X-Kertbn-Cache"))
		sp.End()
		if sw.status >= 400 {
			errors.Inc()
		}
	}
}

// admit applies the query-route admission chain: per-tenant token-bucket
// rate limiting (429), then the bounded in-flight semaphore (503). Both
// rejections carry Retry-After.
func (s *Server) admit(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		tenant := r.Header.Get("X-Kertbn-Tenant")
		if ok, retry := s.lim.allow(tenant, s.opts.Clock()); !ok {
			gwRateLimited.Inc()
			writeError(w, http.StatusTooManyRequests, retry, "rate limit exceeded for tenant %q", tenant)
			return
		}
		select {
		case s.sem <- struct{}{}:
		default:
			gwOverloaded.Inc()
			writeError(w, http.StatusServiceUnavailable, time.Second, "gateway at max in-flight queries (%d)", s.opts.MaxInFlight)
			return
		}
		gwInFlight.Set(float64(len(s.sem)))
		defer func() {
			<-s.sem
			gwInFlight.Set(float64(len(s.sem)))
		}()
		h(w, r)
	}
}

// decodeJSON strictly decodes one JSON body into dst: unknown fields,
// trailing data, and bodies over 1 MiB are 400s.
func decodeJSON(w http.ResponseWriter, r *http.Request, dst any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, 1<<20)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		writeError(w, http.StatusBadRequest, 0, "bad request body: %v", err)
		return false
	}
	if dec.More() {
		writeError(w, http.StatusBadRequest, 0, "trailing data after JSON body")
		return false
	}
	return true
}

// deployed returns the model snapshot or answers 503 when no model has
// been deployed yet.
func (s *Server) deployed(w http.ResponseWriter) (*core.Model, int, uint64, bool) {
	m, gen, hash := s.snapshot()
	if m == nil {
		gwNoModel.Inc()
		writeError(w, http.StatusServiceUnavailable, time.Second, "no model deployed yet")
		return nil, 0, 0, false
	}
	return m, gen, hash, true
}

// resolveNode maps a request's name-or-id node reference to a node id,
// answering the appropriate 400/404 itself on failure.
func resolveNode(w http.ResponseWriter, m *core.Model, name string, id *int, field string) (int, bool) {
	switch {
	case name != "" && id != nil:
		writeError(w, http.StatusBadRequest, 0, "%s and %s_id are mutually exclusive", field, field)
		return 0, false
	case name != "":
		n := m.Net.NodeByName(name)
		if n == nil {
			writeError(w, http.StatusNotFound, 0, "unknown node %q", name)
			return 0, false
		}
		return n.ID, true
	case id != nil:
		if *id < 0 || *id >= m.Net.N() {
			writeError(w, http.StatusNotFound, 0, "node id %d out of range [0,%d)", *id, m.Net.N())
			return 0, false
		}
		return *id, true
	default:
		writeError(w, http.StatusBadRequest, 0, "missing %s (or %s_id)", field, field)
		return 0, false
	}
}

// resolveEvidence maps name-keyed evidence to node ids (404 on unknown
// names, 400 on non-finite values).
func resolveEvidence(w http.ResponseWriter, m *core.Model, ev map[string]float64, field string) (map[int]float64, bool) {
	out := make(map[int]float64, len(ev))
	for name, v := range ev {
		n := m.Net.NodeByName(name)
		if n == nil {
			writeError(w, http.StatusNotFound, 0, "unknown %s node %q", field, name)
			return nil, false
		}
		if v != v || v > 1e300 || v < -1e300 {
			writeError(w, http.StatusBadRequest, 0, "%s value for %q is not finite", field, name)
			return nil, false
		}
		out[n.ID] = v
	}
	return out, true
}

// sampleCount validates/defaults the per-request n_samples override.
func (s *Server) sampleCount(w http.ResponseWriter, n int) (int, bool) {
	if n == 0 {
		return s.opts.NSamples, true
	}
	if n < 0 || n > s.opts.MaxNSamples {
		writeError(w, http.StatusBadRequest, 0, "n_samples %d outside (0, %d]", n, s.opts.MaxNSamples)
		return 0, false
	}
	return n, true
}

// distJSON is the wire form of a core.Posterior: its core.Summary. The
// body stays a few KB however many Monte-Carlo samples stand behind it.
type distJSON struct {
	Mean float64 `json:"mean"`
	Std  float64 `json:"std"`
	// Quantiles maps "p1" … "p99" (core.SummaryPercents) to the ladder.
	Quantiles map[string]float64 `json:"quantiles"`
	Hist      histJSON           `json:"hist"`
	Gaussian  *gaussianJSON      `json:"gaussian,omitempty"`
}

type histJSON struct {
	Edges []float64 `json:"edges"`
	Probs []float64 `json:"probs"`
}

type gaussianJSON struct {
	Mu    float64 `json:"mu"`
	Sigma float64 `json:"sigma"`
}

func toDistJSON(p *core.Posterior) distJSON {
	sum := p.Summary()
	d := distJSON{
		Mean: sum.Mean, Std: sum.Std,
		Quantiles: make(map[string]float64, len(sum.Quantiles)),
		Hist:      histJSON{Edges: sum.Edges, Probs: sum.Probs},
	}
	for i, pc := range core.SummaryPercents {
		d.Quantiles["p"+strconv.Itoa(pc)] = sum.Quantiles[i]
	}
	if p.Gaussian != nil {
		d.Gaussian = &gaussianJSON{p.Gaussian.Mu, p.Gaussian.Sigma}
	}
	return d
}

// serveCached runs a query through the cache/coalescing layer and writes
// the (possibly cached) body with the cache and model headers.
func (s *Server) serveCached(w http.ResponseWriter, route, key string, gen int, hash uint64, build func() (any, error)) {
	res, source, status, err := s.runQueries(key, gen, build)
	if err != nil {
		writeError(w, status, 0, "%s: %v", route, err)
		return
	}
	setModelHeaders(w, gen, hash)
	w.Header().Set("X-Kertbn-Cache", source)
	w.Header().Set("Content-Type", "application/json")
	w.Write(res.body)
}

// --- GET routes ---------------------------------------------------------

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		writeError(w, http.StatusNotFound, 0, "no route %s; see / for the route index", r.URL.Path)
		return
	}
	_, gen, hash := s.snapshot()
	setModelHeaders(w, gen, hash)
	w.Header().Set("Content-Type", "application/json")
	body, _ := renderJSON(map[string]any{
		"service": "kertbn-gateway",
		"docs":    "API.md",
		"routes":  RouteDocs(),
	})
	w.Write(body)
}

type nodeJSON struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	Kind    string `json:"kind"`
	Card    int    `json:"card,omitempty"`
	Parents []int  `json:"parents"`
}

func (s *Server) handleModel(w http.ResponseWriter, _ *http.Request) {
	m, gen, hash, ok := s.deployed(w)
	if !ok {
		return
	}
	nodes := make([]nodeJSON, m.Net.N())
	for id := 0; id < m.Net.N(); id++ {
		n := m.Net.Node(id)
		nj := nodeJSON{ID: id, Name: n.Name, Kind: n.Kind.String(), Parents: m.Net.Parents(id)}
		if n.Kind == bn.Discrete {
			nj.Card = n.Card
		}
		nodes[id] = nj
	}
	setModelHeaders(w, gen, hash)
	w.Header().Set("Content-Type", "application/json")
	body, _ := renderJSON(map[string]any{
		"type":                 m.Type.String(),
		"metric":               fmt.Sprint(m.Metric),
		"generation":           gen,
		"scheduler_generation": m.Generation(),
		"structure_hash":       fmt.Sprintf("%016x", hash),
		"num_services":         m.NumServices,
		"num_resources":        m.NumResources,
		"d_node":               m.DNode,
		"edges":                m.Net.EdgeCount(),
		"columns":              m.Net.Names(),
		"nodes":                nodes,
	})
	w.Write(body)
}

type statsResponse struct {
	Generation   int        `json:"generation"`
	ModelLoaded  bool       `json:"model_loaded"`
	ModelHash    string     `json:"model_hash"`
	ResultCache  cacheStats `json:"result_cache"`
	PlanCacheLen int        `json:"plan_cache_len"`
	Coalesce     struct {
		Executions int64 `json:"executions"`
		Merged     int64 `json:"merged"`
	} `json:"coalesce"`
	Admission struct {
		MaxInFlight int `json:"max_in_flight"`
		InFlight    int `json:"in_flight"`
	} `json:"admission"`
	RateLimit struct {
		RatePerTenant float64 `json:"rate_per_tenant"`
		Burst         int     `json:"burst"`
	} `json:"rate_limit"`
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	m, gen, hash := s.snapshot()
	resp := statsResponse{
		Generation:  gen,
		ModelLoaded: m != nil,
		ModelHash:   fmt.Sprintf("%016x", hash),
		ResultCache: s.results.stats(),
	}
	if m != nil {
		resp.PlanCacheLen = m.PlanCacheLen()
	}
	resp.Coalesce.Executions = s.batchExecs.Load()
	resp.Coalesce.Merged = s.coalesced.Load()
	resp.Admission.MaxInFlight = s.opts.MaxInFlight
	resp.Admission.InFlight = len(s.sem)
	resp.RateLimit.RatePerTenant = s.opts.RatePerTenant
	resp.RateLimit.Burst = s.opts.Burst
	setModelHeaders(w, gen, hash)
	w.Header().Set("Content-Type", "application/json")
	body, _ := renderJSON(resp)
	w.Write(body)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	m, gen, _ := s.snapshot()
	w.Header().Set("Content-Type", "application/json")
	body, _ := renderJSON(map[string]any{
		"status":       "ok",
		"model_loaded": m != nil,
		"generation":   gen,
	})
	w.Write(body)
}

// handleObs delegates /metrics, /spans, /traces, /events to the shared obs
// introspection handler, so the gateway port exposes the same telemetry
// surface as the dedicated -obs listeners elsewhere in the repo.
func (s *Server) handleObs(w http.ResponseWriter, r *http.Request) {
	obs.Default().Handler().ServeHTTP(w, r)
}

// handleProm serves the Prometheus/OpenMetrics text exposition: the local
// process registry always, plus the fleet rollup when an aggregator is
// attached.
func (s *Server) handleProm(w http.ResponseWriter, r *http.Request) {
	scopes := []telemetry.PromScope{{Label: "local", Registry: obs.Default()}}
	if s.opts.Fleet != nil {
		scopes = append(scopes, telemetry.PromScope{Label: "fleet", Registry: s.opts.Fleet.Fleet()})
	}
	telemetry.PromHandler(scopes...).ServeHTTP(w, r)
}

// handleFleet serves the fleet rollup report, or 404 when this gateway has
// no aggregator attached (agent-side gateways).
func (s *Server) handleFleet(w http.ResponseWriter, r *http.Request) {
	if s.opts.Fleet == nil {
		writeError(w, http.StatusNotFound, 0, "no fleet aggregator attached to this gateway")
		return
	}
	s.opts.Fleet.Handler().ServeHTTP(w, r)
}

// --- query routes -------------------------------------------------------

type posteriorRequest struct {
	Target   string             `json:"target,omitempty"`
	TargetID *int               `json:"target_id,omitempty"`
	Evidence map[string]float64 `json:"evidence,omitempty"`
	NSamples int                `json:"n_samples,omitempty"`
}

type posteriorResponse struct {
	Target     string   `json:"target"`
	TargetID   int      `json:"target_id"`
	NSamples   int      `json:"n_samples"`
	Generation int      `json:"generation"`
	Posterior  distJSON `json:"posterior"`
}

func (s *Server) handlePosterior(w http.ResponseWriter, r *http.Request) {
	var req posteriorRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	m, gen, hash, ok := s.deployed(w)
	if !ok {
		return
	}
	target, ok := resolveNode(w, m, req.Target, req.TargetID, "target")
	if !ok {
		return
	}
	evidence, ok := resolveEvidence(w, m, req.Evidence, "evidence")
	if !ok {
		return
	}
	if _, clash := evidence[target]; clash {
		writeError(w, http.StatusBadRequest, 0, "target %q cannot also be evidence", m.Net.Node(target).Name)
		return
	}
	nSamples, ok := s.sampleCount(w, req.NSamples)
	if !ok {
		return
	}
	key := queryKey("posterior", gen, hash, target, nSamples, evidence, "")
	s.serveCached(w, "posterior", key, gen, hash, func() (any, error) {
		posts, err := s.posteriorBatch(m, key, []core.Query{{Target: target, Evidence: evidence}}, nSamples)
		if err != nil {
			return nil, err
		}
		return posteriorResponse{
			Target: m.Net.Node(target).Name, TargetID: target,
			NSamples: nSamples, Generation: gen,
			Posterior: toDistJSON(posts[0]),
		}, nil
	})
}

type dcompRequest struct {
	Target   string             `json:"target,omitempty"`
	TargetID *int               `json:"target_id,omitempty"`
	Observed map[string]float64 `json:"observed"`
	NSamples int                `json:"n_samples,omitempty"`
}

type dcompResponse struct {
	Target     string   `json:"target"`
	TargetID   int      `json:"target_id"`
	NSamples   int      `json:"n_samples"`
	Generation int      `json:"generation"`
	Prior      distJSON `json:"prior"`
	Posterior  distJSON `json:"posterior"`
}

func (s *Server) handleDComp(w http.ResponseWriter, r *http.Request) {
	var req dcompRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	m, gen, hash, ok := s.deployed(w)
	if !ok {
		return
	}
	target, ok := resolveNode(w, m, req.Target, req.TargetID, "target")
	if !ok {
		return
	}
	if len(req.Observed) == 0 {
		writeError(w, http.StatusBadRequest, 0, "dcomp needs at least one observed node")
		return
	}
	observed, ok := resolveEvidence(w, m, req.Observed, "observed")
	if !ok {
		return
	}
	if _, clash := observed[target]; clash {
		writeError(w, http.StatusBadRequest, 0, "target %q cannot also be observed", m.Net.Node(target).Name)
		return
	}
	nSamples, ok := s.sampleCount(w, req.NSamples)
	if !ok {
		return
	}
	key := queryKey("dcomp", gen, hash, target, nSamples, observed, "")
	s.serveCached(w, "dcomp", key, gen, hash, func() (any, error) {
		posts, err := s.posteriorBatch(m, key, []core.Query{
			{Target: target, Evidence: observed},
			{Target: target}, // prior, for the dComp before/after comparison
		}, nSamples)
		if err != nil {
			return nil, err
		}
		return dcompResponse{
			Target: m.Net.Node(target).Name, TargetID: target,
			NSamples: nSamples, Generation: gen,
			Posterior: toDistJSON(posts[0]), Prior: toDistJSON(posts[1]),
		}, nil
	})
}

type paccelRequest struct {
	Service       string  `json:"service,omitempty"`
	ServiceID     *int    `json:"service_id,omitempty"`
	PredictedMean float64 `json:"predicted_mean"`
	NSamples      int     `json:"n_samples,omitempty"`
}

type paccelResponse struct {
	Service       string   `json:"service"`
	ServiceID     int      `json:"service_id"`
	PredictedMean float64  `json:"predicted_mean"`
	NSamples      int      `json:"n_samples"`
	Generation    int      `json:"generation"`
	ResponseTime  distJSON `json:"response_time"`
}

// paccelQuery validates the shared pAccel request shape and returns the
// service id, evidence map, and sample count.
func (s *Server) paccelQuery(w http.ResponseWriter, m *core.Model, service string, serviceID *int, mean float64, nSamples int) (int, map[int]float64, int, bool) {
	id, ok := resolveNode(w, m, service, serviceID, "service")
	if !ok {
		return 0, nil, 0, false
	}
	if id == m.DNode {
		writeError(w, http.StatusBadRequest, 0, "paccel conditions on a service node, not D (node %d)", m.DNode)
		return 0, nil, 0, false
	}
	if mean != mean {
		writeError(w, http.StatusBadRequest, 0, "predicted_mean is not finite")
		return 0, nil, 0, false
	}
	n, ok := s.sampleCount(w, nSamples)
	if !ok {
		return 0, nil, 0, false
	}
	return id, map[int]float64{id: mean}, n, true
}

func (s *Server) handlePAccel(w http.ResponseWriter, r *http.Request) {
	var req paccelRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	m, gen, hash, ok := s.deployed(w)
	if !ok {
		return
	}
	service, evidence, nSamples, ok := s.paccelQuery(w, m, req.Service, req.ServiceID, req.PredictedMean, req.NSamples)
	if !ok {
		return
	}
	key := queryKey("paccel", gen, hash, m.DNode, nSamples, evidence, "")
	s.serveCached(w, "paccel", key, gen, hash, func() (any, error) {
		posts, err := s.posteriorBatch(m, key, []core.Query{{Target: m.DNode, Evidence: evidence}}, nSamples)
		if err != nil {
			return nil, err
		}
		return paccelResponse{
			Service: m.Net.Node(service).Name, ServiceID: service,
			PredictedMean: req.PredictedMean, NSamples: nSamples, Generation: gen,
			ResponseTime: toDistJSON(posts[0]),
		}, nil
	})
}

type thresholdRequest struct {
	Service       string    `json:"service,omitempty"`
	ServiceID     *int      `json:"service_id,omitempty"`
	PredictedMean float64   `json:"predicted_mean"`
	Thresholds    []float64 `json:"thresholds"`
	NSamples      int       `json:"n_samples,omitempty"`
}

type thresholdEntryJSON struct {
	Threshold float64 `json:"threshold"`
	PExceed   float64 `json:"p_exceed"`
}

type thresholdResponse struct {
	Service       string               `json:"service"`
	ServiceID     int                  `json:"service_id"`
	PredictedMean float64              `json:"predicted_mean"`
	NSamples      int                  `json:"n_samples"`
	Generation    int                  `json:"generation"`
	Results       []thresholdEntryJSON `json:"results"`
}

func (s *Server) handleThreshold(w http.ResponseWriter, r *http.Request) {
	var req thresholdRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	m, gen, hash, ok := s.deployed(w)
	if !ok {
		return
	}
	service, evidence, nSamples, ok := s.paccelQuery(w, m, req.Service, req.ServiceID, req.PredictedMean, req.NSamples)
	if !ok {
		return
	}
	if len(req.Thresholds) == 0 {
		writeError(w, http.StatusBadRequest, 0, "thresholds must be non-empty")
		return
	}
	extra := "th:"
	for _, h := range req.Thresholds {
		if h != h {
			writeError(w, http.StatusBadRequest, 0, "threshold is not finite")
			return
		}
		extra += strconv.FormatFloat(h, 'g', -1, 64) + ";"
	}
	key := queryKey("threshold", gen, hash, m.DNode, nSamples, evidence, extra)
	s.serveCached(w, "threshold", key, gen, hash, func() (any, error) {
		posts, err := s.posteriorBatch(m, key, []core.Query{{Target: m.DNode, Evidence: evidence}}, nSamples)
		if err != nil {
			return nil, err
		}
		results := make([]thresholdEntryJSON, len(req.Thresholds))
		for i, h := range req.Thresholds {
			results[i] = thresholdEntryJSON{Threshold: h, PExceed: posts[0].Exceedance(h)}
		}
		return thresholdResponse{
			Service: m.Net.Node(service).Name, ServiceID: service,
			PredictedMean: req.PredictedMean, NSamples: nSamples, Generation: gen,
			Results: results,
		}, nil
	})
}

type healthRequest struct {
	Columns []string    `json:"columns,omitempty"`
	Rows    [][]float64 `json:"rows"`
}

type healthResponse struct {
	RowsScored int            `json:"rows_scored"`
	Generation int            `json:"generation"`
	Report     *health.Report `json:"report"`
}

// handleHealth scores a batch of observation rows against the deployed
// model. Unlike the inference routes it is not cached or coalesced (bodies
// are arbitrary datasets, not small canonical queries), but it still runs
// under admission control.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	var req healthRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	m, gen, hash, ok := s.deployed(w)
	if !ok {
		return
	}
	cols := req.Columns
	if len(cols) == 0 {
		cols = m.Net.Names()
	}
	if len(cols) != m.NumColumns() {
		writeError(w, http.StatusBadRequest, 0, "columns: got %d, model has %d", len(cols), m.NumColumns())
		return
	}
	if len(req.Rows) == 0 {
		writeError(w, http.StatusBadRequest, 0, "rows must be non-empty")
		return
	}
	ds := dataset.New(cols)
	for i, row := range req.Rows {
		if err := ds.Append(row); err != nil {
			writeError(w, http.StatusBadRequest, 0, "row %d: %v", i, err)
			return
		}
	}
	report, err := health.ScoreDataset(m, ds, health.Config{})
	if err != nil {
		writeError(w, http.StatusInternalServerError, 0, "health: %v", err)
		return
	}
	setModelHeaders(w, gen, hash)
	w.Header().Set("Content-Type", "application/json")
	body, rerr := renderJSON(healthResponse{RowsScored: len(req.Rows), Generation: gen, Report: report})
	if rerr != nil {
		writeError(w, http.StatusInternalServerError, 0, "render: %v", rerr)
		return
	}
	w.Write(body)
}
