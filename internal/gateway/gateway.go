package gateway

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"kertbn/internal/core"
	"kertbn/internal/obs"
	"kertbn/internal/stats"
	"kertbn/internal/telemetry"
)

func init() { obs.RegisterPrefix("gateway", "internal/gateway") }

// Gateway-wide metrics; per-route request/error/latency metrics are
// created lazily per route under gateway.route.<name>.*.
var (
	gwGeneration  = obs.G("gateway.generation")
	gwSwaps       = obs.C("gateway.model_swaps")
	gwInFlight    = obs.G("gateway.in_flight")
	gwRateLimited = obs.C("gateway.rejected.rate_limited")
	gwOverloaded  = obs.C("gateway.rejected.overloaded")
	gwNoModel     = obs.C("gateway.rejected.no_model")
	gwCacheHits   = obs.C("gateway.result_cache.hits")
	gwCacheMisses = obs.C("gateway.result_cache.misses")
	gwCacheInval  = obs.C("gateway.result_cache.invalidations")
	gwCoalesced   = obs.C("gateway.coalesce.merged")
	gwBatchExecs  = obs.C("gateway.coalesce.executions")
)

// Options tunes one gateway server. The zero value serves with the
// defaults noted per field.
type Options struct {
	// MaxInFlight bounds concurrently executing query requests (admission
	// control); excess requests are rejected with 503 + Retry-After rather
	// than queued. Default 64.
	MaxInFlight int
	// RatePerTenant is the sustained request rate (tokens/second) each
	// tenant (X-Kertbn-Tenant header; empty = anonymous) may spend on query
	// routes; excess is rejected with 429 + Retry-After. 0 disables rate
	// limiting.
	RatePerTenant float64
	// Burst is the token-bucket depth (instantaneous burst allowance).
	// Default max(1, ceil(RatePerTenant)).
	Burst int
	// ResultCacheSize bounds the rendered-response LRU. Default 4096.
	ResultCacheSize int
	// NSamples is the default Monte-Carlo sample count for continuous
	// models when a request does not set n_samples. Default 20000.
	NSamples int
	// MaxNSamples caps the per-request n_samples override (400 beyond it).
	// Default 200000.
	MaxNSamples int
	// Workers bounds per-query inference concurrency (core.BatchOptions).
	// Default 1 (one goroutine per request; concurrency comes from HTTP).
	Workers int
	// Clock overrides time.Now for the rate limiter (tests).
	Clock func() time.Time
	// Fleet, when non-nil, attaches the fleet telemetry aggregator: /fleet
	// serves its per-origin/fleet rollup report and /metrics.prom exposes
	// the fleet scope alongside the local one. Without it, /fleet answers
	// 404 and /metrics.prom serves local series only.
	Fleet *telemetry.Aggregator
}

func (o *Options) fillDefaults() {
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 64
	}
	if o.Burst <= 0 {
		o.Burst = int(math.Ceil(o.RatePerTenant))
		if o.Burst < 1 {
			o.Burst = 1
		}
	}
	if o.ResultCacheSize <= 0 {
		o.ResultCacheSize = 4096
	}
	if o.NSamples <= 0 {
		o.NSamples = 20000
	}
	if o.MaxNSamples <= 0 {
		o.MaxNSamples = 200000
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.Clock == nil {
		o.Clock = time.Now
	}
}

// flightCall is one in-flight query execution that concurrent identical
// requests attach to (request coalescing).
type flightCall struct {
	done   chan struct{}
	res    *cachedResult
	err    error
	status int
}

// Server is the long-running inference gateway: a JSON query API over one
// deployed model, with compiled-plan reuse, an evidence-keyed result
// cache, request coalescing, and admission control. All methods are safe
// for concurrent use.
type Server struct {
	opts Options

	mu    sync.RWMutex
	model *core.Model
	gen   int
	hash  uint64

	results *resultCache
	lim     *limiter
	sem     chan struct{}

	flightMu sync.Mutex
	flight   map[string]*flightCall

	batchExecs atomic.Int64
	coalesced  atomic.Int64

	// testHoldExec, when non-nil, blocks query leaders between flight
	// registration and execution so tests can pile followers onto one
	// in-flight call deterministically.
	testHoldExec chan struct{}
}

// New creates a gateway. A nil model is allowed: query routes answer 503
// until SetModel deploys one (the kertmon pattern, where the first model
// only exists after the first construction interval).
func New(model *core.Model, opts Options) *Server {
	opts.fillDefaults()
	s := &Server{
		opts:    opts,
		results: newResultCache(opts.ResultCacheSize),
		lim:     newLimiter(opts.RatePerTenant, opts.Burst),
		sem:     make(chan struct{}, opts.MaxInFlight),
		flight:  map[string]*flightCall{},
	}
	if model != nil {
		s.SetModel(model)
	}
	return s
}

// SetModel deploys a model, bumping the gateway generation and dropping
// every cached result — the scheduler's generation-swap signal. Compiled
// query plans live on the model itself, so the swapped-out generation's
// plans are garbage collected with it.
func (s *Server) SetModel(m *core.Model) {
	if m == nil {
		return
	}
	s.mu.Lock()
	s.model = m
	s.gen++
	s.hash = m.StructureHash()
	gen := s.gen
	s.mu.Unlock()
	s.results.invalidate()
	gwCacheInval.Inc()
	gwSwaps.Inc()
	gwGeneration.Set(float64(gen))
	obs.J().Record(obs.Event{
		Type: obs.EventGenerationSwap, Generation: gen,
		Detail: "gateway model swap",
	})
}

// snapshot returns the deployed model with its gateway generation and
// structure hash (model nil before the first SetModel).
func (s *Server) snapshot() (*core.Model, int, uint64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.model, s.gen, s.hash
}

// BatchExecutions reports how many underlying PosteriorBatch executions
// the gateway has run — with coalescing and caching, strictly fewer than
// the query requests served.
func (s *Server) BatchExecutions() int64 { return s.batchExecs.Load() }

// CoalescedRequests reports how many requests were answered by attaching
// to another request's in-flight execution.
func (s *Server) CoalescedRequests() int64 { return s.coalesced.Load() }

// FlushResultCache empties the result cache without touching the model or
// generation — the benchmark's tool for measuring cold-path latency and
// proving cached results bit-identical to re-executed ones.
func (s *Server) FlushResultCache() {
	s.results.invalidate()
	gwCacheInval.Inc()
}

// httpError is the uniform JSON error body.
type httpError struct {
	Error  string `json:"error"`
	Status int    `json:"status"`
}

// writeError renders a JSON error with optional Retry-After (seconds).
func writeError(w http.ResponseWriter, status int, retryAfter time.Duration, format string, args ...any) {
	if retryAfter > 0 {
		secs := int(math.Ceil(retryAfter.Seconds()))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	body, _ := json.Marshal(httpError{Error: fmt.Sprintf(format, args...), Status: status})
	w.Write(append(body, '\n'))
}

// setModelHeaders stamps the generation/hash headers every model-derived
// response carries.
func setModelHeaders(w http.ResponseWriter, gen int, hash uint64) {
	w.Header().Set("X-Kertbn-Generation", strconv.Itoa(gen))
	w.Header().Set("X-Kertbn-Model-Hash", fmt.Sprintf("%016x", hash))
}

// renderJSON marshals a response body deterministically (encoding/json
// sorts map keys, so equal values yield equal bytes).
func renderJSON(v any) ([]byte, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(body, '\n'), nil
}

// keySeed derives the deterministic RNG seed for a query from its cache
// key, so identical queries produce identical results whether or not the
// cache still holds them.
func keySeed(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return h.Sum64()
}

// queryKey canonicalizes one query into its cache/coalescing key. The
// generation and structure hash scope the key to the deployed model; the
// evidence values are rendered with full float precision.
func queryKey(route string, gen int, hash uint64, target, nSamples int, evidence map[int]float64, extra string) string {
	ids := make([]int, 0, len(evidence))
	for id := range evidence {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	key := fmt.Sprintf("%s|g%d|h%016x|t%d|n%d|ev:", route, gen, hash, target, nSamples)
	for _, id := range ids {
		key += strconv.Itoa(id) + "=" + strconv.FormatFloat(evidence[id], 'g', -1, 64) + ";"
	}
	if extra != "" {
		key += "|" + extra
	}
	return key
}

// runQueries executes a coalesced/cached query: at most one execution per
// key runs at a time, concurrent identical requests wait for it, and the
// rendered body lands in the result cache. build runs the actual inference
// and returns the response value to render.
func (s *Server) runQueries(key string, gen int, build func() (any, error)) (*cachedResult, string, int, error) {
	if cached, ok := s.results.get(key); ok {
		gwCacheHits.Inc()
		return cached, "hit", http.StatusOK, nil
	}
	gwCacheMisses.Inc()

	s.flightMu.Lock()
	if c, ok := s.flight[key]; ok {
		s.flightMu.Unlock()
		s.coalesced.Add(1)
		gwCoalesced.Inc()
		<-c.done
		if c.err != nil {
			return nil, "", c.status, c.err
		}
		return c.res, "coalesced", http.StatusOK, nil
	}
	c := &flightCall{done: make(chan struct{})}
	s.flight[key] = c
	hold := s.testHoldExec
	s.flightMu.Unlock()

	if hold != nil {
		<-hold
	}
	v, err := build()
	if err != nil {
		c.err, c.status = err, http.StatusInternalServerError
	} else if body, rerr := renderJSON(v); rerr != nil {
		c.err, c.status = rerr, http.StatusInternalServerError
	} else {
		c.res = &cachedResult{key: key, body: body, gen: gen}
		s.results.put(c.res)
	}
	s.flightMu.Lock()
	delete(s.flight, key)
	s.flightMu.Unlock()
	close(c.done)
	if c.err != nil {
		return nil, "", c.status, c.err
	}
	return c.res, "miss", http.StatusOK, nil
}

// posteriorBatch is the single funnel every gateway inference goes
// through: one core.PosteriorBatch execution, seeded deterministically
// from the cache key.
func (s *Server) posteriorBatch(m *core.Model, key string, queries []core.Query, nSamples int) ([]*core.Posterior, error) {
	s.batchExecs.Add(1)
	gwBatchExecs.Inc()
	return core.PosteriorBatch(nil, m, queries, core.BatchOptions{
		NSamples: nSamples,
		Workers:  s.opts.Workers,
		RNG:      stats.NewRNG(keySeed(key)),
	})
}

// Serve listens on addr and serves the gateway until the returned server
// is closed. Use "127.0.0.1:0" for an ephemeral port.
func (s *Server) Serve(addr string) (*RunningServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("gateway: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: s.Handler()}
	go func() { _ = srv.Serve(ln) }()
	return &RunningServer{ln: ln, srv: srv}, nil
}

// RunningServer is a live gateway listener.
type RunningServer struct {
	ln  net.Listener
	srv *http.Server
}

// Addr returns the bound address.
func (r *RunningServer) Addr() string { return r.ln.Addr().String() }

// Close shuts the listener down immediately.
func (r *RunningServer) Close() error { return r.srv.Close() }
