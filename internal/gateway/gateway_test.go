package gateway

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"kertbn/internal/core"
	"kertbn/internal/simsvc"
	"kertbn/internal/stats"
	"kertbn/internal/workflow"
)

// testModel builds a small discrete eDiaMoND model (exact VE inference, so
// route tests stay fast and fully deterministic).
func testModel(t testing.TB) *core.Model {
	t.Helper()
	sys := simsvc.EDiaMoNDSystem()
	train, err := sys.GenerateDataset(300, stats.NewRNG(5))
	if err != nil {
		t.Fatalf("dataset: %v", err)
	}
	cfg := core.DefaultKERTConfig(workflow.EDiaMoND())
	cfg.Type = core.DiscreteModel
	m, err := core.BuildKERT(cfg, train)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return m
}

func post(t *testing.T, h http.Handler, path string, body any, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	var buf bytes.Buffer
	switch b := body.(type) {
	case string:
		buf.WriteString(b)
	default:
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatalf("encode: %v", err)
		}
	}
	req := httptest.NewRequest(http.MethodPost, path, &buf)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	return w
}

// TestGatewayPosteriorCacheFlow covers the happy path and the cache
// contract: miss → hit with byte-identical bodies and correct headers.
func TestGatewayPosteriorCacheFlow(t *testing.T) {
	m := testModel(t)
	s := New(m, Options{})
	h := s.Handler()
	names := m.Net.Names()
	body := map[string]any{
		"target":   names[m.DNode],
		"evidence": map[string]float64{names[0]: 0.2},
	}

	w1 := post(t, h, "/v1/query/posterior", body, nil)
	if w1.Code != http.StatusOK {
		t.Fatalf("first query: %d %s", w1.Code, w1.Body.String())
	}
	if c := w1.Header().Get("X-Kertbn-Cache"); c != "miss" {
		t.Errorf("first query cache header = %q, want miss", c)
	}
	if g := w1.Header().Get("X-Kertbn-Generation"); g != "1" {
		t.Errorf("generation header = %q, want 1", g)
	}
	if w1.Header().Get("X-Kertbn-Model-Hash") == "" {
		t.Error("missing model hash header")
	}
	var resp posteriorResponse
	if err := json.Unmarshal(w1.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if resp.Target != names[m.DNode] || resp.TargetID != m.DNode {
		t.Errorf("resolved target %q/%d, want %q/%d", resp.Target, resp.TargetID, names[m.DNode], m.DNode)
	}
	if len(resp.Posterior.Hist.Probs) == 0 || resp.Posterior.Mean <= 0 {
		t.Errorf("degenerate posterior: %+v", resp.Posterior)
	}

	w2 := post(t, h, "/v1/query/posterior", body, nil)
	if w2.Code != http.StatusOK {
		t.Fatalf("second query: %d", w2.Code)
	}
	if c := w2.Header().Get("X-Kertbn-Cache"); c != "hit" {
		t.Errorf("second query cache header = %q, want hit", c)
	}
	if !bytes.Equal(w1.Body.Bytes(), w2.Body.Bytes()) {
		t.Error("cached body differs from original")
	}
	if got := s.BatchExecutions(); got != 1 {
		t.Errorf("batch executions = %d, want 1 (hit must not execute)", got)
	}

	// Flush and re-execute: the recomputed body must be bit-identical to
	// the formerly cached one (key-derived deterministic seed).
	s.FlushResultCache()
	w3 := post(t, h, "/v1/query/posterior", body, nil)
	if c := w3.Header().Get("X-Kertbn-Cache"); c != "miss" {
		t.Errorf("post-flush cache header = %q, want miss", c)
	}
	if !bytes.Equal(w1.Body.Bytes(), w3.Body.Bytes()) {
		t.Error("re-executed body differs from cached body")
	}
}

// TestGatewayGenerationSwapInvalidates pins the scheduler-swap contract:
// SetModel bumps the generation, drops every cached result, and stamps the
// new generation on subsequent responses.
func TestGatewayGenerationSwapInvalidates(t *testing.T) {
	m := testModel(t)
	s := New(m, Options{})
	h := s.Handler()
	names := m.Net.Names()
	body := map[string]any{"target": names[m.DNode], "evidence": map[string]float64{names[0]: 0.2}}

	post(t, h, "/v1/query/posterior", body, nil)
	if w := post(t, h, "/v1/query/posterior", body, nil); w.Header().Get("X-Kertbn-Cache") != "hit" {
		t.Fatal("warm-up query did not cache")
	}

	s.SetModel(testModel(t)) // forced generation swap
	if _, g, _ := s.snapshot(); g != 2 {
		t.Fatalf("generation after swap = %d, want 2", g)
	}
	w := post(t, h, "/v1/query/posterior", body, nil)
	if c := w.Header().Get("X-Kertbn-Cache"); c != "miss" {
		t.Errorf("post-swap cache header = %q, want miss (stale cache survived swap)", c)
	}
	if g := w.Header().Get("X-Kertbn-Generation"); g != "2" {
		t.Errorf("post-swap generation header = %q, want 2", g)
	}
}

// TestGatewayErrorSemantics walks the documented 400/404/405/503 paths.
func TestGatewayErrorSemantics(t *testing.T) {
	m := testModel(t)
	s := New(m, Options{})
	h := s.Handler()
	names := m.Net.Names()

	cases := []struct {
		name string
		do   func() *httptest.ResponseRecorder
		want int
	}{
		{"malformed json", func() *httptest.ResponseRecorder {
			return post(t, h, "/v1/query/posterior", `{"target": `, nil)
		}, http.StatusBadRequest},
		{"unknown field", func() *httptest.ResponseRecorder {
			return post(t, h, "/v1/query/posterior", `{"bogus": 1}`, nil)
		}, http.StatusBadRequest},
		{"missing target", func() *httptest.ResponseRecorder {
			return post(t, h, "/v1/query/posterior", map[string]any{}, nil)
		}, http.StatusBadRequest},
		{"unknown target node", func() *httptest.ResponseRecorder {
			return post(t, h, "/v1/query/posterior", map[string]any{"target": "nope"}, nil)
		}, http.StatusNotFound},
		{"target id out of range", func() *httptest.ResponseRecorder {
			return post(t, h, "/v1/query/posterior", map[string]any{"target_id": 999}, nil)
		}, http.StatusNotFound},
		{"unknown evidence node", func() *httptest.ResponseRecorder {
			return post(t, h, "/v1/query/posterior",
				map[string]any{"target": names[m.DNode], "evidence": map[string]float64{"nope": 1}}, nil)
		}, http.StatusNotFound},
		{"target as evidence", func() *httptest.ResponseRecorder {
			return post(t, h, "/v1/query/posterior",
				map[string]any{"target": names[0], "evidence": map[string]float64{names[0]: 1}}, nil)
		}, http.StatusBadRequest},
		{"n_samples over cap", func() *httptest.ResponseRecorder {
			return post(t, h, "/v1/query/posterior",
				map[string]any{"target": names[m.DNode], "n_samples": 1 << 30}, nil)
		}, http.StatusBadRequest},
		{"dcomp empty observed", func() *httptest.ResponseRecorder {
			return post(t, h, "/v1/query/dcomp", map[string]any{"target": names[0]}, nil)
		}, http.StatusBadRequest},
		{"paccel on D", func() *httptest.ResponseRecorder {
			return post(t, h, "/v1/query/paccel",
				map[string]any{"service": names[m.DNode], "predicted_mean": 0.2}, nil)
		}, http.StatusBadRequest},
		{"threshold empty sweep", func() *httptest.ResponseRecorder {
			return post(t, h, "/v1/query/threshold",
				map[string]any{"service": names[0], "predicted_mean": 0.2}, nil)
		}, http.StatusBadRequest},
		{"health empty rows", func() *httptest.ResponseRecorder {
			return post(t, h, "/v1/query/health", map[string]any{"rows": [][]float64{}}, nil)
		}, http.StatusBadRequest},
		{"health ragged row", func() *httptest.ResponseRecorder {
			return post(t, h, "/v1/query/health", map[string]any{"rows": [][]float64{{1, 2}}}, nil)
		}, http.StatusBadRequest},
		{"get on query route", func() *httptest.ResponseRecorder {
			return get(t, h, "/v1/query/posterior")
		}, http.StatusMethodNotAllowed},
		{"unknown path", func() *httptest.ResponseRecorder {
			return get(t, h, "/v1/nope")
		}, http.StatusNotFound},
	}
	for _, tc := range cases {
		w := tc.do()
		if w.Code != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, w.Code, tc.want, strings.TrimSpace(w.Body.String()))
			continue
		}
		var e httpError
		if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e.Error == "" || e.Status != tc.want {
			t.Errorf("%s: error body not well-formed: %s", tc.name, w.Body.String())
		}
	}
}

// TestGatewayNoModel503 covers the pre-deployment window: query routes
// answer 503 with Retry-After until SetModel, then serve.
func TestGatewayNoModel503(t *testing.T) {
	s := New(nil, Options{})
	h := s.Handler()
	w := post(t, h, "/v1/query/posterior", map[string]any{"target_id": 0}, nil)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("no-model status = %d, want 503", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("503 missing Retry-After")
	}
	if w := get(t, h, "/v1/healthz"); w.Code != http.StatusOK {
		t.Errorf("healthz must stay 200 without a model, got %d", w.Code)
	}

	m := testModel(t)
	s.SetModel(m)
	w = post(t, h, "/v1/query/posterior", map[string]any{"target_id": m.DNode}, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("post-deploy query: %d %s", w.Code, w.Body.String())
	}
}

// TestGatewayRateLimit exercises the per-tenant token bucket end to end:
// burst admits, then 429 + Retry-After, separate tenants have separate
// buckets, and refill readmits.
func TestGatewayRateLimit(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	m := testModel(t)
	s := New(m, Options{RatePerTenant: 1, Burst: 2, Clock: clock})
	h := s.Handler()
	body := map[string]any{"target_id": m.DNode}

	for i := 0; i < 2; i++ {
		if w := post(t, h, "/v1/query/posterior", body, map[string]string{"X-Kertbn-Tenant": "a"}); w.Code != http.StatusOK {
			t.Fatalf("burst request %d: %d", i, w.Code)
		}
	}
	w := post(t, h, "/v1/query/posterior", body, map[string]string{"X-Kertbn-Tenant": "a"})
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("over-budget status = %d, want 429", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("429 missing Retry-After")
	}
	// Another tenant is unaffected.
	if w := post(t, h, "/v1/query/posterior", body, map[string]string{"X-Kertbn-Tenant": "b"}); w.Code != http.StatusOK {
		t.Errorf("tenant b caught tenant a's limit: %d", w.Code)
	}
	// Refill admits tenant a again.
	now = now.Add(1500 * time.Millisecond)
	if w := post(t, h, "/v1/query/posterior", body, map[string]string{"X-Kertbn-Tenant": "a"}); w.Code != http.StatusOK {
		t.Errorf("post-refill status = %d, want 200", w.Code)
	}
}

// TestGatewayOverload503 saturates the in-flight bound with a held query
// and checks the next distinct query is shed with 503 + Retry-After.
func TestGatewayOverload503(t *testing.T) {
	m := testModel(t)
	s := New(m, Options{MaxInFlight: 1})
	s.testHoldExec = make(chan struct{})
	h := s.Handler()
	names := m.Net.Names()

	started := make(chan struct{})
	done := make(chan *httptest.ResponseRecorder)
	go func() {
		close(started)
		done <- post(t, h, "/v1/query/posterior",
			map[string]any{"target": names[m.DNode], "evidence": map[string]float64{names[0]: 0.1}}, nil)
	}()
	<-started
	waitFor(t, func() bool { return s.flightLen() == 1 })

	// A *different* query (no coalescing) while the slot is held: shed.
	w := post(t, h, "/v1/query/posterior",
		map[string]any{"target": names[m.DNode], "evidence": map[string]float64{names[0]: 0.9}}, nil)
	if w.Code != http.StatusServiceUnavailable {
		t.Errorf("overload status = %d, want 503", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("overload 503 missing Retry-After")
	}

	close(s.testHoldExec)
	if w := <-done; w.Code != http.StatusOK {
		t.Errorf("held query finished %d, want 200", w.Code)
	}
}

// TestGatewayInfoRoutes sanity-checks the GET surface.
func TestGatewayInfoRoutes(t *testing.T) {
	m := testModel(t)
	s := New(m, Options{})
	h := s.Handler()

	var index struct {
		Service string     `json:"service"`
		Routes  []RouteDoc `json:"routes"`
	}
	w := get(t, h, "/")
	if err := json.Unmarshal(w.Body.Bytes(), &index); err != nil || len(index.Routes) != len(RouteDocs()) {
		t.Errorf("index: %v / %s", err, w.Body.String())
	}

	var model map[string]any
	w = get(t, h, "/v1/model")
	if err := json.Unmarshal(w.Body.Bytes(), &model); err != nil {
		t.Fatalf("model: %v", err)
	}
	for _, k := range []string{"type", "structure_hash", "nodes", "columns", "d_node"} {
		if _, ok := model[k]; !ok {
			t.Errorf("model response missing %q", k)
		}
	}

	post(t, h, "/v1/query/posterior", map[string]any{"target_id": m.DNode}, nil)
	var stats statsResponse
	w = get(t, h, "/v1/stats")
	if err := json.Unmarshal(w.Body.Bytes(), &stats); err != nil {
		t.Fatalf("stats: %v", err)
	}
	if !stats.ModelLoaded || stats.Coalesce.Executions < 1 || stats.ResultCache.Capacity < 1 {
		t.Errorf("stats implausible: %+v", stats)
	}

	w = get(t, h, "/metrics")
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "gateway.route.posterior.requests") {
		t.Errorf("/metrics missing gateway counters (status %d)", w.Code)
	}
}

// TestGatewayDCompPAccelThresholdRoutes runs each remaining query route
// once and sanity-checks the response shapes.
func TestGatewayDCompPAccelThresholdRoutes(t *testing.T) {
	m := testModel(t)
	s := New(m, Options{})
	h := s.Handler()
	names := m.Net.Names()

	w := post(t, h, "/v1/query/dcomp", map[string]any{
		"target":   names[0],
		"observed": map[string]float64{names[m.DNode]: 0.8, names[1]: 0.2},
	}, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("dcomp: %d %s", w.Code, w.Body.String())
	}
	var dc dcompResponse
	if err := json.Unmarshal(w.Body.Bytes(), &dc); err != nil || len(dc.Posterior.Hist.Probs) == 0 || len(dc.Prior.Hist.Probs) == 0 {
		t.Errorf("dcomp response malformed: %v %s", err, w.Body.String())
	}

	w = post(t, h, "/v1/query/paccel", map[string]any{"service": names[0], "predicted_mean": 0.15}, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("paccel: %d %s", w.Code, w.Body.String())
	}
	var pa paccelResponse
	if err := json.Unmarshal(w.Body.Bytes(), &pa); err != nil || pa.ResponseTime.Mean <= 0 {
		t.Errorf("paccel response malformed: %v %s", err, w.Body.String())
	}

	w = post(t, h, "/v1/query/threshold", map[string]any{
		"service": names[0], "predicted_mean": 0.15, "thresholds": []float64{0.5, 1.0, 2.0},
	}, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("threshold: %d %s", w.Code, w.Body.String())
	}
	var th thresholdResponse
	if err := json.Unmarshal(w.Body.Bytes(), &th); err != nil || len(th.Results) != 3 {
		t.Fatalf("threshold response malformed: %v %s", err, w.Body.String())
	}
	for i := 1; i < len(th.Results); i++ {
		if th.Results[i].PExceed > th.Results[i-1].PExceed {
			t.Errorf("exceedance not monotone: %+v", th.Results)
		}
	}

	sys := simsvc.EDiaMoNDSystem()
	score, err := sys.GenerateDataset(50, stats.NewRNG(11))
	if err != nil {
		t.Fatal(err)
	}
	w = post(t, h, "/v1/query/health", map[string]any{"rows": score.Rows}, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("health: %d %s", w.Code, w.Body.String())
	}
	var hr healthResponse
	if err := json.Unmarshal(w.Body.Bytes(), &hr); err != nil || hr.RowsScored != 50 || hr.Report == nil {
		t.Errorf("health response malformed: %v", err)
	}
}

// waitFor polls cond for up to 2s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 2s")
		}
		time.Sleep(time.Millisecond)
	}
}

// flightLen reports the current number of in-flight coalescing keys.
func (s *Server) flightLen() int {
	s.flightMu.Lock()
	defer s.flightMu.Unlock()
	return len(s.flight)
}
