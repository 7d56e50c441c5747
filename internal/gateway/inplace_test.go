package gateway

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"kertbn/internal/health"
)

// TestGatewayConcurrentDiscreteMisses: variable elimination reads a
// generation's CPTs in place, so discrete misses running concurrently on
// one generation, alongside a health deploy of the same model (its own VE
// for P(D)), must return the bodies the same queries return one at a time.
// Run it under -race.
func TestGatewayConcurrentDiscreteMisses(t *testing.T) {
	m := testModel(t)
	names := m.Net.Names()
	type query struct {
		path string
		body any
	}
	var queries []query
	for i := 0; i < 4; i++ {
		for _, v := range []float64{0.1, 0.3} {
			queries = append(queries, query{"/v1/query/posterior", map[string]any{
				"target": names[m.DNode], "evidence": map[string]float64{names[i]: v},
			}})
		}
		queries = append(queries, query{"/v1/query/dcomp", map[string]any{
			"target": names[i], "observed": map[string]float64{names[m.DNode]: 0.8},
		}})
	}
	encode := func(body any) []byte {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	serve := func(h http.Handler, q query, payload []byte) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, q.path, bytes.NewReader(payload)))
		return w
	}
	payloads := make([][]byte, len(queries))
	want := make([][]byte, len(queries))
	seq := New(m, Options{}).Handler()
	for i, q := range queries {
		payloads[i] = encode(q.body)
		w := serve(seq, q, payloads[i])
		if w.Code != http.StatusOK {
			t.Fatalf("%s %s: %d %s", q.path, payloads[i], w.Code, w.Body.String())
		}
		want[i] = w.Body.Bytes()
	}

	h := New(m, Options{}).Handler()
	got := make([]*httptest.ResponseRecorder, len(queries))
	var deployErr error
	var wg sync.WaitGroup
	wg.Add(1 + len(queries))
	go func() {
		defer wg.Done()
		deployErr = health.NewMonitor(health.Config{}).SetModel(m)
	}()
	for i, q := range queries {
		go func() {
			defer wg.Done()
			got[i] = serve(h, q, payloads[i])
		}()
	}
	wg.Wait()
	if deployErr != nil {
		t.Fatalf("health deploy: %v", deployErr)
	}
	for i, w := range got {
		if w.Code != http.StatusOK || w.Header().Get("X-Kertbn-Cache") != "miss" {
			t.Fatalf("%s %s: %d, cache %q", queries[i].path, payloads[i], w.Code, w.Header().Get("X-Kertbn-Cache"))
		}
		if !bytes.Equal(w.Body.Bytes(), want[i]) {
			t.Errorf("%s %s: concurrent body %s, want the sequential %s", queries[i].path, payloads[i], w.Body.Bytes(), want[i])
		}
	}
}
