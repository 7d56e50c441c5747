package gateway

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"testing"

	"kertbn/internal/core"
	"kertbn/internal/simsvc"
	"kertbn/internal/stats"
)

// continuousModel builds a continuous eDiaMoND KERT model. Its parallel
// block keeps it off the exact Gaussian path, so every query below is
// answered by 20,000-sample likelihood weighting.
func continuousModel(t *testing.T) *core.Model {
	t.Helper()
	sys := simsvc.EDiaMoNDSystem()
	train, err := sys.GenerateDataset(400, stats.NewRNG(5))
	if err != nil {
		t.Fatalf("dataset: %v", err)
	}
	m, err := core.BuildKERT(core.KERTConfig{Workflow: sys.Workflow}, train)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return m
}

// TestGatewayContinuousSummaryBodies covers the Monte-Carlo routes' wire
// form: a summary of a few KB with no sample arrays, byte-identical across
// miss, hit and re-execution, whose ladder is the same seeded
// PosteriorBatch's Quantile and whose histogram is a distribution.
func TestGatewayContinuousSummaryBodies(t *testing.T) {
	m := continuousModel(t)
	s := New(m, Options{})
	h := s.Handler()
	names := m.Net.Names()
	d, svc := m.DNode, 3
	cases := []struct {
		route   string
		body    map[string]any
		key     string
		queries []core.Query
		dists   []string // body fields, parallel to queries
		limit   int
	}{
		{
			route: "posterior",
			body:  map[string]any{"target": names[d], "evidence": map[string]float64{names[svc]: 0.3}},
			key:   queryKey("posterior", 1, m.StructureHash(), d, 20000, map[int]float64{svc: 0.3}, ""),
			queries: []core.Query{
				{Target: d, Evidence: map[int]float64{svc: 0.3}},
			},
			dists: []string{"posterior"},
			limit: 4096,
		},
		{
			route: "paccel",
			body:  map[string]any{"service": names[svc], "predicted_mean": 0.2},
			key:   queryKey("paccel", 1, m.StructureHash(), d, 20000, map[int]float64{svc: 0.2}, ""),
			queries: []core.Query{
				{Target: d, Evidence: map[int]float64{svc: 0.2}},
			},
			dists: []string{"response_time"},
			limit: 4096,
		},
		{
			route: "dcomp",
			body:  map[string]any{"target": names[svc], "observed": map[string]float64{names[0]: 0.09, names[d]: 1.1}},
			key:   queryKey("dcomp", 1, m.StructureHash(), svc, 20000, map[int]float64{0: 0.09, d: 1.1}, ""),
			queries: []core.Query{
				{Target: svc, Evidence: map[int]float64{0: 0.09, d: 1.1}},
				{Target: svc},
			},
			dists: []string{"posterior", "prior"},
			limit: 8192,
		},
	}
	for _, c := range cases {
		path := "/v1/query/" + c.route
		miss := post(t, h, path, c.body, nil)
		if miss.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", c.route, miss.Code, miss.Body.String())
		}
		hit := post(t, h, path, c.body, nil)
		s.FlushResultCache()
		again := post(t, h, path, c.body, nil)
		if hit.Header().Get("X-Kertbn-Cache") != "hit" || again.Header().Get("X-Kertbn-Cache") != "miss" {
			t.Fatalf("%s: cache %q then %q, want hit then miss", c.route, hit.Header().Get("X-Kertbn-Cache"), again.Header().Get("X-Kertbn-Cache"))
		}
		body := miss.Body.Bytes()
		if !bytes.Equal(body, hit.Body.Bytes()) || !bytes.Equal(body, again.Body.Bytes()) {
			t.Fatalf("%s: miss, hit and re-execution bodies differ", c.route)
		}
		t.Logf("%s: %d B", c.route, len(body))
		if len(body) > c.limit {
			t.Errorf("%s: body is %d B, limit %d", c.route, len(body), c.limit)
		}
		if bytes.Contains(body, []byte(`"support"`)) {
			t.Errorf("%s: body still carries a support array", c.route)
		}

		var fields map[string]json.RawMessage
		if err := json.Unmarshal(body, &fields); err != nil {
			t.Fatalf("%s: decode: %v", c.route, err)
		}
		posts, err := core.PosteriorBatch(nil, m, c.queries, core.BatchOptions{
			NSamples: 20000, Workers: 1, RNG: stats.NewRNG(keySeed(c.key)),
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, field := range c.dists {
			var dist distJSON
			if err := json.Unmarshal(fields[field], &dist); err != nil {
				t.Fatalf("%s.%s: decode: %v", c.route, field, err)
			}
			checkDistJSON(t, c.route+"."+field, dist)
			if got, want := dist.Quantiles["p95"], posts[i].Quantile(0.95); got != want {
				t.Errorf("%s.%s: p95 %v, seeded PosteriorBatch Quantile(0.95) %v", c.route, field, got, want)
			}
		}
	}
}

// checkDistJSON asserts a rendered distribution's ladder is complete and
// non-decreasing and its histogram is a distribution over ascending edges.
func checkDistJSON(t *testing.T, what string, d distJSON) {
	t.Helper()
	if len(d.Quantiles) != len(core.SummaryPercents) {
		t.Fatalf("%s: %d quantiles, want %d", what, len(d.Quantiles), len(core.SummaryPercents))
	}
	prev := math.Inf(-1)
	for _, pc := range core.SummaryPercents {
		q, ok := d.Quantiles["p"+strconv.Itoa(pc)]
		if !ok || q < prev {
			t.Fatalf("%s: ladder not non-decreasing at p%d: %v", what, pc, d.Quantiles)
		}
		prev = q
	}
	if len(d.Hist.Edges) != len(d.Hist.Probs)+1 {
		t.Fatalf("%s: %d edges for %d bins", what, len(d.Hist.Edges), len(d.Hist.Probs))
	}
	sum := 0.0
	for i, p := range d.Hist.Probs {
		if p < 0 || d.Hist.Edges[i+1] < d.Hist.Edges[i] {
			t.Fatalf("%s: bin %d mass %v over [%v, %v]", what, i, p, d.Hist.Edges[i], d.Hist.Edges[i+1])
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("%s: histogram sums to %v", what, sum)
	}
}
