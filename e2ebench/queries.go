package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"time"

	"kertbn/internal/stats"
)

// The query routes the catalogue covers, in catalogue rank order.
var routes = []string{"paccel", "posterior", "threshold", "dcomp"}

// query is one catalogue entry: a route and its JSON body.
type query struct {
	route int // index into routes
	body  []byte
}

// catalogue is the fixed query set, most popular first; entry i uses
// routes[i%len(routes)]. Values are fixed (not drawn from the seed), so
// every run asks the same questions and only their order varies.
var catalogue = func() []query {
	services := []string{"ogsa_dai_remote", "ogsa_dai_local", "image_locator_remote", "image_locator_local"}
	means := []float64{0.45, 0.35, 0.22, 0.10}
	var out []query
	for v := 0; v < 4; v++ {
		svc, mean := services[v], means[v]
		out = append(out,
			query{0, []byte(fmt.Sprintf(`{"service":%q,"predicted_mean":%g}`, svc, 0.8*mean))},
			query{1, []byte(fmt.Sprintf(`{"target":"D","evidence":{%q:%g}}`, svc, 1.2*mean))},
			query{2, []byte(fmt.Sprintf(`{"service":%q,"predicted_mean":%g,"thresholds":[0.8,1,1.2,1.5]}`, svc, 0.9*mean))},
			query{3, []byte(fmt.Sprintf(`{"target":%q,"observed":{"image_list":0.09,"work_list":0.14,"D":%g}}`, svc, 0.9+mean))},
		)
	}
	return out
}()

// popularity draws catalogue indexes with Zipf(s) weights over rank.
type popularity struct {
	cdf []float64
	rng *stats.RNG
}

func newPopularity(n int, s float64, rng *stats.RNG) *popularity {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += math.Pow(float64(i+1), -s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &popularity{cdf: cdf, rng: rng}
}

func (p *popularity) draw() int {
	u := p.rng.Float64()
	return sort.SearchFloat64s(p.cdf, u)
}

// answer is one gateway response.
type answer struct {
	status int
	cache  string // X-Kertbn-Cache: hit, miss or coalesced
	gen    string // X-Kertbn-Generation
	body   []byte
}

// ask sends one catalogue query over the pipeline's HTTP connection.
func (p *pipeline) ask(q query) (answer, error) {
	resp, err := p.client.Post(p.base+"/v1/query/"+routes[q.route], "application/json", bytes.NewReader(q.body))
	if err != nil {
		return answer{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return answer{}, err
	}
	return answer{
		status: resp.StatusCode,
		cache:  resp.Header.Get("X-Kertbn-Cache"),
		gen:    resp.Header.Get("X-Kertbn-Generation"),
		body:   body,
	}, nil
}

// timedQuery is one query's outcome as the load generator saw it.
type timedQuery struct {
	entry   int
	ok      bool // answered 200
	cache   string
	latency time.Duration // from the scheduled send time to the last byte
	late    time.Duration // actual minus scheduled send time
}

// queryLog collects timed queries and identity failures.
type queryLog struct {
	timed    []timedQuery
	sent     int64
	answered int64 // 200s
	problems []string
}

func (l *queryLog) failf(format string, args ...any) {
	if len(l.problems) < 20 {
		l.problems = append(l.problems, fmt.Sprintf(format, args...))
	}
}

// askTimed sends q, timing it from due (its scheduled send time).
func (p *pipeline) askTimed(l *queryLog, entry int, due time.Time) answer {
	sent := time.Now()
	a, err := p.ask(catalogue[entry])
	done := time.Now()
	l.sent++
	t := timedQuery{entry: entry, latency: done.Sub(due), late: sent.Sub(due)}
	switch {
	case err != nil:
		l.failf("query %d (%s): %v", entry, routes[catalogue[entry].route], err)
	case a.status != http.StatusOK:
		l.failf("query %d (%s): status %d: %s", entry, routes[catalogue[entry].route], a.status, bytes.TrimSpace(a.body))
	default:
		l.answered++
		t.ok = true
		t.cache = a.cache
	}
	l.timed = append(l.timed, t)
	return a
}

// probeOrder is one probe pass: every catalogue entry, and the paccel
// entries twice. Equal shares would put the median execution time on the
// boundary between the posterior and paccel times, which lie close
// together on the continuous model; with paccel at 40% it falls inside
// paccel's, and p90 inside dcomp's, the slowest 20%.
var probeOrder = func() []int {
	var out []int
	for i := range catalogue {
		out = append(out, i)
	}
	for i, q := range catalogue {
		if routes[q.route] == "paccel" {
			out = append(out, i)
		}
	}
	return out
}()

// probe asks every entry of probeOrder right after a result-cache flush
// (a miss that executes) and then again (a hit), with no ingest running.
// The hit must carry the miss's body. With reexec the entry is flushed and
// executed once more, which must reproduce the body.
func (p *pipeline) probe(l *queryLog, seen map[int]answer, reexec bool) {
	for _, i := range probeOrder {
		p.gw.FlushResultCache()
		miss := p.askTimed(l, i, time.Now())
		hit := p.askTimed(l, i, time.Now())
		if miss.status != http.StatusOK || hit.status != http.StatusOK {
			continue
		}
		if miss.cache != "miss" || hit.cache != "hit" {
			l.failf("query %d: cache %q then %q after a flush, want miss then hit", i, miss.cache, hit.cache)
		}
		l.same(seen, i, miss)
		l.same(seen, i, hit)
		if reexec {
			p.gw.FlushResultCache()
			if again := p.askTimed(l, i, time.Now()); again.status == http.StatusOK {
				l.same(seen, i, again)
			}
		}
	}
}

// same checks that a answers entry i with the body seen last for it in
// the same generation, then remembers a.
func (l *queryLog) same(seen map[int]answer, i int, a answer) {
	if prev, ok := seen[i]; ok && prev.gen == a.gen && !bytes.Equal(prev.body, a.body) {
		l.failf("query %d: generation %s answered it with two different bodies (%s then %s)", i, a.gen, prev.cache, a.cache)
	}
	seen[i] = a
}
