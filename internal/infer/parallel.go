package infer

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"kertbn/internal/bn"
	"kertbn/internal/obs"
	"kertbn/internal/pool"
	"kertbn/internal/stats"
)

var (
	lwParQueries = obs.C("infer.lw.par.queries")
	lwParSeconds = obs.H("infer.lw.par.seconds")
	lwParWorkers = obs.HCount("infer.lw.par.workers")
)

// lwShardSize is the fixed number of samples per shard. Sharding is a
// function of nSamples alone — never of the worker count — so the set of
// (shard, RNG stream) pairs, and therefore the output, is identical no
// matter how many workers drain the shard queue.
const lwShardSize = 2048

// QueryPlan is a compiled likelihood-weighting query: the network unpacked
// into flat, allocation-free per-node state (CPDs, parent index lists, the
// evidence *shape* — which nodes are clamped, not their values) in
// topological order. Compiling once per query shape and running many
// samples (or many requests with different evidence values) against the
// plan avoids the per-sample parent-list copies, sorts and map lookups of
// the naive loop — the optimization that makes the sharded path beat the
// serial one even on a single core, and the unit the gateway's plan cache
// stores per (structure hash, query shape).
//
// A plan is read-only after compile, so shards and concurrent requests may
// share it; evidence values are supplied per run. A plan embeds the
// network's CPD objects, so it is valid only for the model generation it
// was compiled from.
// Per-node CPD dispatch kinds in a compiled plan. Tabular and
// linear-Gaussian families — the two the learner fits — are flattened into
// the plan's parameter arrays so the per-sample loop needs no interface
// dispatch or pointer chasing; everything else (DetFunc, custom CPDs) keeps
// the interface call.
const (
	planOther byte = iota
	planTabular
	planLG
)

type QueryPlan struct {
	nNodes  int
	query   int
	order   []int
	cpds    []bn.CPD
	parents [][]int
	isEv    []bool
	evNodes []int // sorted clamped node ids (the query shape)
	maxPar  int

	// Flat CPD parameters: per-node kind tags plus the tabular CPTs, parent
	// cardinalities and LG coefficients of all flattened nodes concatenated
	// into single arrays with per-node offsets. Parameters are copied out of
	// the CPDs at compile time (cache-local, and immune to later CPD
	// mutation); the flat path replays the exact arithmetic of the CPD
	// methods, so results stay bit-identical to the interface path.
	kind      []byte
	tabCard   []int // planTabular: node cardinality
	tabPCOff  []int // planTabular: offset into flatPC (len = len(parents))
	tabPOff   []int // planTabular: offset into flatP (cells P[cfg*card+state])
	flatPC    []int
	flatP     []float64
	lgIcpt    []float64 // planLG: intercept
	lgSigma   []float64 // planLG: sigma
	lgCoefOff []int     // planLG: offset into flatCoef (len = len(parents))
	flatCoef  []float64
}

// CompileQueryPlan compiles the likelihood-weighting plan for one query
// node and one evidence shape (the set of clamped node ids; values come
// later, per run). The same plan answers every query with this shape
// against the same network.
func CompileQueryPlan(n *bn.Network, query int, evNodes []int) (*QueryPlan, error) {
	if query < 0 || query >= n.N() {
		return nil, fmt.Errorf("infer: query node %d out of range", query)
	}
	N := n.N()
	p := &QueryPlan{
		nNodes:  N,
		query:   query,
		order:   n.TopoOrder(),
		cpds:    make([]bn.CPD, N),
		parents: make([][]int, N),
		isEv:    make([]bool, N),
		evNodes: append([]int(nil), evNodes...),
	}
	sort.Ints(p.evNodes)
	p.kind = make([]byte, N)
	p.tabCard = make([]int, N)
	p.tabPCOff = make([]int, N)
	p.tabPOff = make([]int, N)
	p.lgIcpt = make([]float64, N)
	p.lgSigma = make([]float64, N)
	p.lgCoefOff = make([]int, N)
	for id := 0; id < N; id++ {
		p.cpds[id] = n.Node(id).CPD
		p.parents[id] = n.Parents(id)
		if len(p.parents[id]) > p.maxPar {
			p.maxPar = len(p.parents[id])
		}
		switch c := p.cpds[id].(type) {
		case *bn.Tabular:
			p.kind[id] = planTabular
			p.tabCard[id] = c.Card
			p.tabPCOff[id] = len(p.flatPC)
			p.flatPC = append(p.flatPC, c.ParentCard...)
			p.tabPOff[id] = len(p.flatP)
			p.flatP = append(p.flatP, c.P...)
		case *bn.LinearGaussian:
			p.kind[id] = planLG
			p.lgIcpt[id] = c.Intercept
			p.lgSigma[id] = c.Sigma
			p.lgCoefOff[id] = len(p.flatCoef)
			p.flatCoef = append(p.flatCoef, c.Coef...)
		}
	}
	for i, id := range p.evNodes {
		if id < 0 || id >= N {
			return nil, fmt.Errorf("infer: evidence node %d out of range", id)
		}
		if id == query {
			return nil, fmt.Errorf("infer: query node %d is also evidence", query)
		}
		if i > 0 && p.evNodes[i-1] == id {
			return nil, fmt.Errorf("infer: duplicate evidence node %d", id)
		}
		p.isEv[id] = true
	}
	return p, nil
}

// evValues spreads an evidence map into a node-indexed value vector,
// erroring unless the map's keys are exactly the plan's evidence shape.
func (p *QueryPlan) evValues(ev ContinuousEvidence) ([]float64, error) {
	if len(ev) != len(p.evNodes) {
		return nil, fmt.Errorf("infer: plan compiled for %d evidence nodes, got %d", len(p.evNodes), len(ev))
	}
	evVal := make([]float64, p.nNodes)
	for id, v := range ev {
		if id < 0 || id >= p.nNodes || !p.isEv[id] {
			return nil, fmt.Errorf("infer: evidence node %d not in the plan's shape", id)
		}
		evVal[id] = v
	}
	return evVal, nil
}

// runScratch holds the per-sample buffers one run loop reuses. Hoisting it
// out of run makes repeated runs (and therefore each sampled row)
// allocation-free; a scratch belongs to one goroutine at a time.
type runScratch struct {
	row, pbuf []float64
}

func (sc *runScratch) ensure(p *QueryPlan) {
	if cap(sc.row) < p.nNodes {
		sc.row = make([]float64, p.nNodes)
	}
	sc.row = sc.row[:p.nNodes]
	if cap(sc.pbuf) < p.maxPar {
		sc.pbuf = make([]float64, p.maxPar)
	}
	sc.pbuf = sc.pbuf[:p.maxPar]
}

// run draws nSamples weighted samples against the plan, appending surviving
// query values and log weights to the passed slices (reused across shards
// of one worker only, never shared). evVal is the node-indexed evidence
// value vector (only positions where isEv holds are read).
//
// The inner loop dispatches on the plan's flat parameter arrays for tabular
// and linear-Gaussian nodes — replaying the exact arithmetic (and RNG draw
// sequence) of the CPD methods with no interface calls, parent-buffer fills
// or allocations — and falls back to the CPD interface for other families.
func (p *QueryPlan) run(rng *stats.RNG, nSamples int, evVal []float64, values, logws []float64, sc *runScratch) ([]float64, []float64) {
	sc.ensure(p)
	row, pbuf := sc.row, sc.pbuf
	for s := 0; s < nSamples; s++ {
		logW := 0.0
		for _, id := range p.order {
			ps := p.parents[id]
			switch p.kind[id] {
			case planTabular:
				card := p.tabCard[id]
				pcs := p.flatPC[p.tabPCOff[id] : p.tabPCOff[id]+len(ps)]
				cfg := 0
				for k, pid := range ps {
					st := int(row[pid])
					if st < 0 || st >= pcs[k] {
						panic(fmt.Sprintf("bn: parent state %d out of range (card %d)", st, pcs[k]))
					}
					cfg = cfg*pcs[k] + st
				}
				base := p.tabPOff[id] + cfg*card
				if p.isEv[id] {
					x := evVal[id]
					st := int(x)
					if st < 0 || st >= card {
						panic(fmt.Sprintf("bn: state %d out of range (card %d)", st, card))
					}
					row[id] = x
					if pr := p.flatP[base+st]; pr <= 0 {
						logW += math.Inf(-1)
					} else {
						logW += math.Log(pr)
					}
				} else {
					row[id] = float64(rng.Categorical(p.flatP[base : base+card]))
				}
			case planLG:
				m := p.lgIcpt[id]
				coef := p.flatCoef[p.lgCoefOff[id] : p.lgCoefOff[id]+len(ps)]
				for k, pid := range ps {
					m += coef[k] * row[pid]
				}
				if p.isEv[id] {
					row[id] = evVal[id]
					logW += stats.NormalLogPDF(evVal[id], m, p.lgSigma[id])
				} else {
					row[id] = rng.Normal(m, p.lgSigma[id])
				}
			default:
				pv := pbuf[:len(ps)]
				for k, pid := range ps {
					pv[k] = row[pid]
				}
				if p.isEv[id] {
					row[id] = evVal[id]
					logW += p.cpds[id].LogProb(evVal[id], pv)
				} else {
					row[id] = p.cpds[id].Sample(rng, pv)
				}
			}
		}
		if math.IsInf(logW, -1) {
			continue // impossible sample under evidence
		}
		values = append(values, row[p.query])
		logws = append(logws, logW)
	}
	return values, logws
}

// Serial draws nSamples weighted samples against the plan with one
// sequential pass over the caller's rng — the exact draw sequence of
// LikelihoodWeighting, so for a given (network, query, evidence, rng state)
// the two are bit-for-bit identical; only compilation is hoisted out. A nil
// rng defaults to seed 1.
func (p *QueryPlan) Serial(ev ContinuousEvidence, nSamples int, rng *stats.RNG) (*WeightedSamples, error) {
	ws := &WeightedSamples{}
	if err := p.SerialInto(ws, ev, nSamples, rng); err != nil {
		return nil, err
	}
	return ws, nil
}

// SerialInto is Serial writing into dst: dst.Values and dst.Weights are
// truncated and the run appends to them, growing them only when their
// capacity is below nSamples. A caller that keeps dst across runs
// therefore allocates no sample slices once they have grown. On error
// dst's contents are unspecified.
func (p *QueryPlan) SerialInto(dst *WeightedSamples, ev ContinuousEvidence, nSamples int, rng *stats.RNG) error {
	start := time.Now()
	defer func() { lwSeconds.Observe(time.Since(start).Seconds()) }()
	lwQueries.Inc()
	lwSamples.Observe(float64(nSamples))
	if nSamples <= 0 {
		return fmt.Errorf("infer: nSamples must be positive, got %d", nSamples)
	}
	evVal, err := p.evValues(ev)
	if err != nil {
		return err
	}
	if rng == nil {
		rng = stats.NewRNG(1)
	}
	if cap(dst.Values) < nSamples {
		dst.Values = make([]float64, 0, nSamples)
	}
	if cap(dst.Weights) < nSamples {
		dst.Weights = make([]float64, 0, nSamples)
	}
	var sc runScratch
	dst.Values, dst.Weights = p.run(rng, nSamples, evVal, dst.Values[:0], dst.Weights[:0], &sc)
	if len(dst.Values) == 0 {
		return fmt.Errorf("infer: all %d samples had zero evidence likelihood", nSamples)
	}
	normalizeLogWeights(dst.Weights)
	return nil
}

// Parallel is the sharded run: nSamples are cut into fixed-size shards,
// shard s draws from the independent stream rng.Split(s), and up to workers
// goroutines (workers <= 0 means GOMAXPROCS) drain the shard queue over the
// shared plan. Results are assembled in shard order and normalized
// globally, so for a fixed rng state the output is bit-for-bit identical at
// any worker count — only wall-clock changes. A nil rng defaults to seed 1.
//
// ctx cancels the remaining shards; the error is then ctx.Err().
func (p *QueryPlan) Parallel(ctx context.Context, ev ContinuousEvidence, nSamples, workers int, rng *stats.RNG) (*WeightedSamples, error) {
	start := time.Now()
	defer func() { lwParSeconds.Observe(time.Since(start).Seconds()) }()
	lwParQueries.Inc()
	lwParWorkers.Observe(float64(pool.Size(workers)))
	if nSamples <= 0 {
		return nil, fmt.Errorf("infer: nSamples must be positive, got %d", nSamples)
	}
	evVal, err := p.evValues(ev)
	if err != nil {
		return nil, err
	}
	if rng == nil {
		rng = stats.NewRNG(1)
	}
	nShards := (nSamples + lwShardSize - 1) / lwShardSize
	shardVals := make([][]float64, nShards)
	shardLogs := make([][]float64, nShards)
	err = pool.ForEach(ctx, "infer.lw", nShards, workers, func(s int) error {
		cnt := lwShardSize
		if s == nShards-1 {
			cnt = nSamples - s*lwShardSize
		}
		var sc runScratch
		shardVals[s], shardLogs[s] = p.run(rng.Split(uint64(s)), cnt, evVal, nil, nil, &sc)
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := &WeightedSamples{
		Values:  make([]float64, 0, nSamples),
		Weights: make([]float64, 0, nSamples),
	}
	for s := 0; s < nShards; s++ {
		out.Values = append(out.Values, shardVals[s]...)
		out.Weights = append(out.Weights, shardLogs[s]...)
	}
	if len(out.Values) == 0 {
		return nil, fmt.Errorf("infer: all %d samples had zero evidence likelihood", nSamples)
	}
	normalizeLogWeights(out.Weights)
	return out, nil
}

// evidenceNodeIDs extracts the sorted node-id set of an evidence map.
func evidenceNodeIDs(ev ContinuousEvidence) []int {
	ids := make([]int, 0, len(ev))
	for id := range ev {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// LikelihoodWeightingParallel is the sharded counterpart of
// LikelihoodWeighting: compile the query plan, then QueryPlan.Parallel.
// Callers answering the same query shape repeatedly should compile (and
// cache) the plan once instead.
func LikelihoodWeightingParallel(ctx context.Context, n *bn.Network, query int, ev ContinuousEvidence, nSamples, workers int, rng *stats.RNG) (*WeightedSamples, error) {
	plan, err := CompileQueryPlan(n, query, evidenceNodeIDs(ev))
	if err != nil {
		return nil, err
	}
	return plan.Parallel(ctx, ev, nSamples, workers, rng)
}
