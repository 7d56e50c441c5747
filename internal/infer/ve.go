package infer

import (
	"fmt"
	"time"

	"kertbn/internal/bn"
	"kertbn/internal/factor"
	"kertbn/internal/graph"
	"kertbn/internal/obs"
)

func init() {
	obs.RegisterPrefix("infer", "internal/infer")
}

// Per-engine inference metrics (the cross-engine "infer.query" span lives
// one level up, in core's posterior funnel).
var (
	veQueries  = obs.C("infer.ve.queries")
	veSeconds  = obs.H("infer.ve.seconds")
	veEvidence = obs.HCount("infer.ve.evidence_vars")
)

// DiscreteEvidence maps node id → observed state.
type DiscreteEvidence map[int]int

// Posterior computes the exact posterior marginal P(query | evidence) for a
// fully discrete network using variable elimination with a min-fill
// ordering. The returned factor has the query variable as its only scope
// variable and is normalized.
func Posterior(n *bn.Network, query int, ev DiscreteEvidence) (*factor.Factor, error) {
	start := time.Now()
	defer func() { veSeconds.Observe(time.Since(start).Seconds()) }()
	veQueries.Inc()
	veEvidence.Observe(float64(len(ev)))
	if query < 0 || query >= n.N() {
		return nil, fmt.Errorf("infer: query node %d out of range", query)
	}
	if _, isEv := ev[query]; isEv {
		return nil, fmt.Errorf("infer: query node %d is also evidence", query)
	}
	factors, err := networkFactors(n)
	if err != nil {
		return nil, err
	}
	// Apply evidence.
	for v, val := range ev {
		node := n.Node(v)
		if node.Kind != bn.Discrete {
			return nil, fmt.Errorf("infer: evidence on non-discrete node %q", node.Name)
		}
		if val < 0 || val >= node.Card {
			return nil, fmt.Errorf("infer: evidence state %d out of range for %q (card %d)", val, node.Name, node.Card)
		}
		for i, f := range factors {
			if f.Contains(v) {
				factors[i] = f.Reduce(v, val)
			}
		}
	}
	// Eliminate everything except query and evidence.
	var elim []int
	for v := 0; v < n.N(); v++ {
		if v == query {
			continue
		}
		if _, isEv := ev[v]; isEv {
			continue
		}
		elim = append(elim, v)
	}
	order := graph.MinFillOrdering(graph.Moralize(n.DAG()), elim)
	for _, v := range order {
		factors = eliminate(factors, v)
	}
	// Multiply what remains.
	result := factor.Scalar(1)
	for _, f := range factors {
		result = factor.Product(result, f)
	}
	if len(result.Vars) != 1 || result.Vars[0] != query {
		return nil, fmt.Errorf("infer: internal error: residual scope %v, want [%d]", result.Vars, query)
	}
	if result.Normalize() == 0 {
		return nil, fmt.Errorf("infer: evidence has zero probability")
	}
	return result, nil
}

// networkFactors renders every node's tabular CPD as a factor.
func networkFactors(n *bn.Network) ([]*factor.Factor, error) {
	out := make([]*factor.Factor, 0, n.N())
	for v := 0; v < n.N(); v++ {
		node := n.Node(v)
		tab, ok := node.CPD.(*bn.Tabular)
		if !ok {
			return nil, fmt.Errorf("infer: node %q has non-tabular CPD %T; variable elimination needs a fully discrete network", node.Name, node.CPD)
		}
		out = append(out, tab.Factor(v, n.Parents(v)))
	}
	return out, nil
}

// eliminate sums variable v out of the product of all factors mentioning
// it, in one fused pass that never builds that product in memory.
func eliminate(factors []*factor.Factor, v int) []*factor.Factor {
	var touched []*factor.Factor
	rest := factors[:0]
	for _, f := range factors {
		if f.Contains(v) {
			touched = append(touched, f)
		} else {
			rest = append(rest, f)
		}
	}
	if len(touched) == 0 {
		return factors
	}
	return append(rest, factor.SumProduct(touched, v))
}
