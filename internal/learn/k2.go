package learn

import (
	"fmt"

	"kertbn/internal/graph"
	"kertbn/internal/stats"
)

// K2Options configures the K2 greedy structure-learning algorithm.
type K2Options struct {
	// Order is the node ordering K2 respects (parents of a node are chosen
	// among its predecessors in the ordering). Nil means natural order.
	Order []int
	// MaxParents bounds each node's parent-set size. Zero means no bound
	// (the full predecessor set may be used).
	MaxParents int
}

// K2Result holds a learned structure, its total score and the learning cost.
type K2Result struct {
	DAG   *graph.DAG
	Score float64
	Cost  Cost
}

// K2 runs the Cooper–Herskovits K2 algorithm: for each node (in the given
// ordering), greedily add the predecessor whose inclusion most improves the
// family score, stopping when no addition helps or MaxParents is reached.
// This — plus full parameter learning — is the paper's NRT-BN construction
// path, whose O((n+1)²) score sweeps produce the superlinear construction
// times of Figure 4.
func K2(specs []VarSpec, rows [][]float64, scorer Scorer, opts K2Options) (*K2Result, error) {
	n := len(specs)
	if n == 0 {
		return nil, fmt.Errorf("learn: K2 with no variables")
	}
	order := opts.Order
	if order == nil {
		order = make([]int, n)
		for i := range order {
			order[i] = i
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("learn: K2 ordering has %d entries, want %d", len(order), n)
	}
	seen := make([]bool, n)
	for _, v := range order {
		if v < 0 || v >= n || seen[v] {
			return nil, fmt.Errorf("learn: K2 ordering is not a permutation")
		}
		seen[v] = true
	}
	maxParents := opts.MaxParents
	if maxParents <= 0 {
		maxParents = n - 1
	}

	dag := graph.NewDAG(n)
	var total Cost
	totalScore := 0.0
	for pos, child := range order {
		predecessors := order[:pos]
		parents := []int{}
		bestScore, c := scorer.Score(rows, child, parents)
		total.Add(c)
		for len(parents) < maxParents {
			bestCand := -1
			bestCandScore := bestScore
			for _, cand := range predecessors {
				if containsInt(parents, cand) {
					continue
				}
				trial := append(append([]int(nil), parents...), cand)
				s, c := scorer.Score(rows, child, trial)
				total.Add(c)
				if s > bestCandScore {
					bestCandScore = s
					bestCand = cand
				}
			}
			if bestCand < 0 {
				break
			}
			parents = append(parents, bestCand)
			bestScore = bestCandScore
		}
		for _, p := range parents {
			if err := dag.AddEdge(p, child); err != nil {
				return nil, fmt.Errorf("learn: K2 internal edge error: %w", err)
			}
		}
		totalScore += bestScore
	}
	return &K2Result{DAG: dag, Score: totalScore, Cost: total}, nil
}

// K2RandomRestarts runs K2 with `restarts` random orderings (plus the
// natural ordering) and returns the best-scoring result. This is the
// "repeatedly run K2 with different random orderings" optimization the
// paper applies to NRT-BN in Section 5.3.
func K2RandomRestarts(specs []VarSpec, rows [][]float64, scorer Scorer, opts K2Options, restarts int, rng *stats.RNG) (*K2Result, error) {
	best, err := K2(specs, rows, scorer, opts)
	if err != nil {
		return nil, err
	}
	totalCost := best.Cost
	for r := 0; r < restarts; r++ {
		o := opts
		o.Order = rng.Perm(len(specs))
		res, err := K2(specs, rows, scorer, o)
		if err != nil {
			return nil, err
		}
		totalCost.Add(res.Cost)
		if res.Score > best.Score {
			best = res
		}
	}
	best.Cost = totalCost
	return best, nil
}

func containsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}
