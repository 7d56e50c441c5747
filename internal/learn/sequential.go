package learn

import (
	"fmt"
	"math"

	"kertbn/internal/bn"
)

// SequentialUpdater folds new complete observations into a discrete
// network's CPTs by accumulating Dirichlet pseudo-counts — the
// Spiegelhalter–Lauritzen-style sequential updating the paper's Section 2
// discusses. Because the counts never forget, out-of-date observations
// linger in the updated model after the environment changes; the
// experiments package uses this implementation to demonstrate exactly the
// contamination that motivates windowed reconstruction instead.
type SequentialUpdater struct {
	net    *bn.Network
	counts [][]float64
	skip   map[int]bool
}

// NewSequentialUpdaterSkip wraps a fully discrete network whose tabular
// CPDs are refreshed in place as observations arrive. alpha seeds every
// cell's pseudo-count. The CPDs of the nodes in skip are left untouched —
// e.g. a KERT-BN's knowledge-given D node, so update-vs-rebuild
// comparisons hold the model class fixed.
func NewSequentialUpdaterSkip(net *bn.Network, alpha float64, skip map[int]bool) (*SequentialUpdater, error) {
	if alpha <= 0 {
		return nil, fmt.Errorf("learn: sequential updater needs alpha > 0")
	}
	u := &SequentialUpdater{net: net, counts: make([][]float64, net.N()), skip: skip}
	for v := 0; v < net.N(); v++ {
		if skip[v] {
			continue
		}
		node := net.Node(v)
		if node.Kind != bn.Discrete {
			return nil, fmt.Errorf("learn: sequential updating requires a discrete network; node %q is continuous", node.Name)
		}
		tab, ok := node.CPD.(*bn.Tabular)
		if !ok {
			return nil, fmt.Errorf("learn: node %q needs an initial tabular CPD", node.Name)
		}
		u.counts[v] = make([]float64, len(tab.P))
		for i := range u.counts[v] {
			u.counts[v][i] = alpha
		}
	}
	return u, nil
}

// Observe folds one complete row (discrete states, no missing cells) into
// the counts and refreshes the affected CPT rows.
func (u *SequentialUpdater) Observe(row []float64) error {
	if len(row) != u.net.N() {
		return fmt.Errorf("learn: row width %d != %d nodes", len(row), u.net.N())
	}
	for v := 0; v < u.net.N(); v++ {
		if math.IsNaN(row[v]) {
			return fmt.Errorf("learn: sequential updating needs complete rows (node %d missing)", v)
		}
	}
	for v := 0; v < u.net.N(); v++ {
		if u.skip[v] {
			continue
		}
		node := u.net.Node(v)
		tab := node.CPD.(*bn.Tabular)
		state := int(row[v])
		if state < 0 || state >= node.Card {
			return fmt.Errorf("learn: node %q state %d out of range", node.Name, state)
		}
		ps := u.net.Parents(v)
		pa := make([]int, len(ps))
		for i, p := range ps {
			pa[i] = int(row[p])
		}
		cfg := tab.ConfigIndex(pa)
		u.counts[v][cfg*tab.Card+state]++
		if err := tab.SetRow(cfg, u.counts[v][cfg*tab.Card:(cfg+1)*tab.Card]); err != nil {
			return err
		}
	}
	return nil
}

// ObserveBatch folds a batch of rows.
func (u *SequentialUpdater) ObserveBatch(rows [][]float64) error {
	for i, row := range rows {
		if err := u.Observe(row); err != nil {
			return fmt.Errorf("learn: batch row %d: %w", i, err)
		}
	}
	return nil
}
