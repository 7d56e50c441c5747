package bn

import (
	"fmt"
	"math"

	"kertbn/internal/factor"
	"kertbn/internal/stats"
)

// Tabular is a conditional probability table for a discrete node with
// discrete parents. Rows are indexed by the parent configuration (row-major
// over ParentCard, parents in sorted-id order as the owning Network reports
// them) and columns by the node's state.
type Tabular struct {
	// Card is the node's state count.
	Card int
	// ParentCard holds each parent's state count, in parent order.
	ParentCard []int
	// P holds probabilities: P[cfg*Card + state]. Every row sums to 1.
	P []float64
}

// NewTabular allocates a CPT with uniform rows.
func NewTabular(card int, parentCard []int) *Tabular {
	if card < 2 {
		panic(fmt.Sprintf("bn: tabular CPD needs card >= 2, got %d", card))
	}
	rows := 1
	for _, c := range parentCard {
		if c < 1 {
			panic("bn: tabular CPD with non-positive parent cardinality")
		}
		rows *= c
	}
	t := &Tabular{
		Card:       card,
		ParentCard: append([]int(nil), parentCard...),
		P:          make([]float64, rows*card),
	}
	u := 1 / float64(card)
	for i := range t.P {
		t.P[i] = u
	}
	return t
}

// Rows returns the number of parent configurations.
func (t *Tabular) Rows() int { return len(t.P) / t.Card }

// NumParents implements CPD.
func (t *Tabular) NumParents() int { return len(t.ParentCard) }

// ConfigIndex converts a parent assignment to a row index.
func (t *Tabular) ConfigIndex(parents []int) int {
	if len(parents) != len(t.ParentCard) {
		panic("bn: tabular parent arity mismatch")
	}
	idx := 0
	for i, p := range parents {
		if p < 0 || p >= t.ParentCard[i] {
			panic(fmt.Sprintf("bn: parent state %d out of range (card %d)", p, t.ParentCard[i]))
		}
		idx = idx*t.ParentCard[i] + p
	}
	return idx
}

// ConfigAssignment converts a row index back to a parent assignment.
func (t *Tabular) ConfigAssignment(cfg int) []int {
	out := make([]int, len(t.ParentCard))
	for i := len(t.ParentCard) - 1; i >= 0; i-- {
		out[i] = cfg % t.ParentCard[i]
		cfg /= t.ParentCard[i]
	}
	return out
}

// SetRow assigns the distribution for one parent configuration. The row is
// normalized; an all-zero row is rejected.
func (t *Tabular) SetRow(cfg int, probs []float64) error {
	if len(probs) != t.Card {
		return fmt.Errorf("bn: row length %d != card %d", len(probs), t.Card)
	}
	s := 0.0
	for _, p := range probs {
		if p < 0 || math.IsNaN(p) {
			return fmt.Errorf("bn: negative or NaN probability %g", p)
		}
		s += p
	}
	if s <= 0 {
		return fmt.Errorf("bn: all-zero CPT row %d", cfg)
	}
	base := cfg * t.Card
	for i, p := range probs {
		t.P[base+i] = p / s
	}
	return nil
}

// Prob returns P(state | parent configuration).
func (t *Tabular) Prob(state int, parents []int) float64 {
	if state < 0 || state >= t.Card {
		panic(fmt.Sprintf("bn: state %d out of range (card %d)", state, t.Card))
	}
	return t.P[t.ConfigIndex(parents)*t.Card+state]
}

// configIndexF is ConfigIndex over float64-encoded parent states, computed
// with the same mixed-radix recurrence but no intermediate []int — the
// allocation-free form the per-row scoring and sampling paths use. Range
// violations panic exactly as ConfigIndex does.
func (t *Tabular) configIndexF(parents []float64) int {
	if len(parents) != len(t.ParentCard) {
		panic("bn: tabular parent arity mismatch")
	}
	idx := 0
	for i, pf := range parents {
		p := int(pf)
		if p < 0 || p >= t.ParentCard[i] {
			panic(fmt.Sprintf("bn: parent state %d out of range (card %d)", p, t.ParentCard[i]))
		}
		idx = idx*t.ParentCard[i] + p
	}
	return idx
}

// LogProb implements CPD. x and parents must hold integer-valued states.
// The lookup is allocation-free: it indexes P directly via configIndexF.
func (t *Tabular) LogProb(x float64, parents []float64) float64 {
	s := int(x)
	if s < 0 || s >= t.Card {
		panic(fmt.Sprintf("bn: state %d out of range (card %d)", s, t.Card))
	}
	p := t.P[t.configIndexF(parents)*t.Card+s]
	if p <= 0 {
		return math.Inf(-1)
	}
	return math.Log(p)
}

// Sample implements CPD, drawing from the configuration's row in place.
func (t *Tabular) Sample(rng *stats.RNG, parents []float64) float64 {
	base := t.configIndexF(parents) * t.Card
	return float64(rng.Categorical(t.P[base : base+t.Card]))
}

// Factor renders the CPT as a discrete factor over (node, parents) given
// the node's variable id and its parent ids (sorted ascending, matching the
// owning Network). P is already row-major over (parents..., node), so this
// is a strided copy of P, and a plain copy when the node id exceeds every
// parent id, as in every KERT-BN. Used by variable elimination.
func (t *Tabular) Factor(nodeID int, parentIDs []int) *factor.Factor {
	if len(parentIDs) != len(t.ParentCard) {
		panic("bn: Factor parent arity mismatch")
	}
	vars := append(append([]int(nil), parentIDs...), nodeID)
	card := append(append([]int(nil), t.ParentCard...), t.Card)
	return factor.FromTable(vars, card, t.P)
}
