package graph

import "sort"

// Undirected is a simple undirected graph over dense integer nodes, used
// as the moral graph during elimination-ordering computation.
type Undirected struct {
	adj []map[int]bool
}

// NewUndirected returns an edgeless undirected graph with n nodes.
func NewUndirected(n int) *Undirected {
	g := &Undirected{adj: make([]map[int]bool, n)}
	for i := range g.adj {
		g.adj[i] = make(map[int]bool)
	}
	return g
}

// N returns the number of nodes.
func (g *Undirected) N() int { return len(g.adj) }

// AddEdge inserts an undirected edge (no-op for self-loops or duplicates).
func (g *Undirected) AddEdge(a, b int) {
	if a == b {
		return
	}
	g.adj[a][b] = true
	g.adj[b][a] = true
}

// HasEdge reports whether a and b are adjacent.
func (g *Undirected) HasEdge(a, b int) bool { return g.adj[a][b] }

// Neighbors returns the sorted neighbor list of v.
func (g *Undirected) Neighbors(v int) []int {
	out := make([]int, 0, len(g.adj[v]))
	for u := range g.adj[v] {
		out = append(out, u)
	}
	sort.Ints(out)
	return out
}

// Clone returns a deep copy.
func (g *Undirected) Clone() *Undirected {
	c := NewUndirected(g.N())
	for v, nb := range g.adj {
		for u := range nb {
			c.adj[v][u] = true
		}
	}
	return c
}

// Moralize returns the moral graph of a DAG: the undirected skeleton plus
// "marriage" edges between every pair of parents that share a child. The
// moral graph is the starting point for choosing variable-elimination
// orderings.
func Moralize(d *DAG) *Undirected {
	g := NewUndirected(d.N())
	for v := 0; v < d.N(); v++ {
		ps := d.Parents(v)
		for _, p := range ps {
			g.AddEdge(p, v)
		}
		for i := 0; i < len(ps); i++ {
			for j := i + 1; j < len(ps); j++ {
				g.AddEdge(ps[i], ps[j])
			}
		}
	}
	return g
}

// MinFillOrdering computes a variable-elimination ordering over the subset
// of nodes `eliminate` using the min-fill heuristic on graph g. Nodes not
// listed are never eliminated (they are treated as remaining). Ties are
// broken by node id for determinism. g is not modified.
func MinFillOrdering(g *Undirected, eliminate []int) []int {
	work := g.Clone()
	remaining := make(map[int]bool, len(eliminate))
	for _, v := range eliminate {
		remaining[v] = true
	}
	order := make([]int, 0, len(eliminate))
	for len(remaining) > 0 {
		best, bestFill := -1, -1
		// Deterministic scan order.
		cands := make([]int, 0, len(remaining))
		for v := range remaining {
			cands = append(cands, v)
		}
		sort.Ints(cands)
		for _, v := range cands {
			fill := fillCount(work, v)
			if best == -1 || fill < bestFill {
				best, bestFill = v, fill
			}
		}
		// Eliminate best: connect its neighbors pairwise, drop it.
		nb := work.Neighbors(best)
		for i := 0; i < len(nb); i++ {
			for j := i + 1; j < len(nb); j++ {
				work.AddEdge(nb[i], nb[j])
			}
		}
		for _, u := range nb {
			delete(work.adj[u], best)
		}
		work.adj[best] = make(map[int]bool)
		delete(remaining, best)
		order = append(order, best)
	}
	return order
}

// fillCount counts the fill-in edges that eliminating v would introduce.
func fillCount(g *Undirected, v int) int {
	nb := g.Neighbors(v)
	fill := 0
	for i := 0; i < len(nb); i++ {
		for j := i + 1; j < len(nb); j++ {
			if !g.HasEdge(nb[i], nb[j]) {
				fill++
			}
		}
	}
	return fill
}
