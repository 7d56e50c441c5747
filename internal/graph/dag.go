package graph

import (
	"fmt"
	"sort"
)

// DAG is a directed acyclic graph over nodes 0..N()-1. The zero value is
// unusable; construct with NewDAG.
type DAG struct {
	parents  [][]int
	children [][]int
}

// NewDAG returns an edgeless DAG with n nodes.
func NewDAG(n int) *DAG {
	if n < 0 {
		panic("graph: negative node count")
	}
	return &DAG{
		parents:  make([][]int, n),
		children: make([][]int, n),
	}
}

// N returns the number of nodes.
func (d *DAG) N() int { return len(d.parents) }

// AddNode appends a new node and returns its id.
func (d *DAG) AddNode() int {
	d.parents = append(d.parents, nil)
	d.children = append(d.children, nil)
	return len(d.parents) - 1
}

// HasEdge reports whether the edge from→to exists.
func (d *DAG) HasEdge(from, to int) bool {
	d.check(from)
	d.check(to)
	for _, c := range d.children[from] {
		if c == to {
			return true
		}
	}
	return false
}

// AddEdge inserts the edge from→to. It returns an error if the edge would
// create a cycle, is a self-loop, or already exists.
func (d *DAG) AddEdge(from, to int) error {
	d.check(from)
	d.check(to)
	if from == to {
		return fmt.Errorf("graph: self-loop on node %d", from)
	}
	if d.HasEdge(from, to) {
		return fmt.Errorf("graph: duplicate edge %d->%d", from, to)
	}
	if d.reachable(to, from) {
		return fmt.Errorf("graph: edge %d->%d would create a cycle", from, to)
	}
	d.children[from] = append(d.children[from], to)
	d.parents[to] = append(d.parents[to], from)
	return nil
}

// Parents returns a copy of the parent set of node v, sorted ascending.
func (d *DAG) Parents(v int) []int {
	d.check(v)
	out := append([]int(nil), d.parents[v]...)
	sort.Ints(out)
	return out
}

// EdgeCount returns the total number of edges.
func (d *DAG) EdgeCount() int {
	n := 0
	for _, cs := range d.children {
		n += len(cs)
	}
	return n
}

// Edges returns all edges as (from, to) pairs in deterministic order.
func (d *DAG) Edges() [][2]int {
	var out [][2]int
	for from := range d.children {
		cs := append([]int(nil), d.children[from]...)
		sort.Ints(cs)
		for _, to := range cs {
			out = append(out, [2]int{from, to})
		}
	}
	return out
}

func (d *DAG) check(v int) {
	if v < 0 || v >= len(d.parents) {
		panic(fmt.Sprintf("graph: node %d out of range [0,%d)", v, len(d.parents)))
	}
}

// reachable reports whether there is a directed path from src to dst.
func (d *DAG) reachable(src, dst int) bool {
	if src == dst {
		return true
	}
	seen := make([]bool, d.N())
	stack := []int{src}
	seen[src] = true
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range d.children[v] {
			if c == dst {
				return true
			}
			if !seen[c] {
				seen[c] = true
				stack = append(stack, c)
			}
		}
	}
	return false
}

// TopoSort returns a topological ordering of the nodes. Ties are broken by
// node id so the result is deterministic.
func (d *DAG) TopoSort() []int {
	n := d.N()
	indeg := make([]int, n)
	for v := 0; v < n; v++ {
		indeg[v] = len(d.parents[v])
	}
	// Min-heap-free deterministic Kahn: scan for the smallest ready node.
	ready := make([]int, 0, n)
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			ready = append(ready, v)
		}
	}
	order := make([]int, 0, n)
	for len(ready) > 0 {
		sort.Ints(ready)
		v := ready[0]
		ready = ready[1:]
		order = append(order, v)
		for _, c := range d.children[v] {
			indeg[c]--
			if indeg[c] == 0 {
				ready = append(ready, c)
			}
		}
	}
	if len(order) != n {
		// AddEdge guarantees acyclicity, so this indicates internal corruption.
		panic("graph: cycle detected in TopoSort")
	}
	return order
}
