package graph

import (
	"testing"
	"testing/quick"
)

func mustEdge(t *testing.T, d *DAG, from, to int) {
	t.Helper()
	if err := d.AddEdge(from, to); err != nil {
		t.Fatalf("AddEdge(%d,%d): %v", from, to, err)
	}
}

func TestAddEdgeBasics(t *testing.T) {
	d := NewDAG(3)
	mustEdge(t, d, 0, 1)
	mustEdge(t, d, 1, 2)
	if !d.HasEdge(0, 1) || !d.HasEdge(1, 2) || d.HasEdge(0, 2) {
		t.Fatal("edge presence wrong")
	}
	if d.EdgeCount() != 2 {
		t.Fatalf("EdgeCount = %d", d.EdgeCount())
	}
}

func TestSelfLoopRejected(t *testing.T) {
	d := NewDAG(2)
	if err := d.AddEdge(1, 1); err == nil {
		t.Fatal("self loop should be rejected")
	}
}

func TestDuplicateEdgeRejected(t *testing.T) {
	d := NewDAG(2)
	mustEdge(t, d, 0, 1)
	if err := d.AddEdge(0, 1); err == nil {
		t.Fatal("duplicate edge should be rejected")
	}
}

func TestCycleRejected(t *testing.T) {
	d := NewDAG(3)
	mustEdge(t, d, 0, 1)
	mustEdge(t, d, 1, 2)
	if err := d.AddEdge(2, 0); err == nil {
		t.Fatal("cycle should be rejected")
	}
	// Two-node cycle too.
	if err := d.AddEdge(1, 0); err == nil {
		t.Fatal("2-cycle should be rejected")
	}
}

func TestParentsChildrenSorted(t *testing.T) {
	d := NewDAG(4)
	mustEdge(t, d, 2, 3)
	mustEdge(t, d, 0, 3)
	mustEdge(t, d, 1, 3)
	ps := d.Parents(3)
	if len(ps) != 3 || ps[0] != 0 || ps[1] != 1 || ps[2] != 2 {
		t.Fatalf("Parents = %v", ps)
	}
}

func TestTopoSortRespectsEdges(t *testing.T) {
	d := NewDAG(6)
	mustEdge(t, d, 5, 0)
	mustEdge(t, d, 5, 2)
	mustEdge(t, d, 4, 0)
	mustEdge(t, d, 4, 1)
	mustEdge(t, d, 2, 3)
	mustEdge(t, d, 3, 1)
	order := d.TopoSort()
	pos := make([]int, 6)
	for i, v := range order {
		pos[v] = i
	}
	for _, e := range d.Edges() {
		if pos[e[0]] >= pos[e[1]] {
			t.Fatalf("order %v violates edge %v", order, e)
		}
	}
}

func TestTopoSortDeterministic(t *testing.T) {
	build := func() *DAG {
		d := NewDAG(5)
		mustEdge(t, d, 0, 4)
		mustEdge(t, d, 1, 4)
		mustEdge(t, d, 2, 3)
		return d
	}
	a := build().TopoSort()
	b := build().TopoSort()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("TopoSort not deterministic")
		}
	}
}

func TestAddNode(t *testing.T) {
	d := NewDAG(1)
	id := d.AddNode()
	if id != 1 || d.N() != 2 {
		t.Fatalf("AddNode id=%d N=%d", id, d.N())
	}
	mustEdge(t, d, 0, 1)
}

func TestMoralize(t *testing.T) {
	// v-structure 0→2←1: moralization marries 0 and 1.
	d := NewDAG(3)
	mustEdge(t, d, 0, 2)
	mustEdge(t, d, 1, 2)
	m := Moralize(d)
	if !m.HasEdge(0, 2) || !m.HasEdge(1, 2) {
		t.Fatal("skeleton missing")
	}
	if !m.HasEdge(0, 1) {
		t.Fatal("marriage edge missing")
	}
}

func TestMinFillOrderingEliminatesAll(t *testing.T) {
	d := NewDAG(5)
	mustEdge(t, d, 0, 2)
	mustEdge(t, d, 1, 2)
	mustEdge(t, d, 2, 3)
	mustEdge(t, d, 2, 4)
	m := Moralize(d)
	order := MinFillOrdering(m, []int{0, 1, 2, 3, 4})
	if len(order) != 5 {
		t.Fatalf("ordering length %d", len(order))
	}
	seen := map[int]bool{}
	for _, v := range order {
		if seen[v] {
			t.Fatalf("duplicate %d in ordering", v)
		}
		seen[v] = true
	}
}

func TestMinFillOrderingSubset(t *testing.T) {
	d := NewDAG(4)
	mustEdge(t, d, 0, 1)
	mustEdge(t, d, 1, 2)
	mustEdge(t, d, 2, 3)
	m := Moralize(d)
	order := MinFillOrdering(m, []int{1, 2})
	if len(order) != 2 {
		t.Fatalf("subset ordering %v", order)
	}
	for _, v := range order {
		if v != 1 && v != 2 {
			t.Fatalf("unexpected node %d", v)
		}
	}
}

func TestUndirectedBasics(t *testing.T) {
	g := NewUndirected(3)
	g.AddEdge(0, 1)
	g.AddEdge(0, 1) // duplicate ok
	g.AddEdge(2, 2) // self-loop ignored
	if !g.HasEdge(1, 0) {
		t.Fatal("undirected edge must be symmetric")
	}
	if len(g.Neighbors(2)) != 0 {
		t.Fatal("self-loop must not make a neighbour")
	}
	nb := g.Neighbors(0)
	if len(nb) != 1 || nb[0] != 1 {
		t.Fatalf("Neighbors = %v", nb)
	}
}

// Property: a random DAG built by only adding edges i→j with i<j always
// topo-sorts into an order where every edge goes forward.
func TestRandomDAGTopoProperty(t *testing.T) {
	f := func(seed uint64) bool {
		n := 8
		d := NewDAG(n)
		s := seed
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				s = s*6364136223846793005 + 1442695040888963407
				if s%3 == 0 {
					if err := d.AddEdge(i, j); err != nil {
						return false
					}
				}
			}
		}
		order := d.TopoSort()
		pos := make([]int, n)
		for i, v := range order {
			pos[v] = i
		}
		for _, e := range d.Edges() {
			if pos[e[0]] >= pos[e[1]] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: AddEdge never lets a cycle in, regardless of insertion order.
func TestNoCycleProperty(t *testing.T) {
	f := func(seed uint64) bool {
		n := 6
		d := NewDAG(n)
		s := seed
		for k := 0; k < 30; k++ {
			s = s*6364136223846793005 + 1442695040888963407
			from := int(s % uint64(n))
			s = s*6364136223846793005 + 1442695040888963407
			to := int(s % uint64(n))
			_ = d.AddEdge(from, to) // errors allowed; cycles must not appear
		}
		// TopoSort panics if a cycle exists.
		defer func() { _ = recover() }()
		return len(d.TopoSort()) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
