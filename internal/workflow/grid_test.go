package workflow

import (
	"math"
	"testing"

	"kertbn/internal/stats"
)

// relabel returns a copy of n with every service index s replaced by
// perm[s], so a construct's children no longer come in service-id order.
func relabel(n *Node, perm []int) *Node {
	c := *n
	if n.kind == kindTask {
		c.service = perm[n.service]
		return &c
	}
	c.children = make([]*Node, len(n.children))
	for i, k := range n.children {
		c.children[i] = relabel(k, perm)
	}
	return &c
}

// TestGridMatchesResponseTime: over random workflows with every construct
// kind and services relabeled out of id order, single-task roots included,
// the grid's operands cover every grid point exactly once, and each point's
// fold of them equals ResponseTime of that point's inputs bit for bit.
func TestGridMatchesResponseTime(t *testing.T) {
	rng := stats.NewRNG(11)
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(6)
		m := 1 + rng.Intn(4)
		wf, err := Generate(n, GenOptions{PPar: 0.3, PChoice: 0.25, PLoop: 0.2, MaxBranch: 3}, rng)
		if err != nil {
			t.Fatal(err)
		}
		wf = relabel(wf, rng.Perm(n))
		vals := make([][]float64, n)
		for s := range vals {
			vals[s] = make([]float64, m)
			for d := range vals[s] {
				switch rng.Intn(8) {
				case 0:
					vals[s][d] = math.Copysign(0, -1)
				case 1:
					vals[s][d] = float64(rng.Intn(4))
				default:
					vals[s][d] = rng.Normal(0, 1) * math.Pow(10, float64(rng.Intn(7)-3))
				}
			}
		}
		g := NewGrid(wf, m)
		a, b := g.Eval(vals)
		ia, ib := g.Offsets()
		if len(a) != len(ia) || len(b) != len(ib) {
			t.Fatalf("%v: operands of %d and %d points, offsets %d and %d", wf, len(a), len(b), len(ia), len(ib))
		}
		seen := make([]bool, pow(m, n))
		x := make([]float64, n)
		for u := range a {
			for v := range b {
				idx := ia[u] + ib[v]
				if seen[idx] {
					t.Fatalf("%v: grid point %d reached twice", wf, idx)
				}
				seen[idx] = true
				for s, rest := n-1, idx; s >= 0; s-- {
					x[s] = vals[s][rest%m]
					rest /= m
				}
				got := a[u] + b[v]
				if g.Max() {
					got = a[u]
					if b[v] > got {
						got = b[v]
					}
				}
				if want := wf.ResponseTime(x); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%v at %v: grid %v, ResponseTime %v", wf, x, got, want)
				}
			}
		}
		for idx, ok := range seen {
			if !ok {
				t.Fatalf("%v: grid point %d never reached", wf, idx)
			}
		}
	}
}

var sinkGrid []float64

// TestGridEvalZeroAlloc: after the first, a lane's Eval over eDiaMoND's
// 6-bin grid, as the D-CPT generator runs once per sample lane, allocates
// nothing.
func TestGridEvalZeroAlloc(t *testing.T) {
	g := NewGrid(EDiaMoND(), 6)
	x := make([][]float64, 6)
	for s := range x {
		x[s] = make([]float64, 6)
		for d := range x[s] {
			x[s][d] = float64(s + d)
		}
	}
	g.Eval(x)
	allocs := testing.AllocsPerRun(100, func() {
		x[EDOgsaDaiRemote][0]++
		sinkGrid, _ = g.Eval(x)
	})
	if allocs != 0 {
		t.Errorf("Eval makes %v allocations per lane, want 0", allocs)
	}
}
