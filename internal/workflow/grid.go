package workflow

import (
	"fmt"
	"math"
)

// Grid evaluates ResponseTime at every point of a grid: each service takes
// each of its m point values, and the grid's points are ordered row-major
// over the sorted service ids, the last fastest. It is built for callers
// that need f over a whole product of per-service values, such as the
// discrete D-CPT generator, where every parent-bin combination is one grid
// point.
//
// Every construct's output is a tensor over its subtree's services,
// row-major over their sorted ids, m values each. A child folds into its
// parent's running tensor by a broadcast walk over the union of their
// services, with ResponseTime's operations in its order: the running
// tensor starts as the scalar 0.0 for a sequence or choice and −Inf for a
// parallel block, a choice branch contributes float64(p·x), and a loop
// divides by 1−p. Every grid point therefore equals ResponseTime bit for
// bit.
//
// Eval stops before the root's last fold and returns its two operands, a
// over one set of services and b over the rest. f at the grid point with
// index ia[u]+ib[v] (see Offsets) is a[u]+b[v], or max(a[u], b[v]) when
// Max reports a parallel root; "max" is ResponseTime's "b if b > a, else
// a". For a one-child construct, a is its starting scalar; a task or loop
// root gets a = {−Inf} and Max, which leaves b unchanged. The split lets a
// caller use that the last fold is non-decreasing in each operand without
// ever materializing f at every point.
type Grid struct {
	m      int
	leaf   []int       // service id → its task's tensor, or -1
	bufs   [][]float64 // tensors by id; a task's is the vector Eval was given
	steps  []gridStep
	a, b   int // tensor ids of the root's last-fold operands
	max    bool
	ia, ib []int
}

type gridOp int

const (
	opAdd gridOp = iota // x + y
	opMax               // y if y > x, else x
	opMul               // float64(k·y), a choice branch
	opDiv               // y / k, a loop body
)

// gridStep computes tensor dst from tensors x and y. Binary steps read
// x[offX[o]] and y[offY[o]] for each point o of dst; unary steps map y
// elementwise and ignore x.
type gridStep struct {
	op         gridOp
	dst, x, y  int
	k          float64
	offX, offY []int
}

// NewGrid compiles the workflow rooted at root for evaluation over a grid
// of points values per service.
func NewGrid(root *Node, points int) *Grid {
	if points < 1 {
		panic(fmt.Sprintf("workflow: NewGrid needs points >= 1, got %d", points))
	}
	svcs := root.Services()
	g := &Grid{m: points, leaf: make([]int, svcs[len(svcs)-1]+1)}
	for s := range g.leaf {
		g.leaf[s] = -1
	}
	// The root's operands: the running tensor before its last child and
	// that child's (weighted) output, or −Inf and the whole root.
	var sa, sb []int
	switch root.kind {
	case kindSeq, kindPar, kindChoice:
		last := len(root.children) - 1
		g.a, sa = g.fold(root, last)
		g.b, sb = g.branch(root, last)
		g.max = root.kind == kindPar
	default:
		g.a = g.scalar(math.Inf(-1))
		g.b, sb = g.compile(root)
		g.max = true
	}
	g.ia = offsets(points, strides(svcs, sa, points))
	g.ib = offsets(points, strides(svcs, sb, points))
	return g
}

// Max reports whether the root's last fold takes the max of its operands;
// otherwise it adds them.
func (g *Grid) Max() bool { return g.max }

// Offsets returns the grid index contributed by each point of Eval's a and
// b: the grid point combining a[u] and b[v] has index ia[u]+ib[v]. The
// slices belong to the grid.
func (g *Grid) Offsets() (ia, ib []int) { return g.ia, g.ib }

// Eval folds f over the grid in which service s takes the values x[s], each
// of length points, up to the root's last fold, and returns its operands.
// They belong to the grid (b may be x's own vector for a task root) and
// stay valid until the next Eval. Eval allocates nothing.
func (g *Grid) Eval(x [][]float64) (a, b []float64) {
	for s, id := range g.leaf {
		if id < 0 {
			continue
		}
		if len(x[s]) != g.m {
			panic(fmt.Sprintf("workflow: Grid.Eval got %d values for service %d, want %d", len(x[s]), s, g.m))
		}
		g.bufs[id] = x[s]
	}
	for i := range g.steps {
		st := &g.steps[i]
		dst, y := g.bufs[st.dst], g.bufs[st.y]
		switch st.op {
		case opAdd:
			x := g.bufs[st.x]
			for o, ox := range st.offX {
				dst[o] = x[ox] + y[st.offY[o]]
			}
		case opMax:
			x := g.bufs[st.x]
			for o, ox := range st.offX {
				m, v := x[ox], y[st.offY[o]]
				if v > m {
					m = v
				}
				dst[o] = m
			}
		case opMul:
			for o, v := range y {
				// The conversion rounds the product, as ResponseTime's does.
				dst[o] = float64(st.k * v)
			}
		case opDiv:
			for o, v := range y {
				dst[o] = v / st.k
			}
		}
	}
	return g.bufs[g.a], g.bufs[g.b]
}

// compile emits the steps that compute n's output tensor and returns its
// id and services.
func (g *Grid) compile(n *Node) (int, []int) {
	switch n.kind {
	case kindTask:
		id := g.add(nil) // Eval supplies the vector
		g.leaf[n.service] = id
		return id, []int{n.service}
	case kindLoop:
		c, svcs := g.compile(n.children[0])
		return g.unary(opDiv, 1-n.loopP, c, svcs), svcs
	}
	return g.fold(n, len(n.children))
}

// fold emits the steps that fold n's first k children into its running
// tensor and returns that tensor's id and services.
func (g *Grid) fold(n *Node, k int) (int, []int) {
	start := 0.0
	op := opAdd
	if n.kind == kindPar {
		start, op = math.Inf(-1), opMax
	}
	acc, svcs := g.scalar(start), []int(nil)
	for j := 0; j < k; j++ {
		c, cs := g.branch(n, j)
		all := mergeSorted(svcs, cs)
		dst := g.tensor(len(all))
		g.steps = append(g.steps, gridStep{
			op: op, dst: dst, x: acc, y: c,
			offX: offsets(g.m, strides(svcs, all, g.m)),
			offY: offsets(g.m, strides(cs, all, g.m)),
		})
		acc, svcs = dst, all
	}
	return acc, svcs
}

// branch compiles n's child j, weighted by its probability in a choice.
func (g *Grid) branch(n *Node, j int) (int, []int) {
	c, cs := g.compile(n.children[j])
	if n.kind == kindChoice {
		c = g.unary(opMul, n.probs[j], c, cs)
	}
	return c, cs
}

// unary emits an elementwise step over tensor y, whose services are svcs.
func (g *Grid) unary(op gridOp, k float64, y int, svcs []int) int {
	dst := g.tensor(len(svcs))
	g.steps = append(g.steps, gridStep{op: op, dst: dst, y: y, k: k})
	return dst
}

// tensor allocates a tensor over d services and returns its id.
func (g *Grid) tensor(d int) int { return g.add(make([]float64, pow(g.m, d))) }

// scalar allocates a tensor over no services holding v.
func (g *Grid) scalar(v float64) int { return g.add([]float64{v}) }

func (g *Grid) add(buf []float64) int {
	g.bufs = append(g.bufs, buf)
	return len(g.bufs) - 1
}

// strides returns, for each service of svcs, its row-major stride in the
// grid over the sorted services grid, m values each, or 0 where grid lacks
// it.
func strides(grid, svcs []int, m int) []int {
	out := make([]int, len(svcs))
	for i, s := range svcs {
		acc := 1
		for j := len(grid) - 1; j >= 0; j-- {
			if grid[j] == s {
				out[i] = acc
				break
			}
			acc *= m
		}
	}
	return out
}

// offsets returns, for each point of the grid over len(stride) digits of m
// values each (row-major, the last fastest), Σ digit_i·stride[i].
func offsets(m int, stride []int) []int {
	out := make([]int, pow(m, len(stride)))
	digit := make([]int, len(stride))
	off := 0
	for o := range out {
		out[o] = off
		// Step the odometer: the last digit fastest.
		for i := len(stride) - 1; i >= 0; i-- {
			if digit[i]++; digit[i] < m {
				off += stride[i]
				break
			}
			digit[i] = 0
			off -= (m - 1) * stride[i]
		}
	}
	return out
}

// mergeSorted returns the sorted union of two disjoint sorted sets.
func mergeSorted(x, y []int) []int {
	out := make([]int, 0, len(x)+len(y))
	i, j := 0, 0
	for i < len(x) || j < len(y) {
		if j == len(y) || (i < len(x) && x[i] < y[j]) {
			out = append(out, x[i])
			i++
		} else {
			out = append(out, y[j])
			j++
		}
	}
	return out
}

func pow(m, d int) int {
	p := 1
	for ; d > 0; d-- {
		p *= m
	}
	return p
}
