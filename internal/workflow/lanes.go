package workflow

import (
	"fmt"
	"math"
)

// LaneEval evaluates ResponseTime over a fixed number of lanes at once:
// lane s of the result is f of the lane-s inputs of every service. It is
// built for callers that sweep many input combinations where each step
// changes only a few services, such as the discrete D-CPT generator's
// odometer over parent bins.
//
// Every construct keeps its running lane vectors: a sequence or choice its
// per-child prefix (weighted) sums, a parallel block its per-child prefix
// maxes. After Set changes some services, Eval recomputes only the
// constructs that contain one of them, and each of those only from its
// first changed child on, restarting from the prefix before it. Per lane
// the floating-point operations are exactly ResponseTime's, in the same
// order, starting from 0.0 for a sequence or choice and from -Inf for a
// parallel block, so every lane equals ResponseTime bit for bit.
type LaneEval struct {
	lanes int
	nodes []laneNode // post-order: children before parents, root last
	leaf  []int      // service index → its task's node index, or -1
	dirty []bool     // node output changed since its parent last folded it
	zero  []float64  // 0.0 in every lane: sequence and choice start
	ninf  []float64  // -Inf in every lane: parallel start
}

type laneNode struct {
	kind     kind
	children []int     // node indices
	probs    []float64 // choice branch probabilities
	div      float64   // loop: 1 − p, as ResponseTime divides by it
	// acc[j] holds the lanes after folding children 0..j, so the last one
	// is the node's output. A task's single entry is the vector Set gave.
	acc [][]float64
}

// NewLaneEval compiles the workflow rooted at root for evaluation over
// lanes lanes. Every service starts at 0 in every lane; Set supplies the
// real inputs.
func NewLaneEval(root *Node, lanes int) *LaneEval {
	if lanes < 1 {
		panic(fmt.Sprintf("workflow: NewLaneEval needs lanes >= 1, got %d", lanes))
	}
	svcs := root.Services()
	e := &LaneEval{
		lanes: lanes,
		leaf:  make([]int, svcs[len(svcs)-1]+1),
		zero:  make([]float64, lanes),
		ninf:  make([]float64, lanes),
	}
	for s := range e.ninf {
		e.ninf[s] = math.Inf(-1)
	}
	for s := range e.leaf {
		e.leaf[s] = -1
	}
	e.compile(root)
	return e
}

func (e *LaneEval) compile(n *Node) int {
	nd := laneNode{kind: n.kind, probs: n.probs}
	if n.kind == kindTask {
		nd.acc = [][]float64{e.zero}
	} else {
		nd.children = make([]int, len(n.children))
		for i, c := range n.children {
			nd.children[i] = e.compile(c)
		}
		buf := make([]float64, len(n.children)*e.lanes)
		nd.acc = make([][]float64, len(n.children))
		for i := range nd.acc {
			nd.acc[i] = buf[i*e.lanes : (i+1)*e.lanes]
		}
		if n.kind == kindLoop {
			nd.div = 1 - n.loopP
		}
	}
	e.nodes = append(e.nodes, nd)
	e.dirty = append(e.dirty, true)
	k := len(e.nodes) - 1
	if n.kind == kindTask {
		e.leaf[n.service] = k
	}
	return k
}

// Set gives service, one of the workflow's, its input lanes. The
// evaluator reads x in place until the next Set of that service, so the
// caller must not change it in between.
func (e *LaneEval) Set(service int, x []float64) {
	if len(x) != e.lanes {
		panic(fmt.Sprintf("workflow: LaneEval.Set got %d lanes, want %d", len(x), e.lanes))
	}
	k := e.leaf[service]
	if k < 0 {
		panic(fmt.Sprintf("workflow: LaneEval.Set: service %d is not in the workflow", service))
	}
	e.nodes[k].acc[0] = x
	e.dirty[k] = true
}

// Eval returns f in every lane. The result belongs to the evaluator (for a
// single-task workflow it is the vector last given to Set) and stays valid
// until the next Set.
func (e *LaneEval) Eval() []float64 {
	for k := range e.nodes {
		nd := &e.nodes[k]
		j := 0
		for j < len(nd.children) && !e.dirty[nd.children[j]] {
			j++
		}
		if j == len(nd.children) {
			continue // a task, or no child changed
		}
		for _, c := range nd.children[j:] {
			e.dirty[c] = false
		}
		e.fold(nd, j)
		e.dirty[k] = true
	}
	root := len(e.nodes) - 1
	e.dirty[root] = false
	return e.out(root)
}

func (e *LaneEval) out(k int) []float64 {
	acc := e.nodes[k].acc
	return acc[len(acc)-1]
}

// fold recomputes nd's prefix lanes from child j on.
func (e *LaneEval) fold(nd *laneNode, j int) {
	prev := e.zero
	if nd.kind == kindPar {
		prev = e.ninf
	}
	if j > 0 {
		prev = nd.acc[j-1]
	}
	for ; j < len(nd.children); j++ {
		c := e.out(nd.children[j])
		dst := nd.acc[j][:len(c)]
		prev = prev[:len(c)]
		switch nd.kind {
		case kindSeq:
			for s, v := range c {
				dst[s] = prev[s] + v
			}
		case kindPar:
			for s, v := range c {
				m := prev[s]
				if v > m {
					m = v
				}
				dst[s] = m
			}
		case kindChoice:
			p := nd.probs[j]
			for s, v := range c {
				dst[s] = prev[s] + float64(p*v)
			}
		case kindLoop:
			for s, v := range c {
				dst[s] = v / nd.div
			}
		}
		prev = dst
	}
}
