package workflow

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Node is one construct in a workflow tree.
type Node struct {
	kind     kind
	service  int     // Task only: service index
	name     string  // Task only: service name
	children []*Node // composite constructs
	probs    []float64
	loopP    float64
}

type kind int

const (
	kindTask kind = iota
	kindSeq
	kindPar
	kindChoice
	kindLoop
)

// Task returns a leaf node invoking service `service` (a dense index the
// caller assigns; it becomes the elapsed-time variable X_service).
func Task(service int, name string) *Node {
	return &Node{kind: kindTask, service: service, name: name}
}

// Seq composes children sequentially; elapsed times add.
func Seq(children ...*Node) *Node {
	return &Node{kind: kindSeq, children: children}
}

// Par composes children as a parallel (AND-split/AND-join) block; the
// block's elapsed time is the max over branches.
func Par(children ...*Node) *Node {
	return &Node{kind: kindPar, children: children}
}

// Choice composes children as an exclusive (XOR) branch taken with the
// given probabilities; the reduced elapsed time is the probability-weighted
// value (Cardoso's expected-value reduction).
func Choice(probs []float64, children ...*Node) *Node {
	return &Node{kind: kindChoice, children: children, probs: append([]float64(nil), probs...)}
}

// Loop wraps child in a loop repeated with continuation probability p; the
// reduced elapsed time scales by the expected iteration count 1/(1−p).
func Loop(p float64, child *Node) *Node {
	return &Node{kind: kindLoop, children: []*Node{child}, loopP: p}
}

// Validate checks the tree: composite nodes need children, choice
// probabilities must match children and sum to 1, loop probabilities must
// be in [0,1), and no service index may appear twice (each service is one
// random variable in the KERT-BN).
func (n *Node) Validate() error {
	seen := map[int]string{}
	return n.validate(seen)
}

func (n *Node) validate(seen map[int]string) error {
	switch n.kind {
	case kindTask:
		if n.service < 0 {
			return fmt.Errorf("workflow: negative service index %d", n.service)
		}
		if prev, dup := seen[n.service]; dup {
			return fmt.Errorf("workflow: service index %d used twice (%q and %q)", n.service, prev, n.name)
		}
		seen[n.service] = n.name
		return nil
	case kindSeq, kindPar:
		if len(n.children) == 0 {
			return fmt.Errorf("workflow: empty %s", n.kindName())
		}
	case kindChoice:
		if len(n.children) == 0 {
			return fmt.Errorf("workflow: empty choice")
		}
		if len(n.probs) != len(n.children) {
			return fmt.Errorf("workflow: choice has %d children but %d probabilities", len(n.children), len(n.probs))
		}
		s := 0.0
		for _, p := range n.probs {
			if p < 0 {
				return fmt.Errorf("workflow: negative choice probability %g", p)
			}
			s += p
		}
		if math.Abs(s-1) > 1e-9 {
			return fmt.Errorf("workflow: choice probabilities sum to %g, want 1", s)
		}
	case kindLoop:
		if len(n.children) != 1 {
			return fmt.Errorf("workflow: loop must have exactly one child")
		}
		if n.loopP < 0 || n.loopP >= 1 {
			return fmt.Errorf("workflow: loop probability %g out of [0,1)", n.loopP)
		}
	default:
		return fmt.Errorf("workflow: unknown construct kind %d", n.kind)
	}
	for _, c := range n.children {
		if err := c.validate(seen); err != nil {
			return err
		}
	}
	return nil
}

func (n *Node) kindName() string {
	switch n.kind {
	case kindTask:
		return "task"
	case kindSeq:
		return "sequence"
	case kindPar:
		return "parallel"
	case kindChoice:
		return "choice"
	case kindLoop:
		return "loop"
	}
	return "unknown"
}

// Services returns the sorted set of service indices in the workflow.
func (n *Node) Services() []int {
	set := map[int]bool{}
	n.collectServices(set)
	out := make([]int, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

func (n *Node) collectServices(set map[int]bool) {
	if n.kind == kindTask {
		set[n.service] = true
		return
	}
	for _, c := range n.children {
		c.collectServices(set)
	}
}

// ServiceNames returns a map from service index to name.
func (n *Node) ServiceNames() map[int]string {
	out := map[int]string{}
	n.collectNames(out)
	return out
}

func (n *Node) collectNames(out map[int]string) {
	if n.kind == kindTask {
		out[n.service] = n.name
		return
	}
	for _, c := range n.children {
		c.collectNames(out)
	}
}

// ResponseTime evaluates the Cardoso-reduced deterministic function f(X)
// given per-service elapsed times x (indexed by service index): this is the
// f of the paper's Equation 4. For the eDiaMoND workflow it computes
// D = X1 + X2 + max(X3+X5, X4+X6). Grid repeats its floating-point
// operations in the same order, so the two agree bit for bit.
func (n *Node) ResponseTime(x []float64) float64 {
	switch n.kind {
	case kindTask:
		return x[n.service]
	case kindSeq:
		s := 0.0
		for _, c := range n.children {
			s += c.ResponseTime(x)
		}
		return s
	case kindPar:
		m := math.Inf(-1)
		for _, c := range n.children {
			if v := c.ResponseTime(x); v > m {
				m = v
			}
		}
		return m
	case kindChoice:
		s := 0.0
		for i, c := range n.children {
			// The conversion rounds the product before the add, which rules
			// out a fused multiply-add on any platform.
			s += float64(n.probs[i] * c.ResponseTime(x))
		}
		return s
	case kindLoop:
		return n.children[0].ResponseTime(x) / (1 - n.loopP)
	}
	panic("workflow: unknown construct")
}

// TimeoutCount evaluates the Section-3.3 variant of f for transaction
// counts: the end-to-end timeout count is the sum of per-service
// sub-transaction counts, D = Σ X_i.
func (n *Node) TimeoutCount(x []float64) float64 {
	s := 0.0
	for _, svc := range n.Services() {
		s += x[svc]
	}
	return s
}

// TimeoutCountTree returns the flat sequence Seq(Task(s)…) over the
// workflow's services in sorted order. Its ResponseTime is TimeoutCount's
// sum in TimeoutCount's order, without collecting the service set on every
// call, and a Grid can evaluate it.
func (n *Node) TimeoutCountTree() *Node {
	svcs := n.Services()
	tasks := make([]*Node, len(svcs))
	for i, s := range svcs {
		tasks[i] = Task(s, "")
	}
	return Seq(tasks...)
}

// Edge is a directed immediate-upstream relation between services.
type Edge struct{ From, To int }

// UpstreamEdges derives the KERT-BN elapsed-time structure: an edge i→j for
// every pair where service i is the immediate upstream service of j in the
// workflow graph. Loops contribute their body's internal edges only (the
// paper asks for the simplest DAG, "as few loops as possible").
func (n *Node) UpstreamEdges() []Edge {
	var edges []Edge
	n.flow(&edges)
	sort.Slice(edges, func(a, b int) bool {
		if edges[a].From != edges[b].From {
			return edges[a].From < edges[b].From
		}
		return edges[a].To < edges[b].To
	})
	return edges
}

// flow returns the entry and exit service sets of the subtree while
// appending internal edges.
func (n *Node) flow(edges *[]Edge) (entry, exit []int) {
	switch n.kind {
	case kindTask:
		return []int{n.service}, []int{n.service}
	case kindSeq:
		var first, last []int
		for i, c := range n.children {
			en, ex := c.flow(edges)
			if i == 0 {
				first = en
			} else {
				for _, f := range last {
					for _, t := range en {
						*edges = append(*edges, Edge{From: f, To: t})
					}
				}
			}
			last = ex
		}
		return first, last
	case kindPar, kindChoice:
		var en, ex []int
		for _, c := range n.children {
			cen, cex := c.flow(edges)
			en = append(en, cen...)
			ex = append(ex, cex...)
		}
		return en, ex
	case kindLoop:
		return n.children[0].flow(edges)
	}
	panic("workflow: unknown construct")
}

// String renders the tree compactly, e.g.
// "seq(image_list, work_list, par(seq(...), seq(...)))".
func (n *Node) String() string {
	switch n.kind {
	case kindTask:
		if n.name != "" {
			return n.name
		}
		return fmt.Sprintf("s%d", n.service)
	case kindSeq, kindPar:
		parts := make([]string, len(n.children))
		for i, c := range n.children {
			parts[i] = c.String()
		}
		op := "seq"
		if n.kind == kindPar {
			op = "par"
		}
		return op + "(" + strings.Join(parts, ", ") + ")"
	case kindChoice:
		parts := make([]string, len(n.children))
		for i, c := range n.children {
			parts[i] = fmt.Sprintf("%g:%s", n.probs[i], c.String())
		}
		return "choice(" + strings.Join(parts, ", ") + ")"
	case kindLoop:
		return fmt.Sprintf("loop(p=%g, %s)", n.loopP, n.children[0].String())
	}
	return "?"
}

// NumServices returns the count of distinct services.
func (n *Node) NumServices() int { return len(n.Services()) }

// ResourceSharing declares that a group of services shares a resource
// (CPU, memory, network, database). The KERT-BN builder represents it as a
// node with the sharing services as parents, per Section 3.2.
type ResourceSharing struct {
	Name     string
	Services []int
}
