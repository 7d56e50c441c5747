package bn

import (
	"fmt"
	"sort"

	"kertbn/internal/graph"
	"kertbn/internal/stats"
)

// Kind distinguishes discrete (categorical) from continuous nodes.
type Kind int

const (
	// Discrete nodes take integer states 0..Card-1.
	Discrete Kind = iota
	// Continuous nodes take real values.
	Continuous
)

// String renders the kind for diagnostics.
func (k Kind) String() string {
	switch k {
	case Discrete:
		return "discrete"
	case Continuous:
		return "continuous"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// CPD is a conditional probability distribution P(X | parents). Discrete
// states travel as integer-valued float64s so discrete and continuous nodes
// share one interface.
type CPD interface {
	// LogProb returns the log density (continuous) or log mass (discrete)
	// of x given the parent values, ordered as Network.Parents reports.
	LogProb(x float64, parents []float64) float64
	// Sample draws a value for the node given the parent values.
	Sample(rng *stats.RNG, parents []float64) float64
	// NumParents returns the parent count the CPD was built for.
	NumParents() int
}

// Node is a single random variable in a network.
type Node struct {
	ID   int
	Name string
	Kind Kind
	// Card is the state count for discrete nodes (0 for continuous).
	Card int
	// CPD is nil until parameters are assigned or learned.
	CPD CPD
}

// Network is a Bayesian network: a DAG plus per-node CPDs. Construct the
// structure first (AddDiscreteNode/AddContinuousNode/AddEdge), then attach
// CPDs (SetCPD or via the learn package), then Validate.
type Network struct {
	dag    *graph.DAG
	nodes  []*Node
	byName map[string]int
}

// NewNetwork returns an empty network.
func NewNetwork() *Network {
	return &Network{dag: graph.NewDAG(0), byName: map[string]int{}}
}

// AddDiscreteNode appends a discrete node with card states and returns it.
func (n *Network) AddDiscreteNode(name string, card int) (*Node, error) {
	if card < 2 {
		return nil, fmt.Errorf("bn: discrete node %q needs at least 2 states, got %d", name, card)
	}
	return n.addNode(name, Discrete, card)
}

// AddContinuousNode appends a continuous node and returns it.
func (n *Network) AddContinuousNode(name string) (*Node, error) {
	return n.addNode(name, Continuous, 0)
}

func (n *Network) addNode(name string, kind Kind, card int) (*Node, error) {
	if name == "" {
		return nil, fmt.Errorf("bn: empty node name")
	}
	if _, dup := n.byName[name]; dup {
		return nil, fmt.Errorf("bn: duplicate node name %q", name)
	}
	id := n.dag.AddNode()
	node := &Node{ID: id, Name: name, Kind: kind, Card: card}
	n.nodes = append(n.nodes, node)
	n.byName[name] = id
	return node, nil
}

// N returns the number of nodes.
func (n *Network) N() int { return len(n.nodes) }

// Node returns the node with the given id.
func (n *Network) Node(id int) *Node {
	if id < 0 || id >= len(n.nodes) {
		panic(fmt.Sprintf("bn: node id %d out of range", id))
	}
	return n.nodes[id]
}

// NodeByName returns the node with the given name, or nil.
func (n *Network) NodeByName(name string) *Node {
	id, ok := n.byName[name]
	if !ok {
		return nil
	}
	return n.nodes[id]
}

// AddEdge inserts a directed edge parent→child (by id).
func (n *Network) AddEdge(parent, child int) error {
	return n.dag.AddEdge(parent, child)
}

// Parents returns the sorted parent ids of node id.
func (n *Network) Parents(id int) []int { return n.dag.Parents(id) }

// TopoOrder returns a deterministic topological ordering of node ids.
func (n *Network) TopoOrder() []int { return n.dag.TopoSort() }

// DAG exposes the underlying DAG (read-mostly; callers must not break
// CPD/parent consistency).
func (n *Network) DAG() *graph.DAG { return n.dag }

// EdgeCount returns the number of directed edges.
func (n *Network) EdgeCount() int { return n.dag.EdgeCount() }

// SetCPD attaches a CPD to node id after checking parent arity.
func (n *Network) SetCPD(id int, cpd CPD) error {
	node := n.Node(id)
	if got, want := cpd.NumParents(), len(n.Parents(id)); got != want {
		return fmt.Errorf("bn: node %q CPD built for %d parents, structure has %d", node.Name, got, want)
	}
	node.CPD = cpd
	return nil
}

// Validate checks that every node has a CPD consistent with the structure.
func (n *Network) Validate() error {
	for _, node := range n.nodes {
		if node.CPD == nil {
			return fmt.Errorf("bn: node %q has no CPD", node.Name)
		}
		if got, want := node.CPD.NumParents(), len(n.Parents(node.ID)); got != want {
			return fmt.Errorf("bn: node %q CPD has %d parents, structure has %d", node.Name, got, want)
		}
		if t, ok := node.CPD.(*Tabular); ok {
			if node.Kind != Discrete {
				return fmt.Errorf("bn: node %q is continuous but has a tabular CPD", node.Name)
			}
			if t.Card != node.Card {
				return fmt.Errorf("bn: node %q card %d but tabular CPD card %d", node.Name, node.Card, t.Card)
			}
			for i, p := range n.Parents(node.ID) {
				pn := n.Node(p)
				if pn.Kind != Discrete {
					return fmt.Errorf("bn: tabular node %q has continuous parent %q", node.Name, pn.Name)
				}
				if t.ParentCard[i] != pn.Card {
					return fmt.Errorf("bn: node %q parent %q card %d but CPD expects %d",
						node.Name, pn.Name, pn.Card, t.ParentCard[i])
				}
			}
		}
	}
	return nil
}

// Names returns all node names in id order.
func (n *Network) Names() []string {
	out := make([]string, len(n.nodes))
	for i, node := range n.nodes {
		out[i] = node.Name
	}
	return out
}

// CloneStructure returns a new network with the same nodes and edges but no
// CPDs — the starting point for relearning parameters on a fixed structure.
func (n *Network) CloneStructure() *Network {
	c := NewNetwork()
	for _, node := range n.nodes {
		var err error
		if node.Kind == Discrete {
			_, err = c.AddDiscreteNode(node.Name, node.Card)
		} else {
			_, err = c.AddContinuousNode(node.Name)
		}
		if err != nil {
			panic("bn: CloneStructure: " + err.Error())
		}
	}
	for _, e := range n.dag.Edges() {
		if err := c.AddEdge(e[0], e[1]); err != nil {
			panic("bn: CloneStructure: " + err.Error())
		}
	}
	return c
}

// ParentValues extracts, from a full row of node values (indexed by node
// id), the parent values of node id in sorted-parent order.
func (n *Network) ParentValues(id int, row []float64) []float64 {
	ps := n.Parents(id)
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = row[p]
	}
	return out
}

// SortedIDs returns all node ids ascending (a convenience for callers that
// iterate deterministically).
func (n *Network) SortedIDs() []int {
	out := make([]int, len(n.nodes))
	for i := range out {
		out[i] = i
	}
	sort.Ints(out)
	return out
}
