package factor_test

import (
	"math"
	"testing"

	"kertbn/internal/bn"
	"kertbn/internal/core"
	"kertbn/internal/factor"
	"kertbn/internal/graph"
	"kertbn/internal/infer"
	"kertbn/internal/simsvc"
	"kertbn/internal/stats"
	"kertbn/internal/workflow"
)

// kertmonModel builds kertmon's discrete eDiaMoND KERT-BN: 6 bins, Leak
// 0.02, the default 16-sample D-CPT.
func kertmonModel(t *testing.T) *core.Model {
	t.Helper()
	data, err := simsvc.EDiaMoNDSystem().GenerateDataset(300, stats.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultKERTConfig(workflow.EDiaMoND())
	cfg.Type = core.DiscreteModel
	cfg.Bins = 6
	cfg.Leak = 0.02
	m, err := core.BuildKERT(cfg, data)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// referencePosterior is infer.Posterior computed with the decode-based
// reference kernels: the same factor list, evidence reductions,
// elimination order and final product, so the reference performs every
// floating-point operation in the same order as the VE under test.
func referencePosterior(n *bn.Network, query int, ev infer.DiscreteEvidence) *factor.Factor {
	var factors []*factor.Factor
	for v := 0; v < n.N(); v++ {
		tab := n.Node(v).CPD.(*bn.Tabular)
		vars := append(append([]int(nil), n.Parents(v)...), v)
		card := append(append([]int(nil), tab.ParentCard...), tab.Card)
		factors = append(factors, factor.ReferenceFromTable(vars, card, tab.P))
	}
	for v, val := range ev {
		for i, f := range factors {
			if f.Contains(v) {
				factors[i] = factor.ReferenceReduce(f, v, val)
			}
		}
	}
	var elim []int
	for v := 0; v < n.N(); v++ {
		if _, isEv := ev[v]; v != query && !isEv {
			elim = append(elim, v)
		}
	}
	for _, v := range graph.MinFillOrdering(graph.Moralize(n.DAG()), elim) {
		var touched []*factor.Factor
		rest := factors[:0]
		for _, f := range factors {
			if f.Contains(v) {
				touched = append(touched, f)
			} else {
				rest = append(rest, f)
			}
		}
		if len(touched) > 0 {
			factors = append(rest, factor.ReferenceSumProduct(touched, v))
		}
	}
	result := factor.Scalar(1)
	for _, f := range factors {
		result = factor.ReferenceProduct(result, f)
	}
	result.Normalize()
	return result
}

// TestVEMatchesReferenceOnKertmonModel: on kertmon's discrete model, VE
// returns exactly the bits of the reference VE for P(D) and for the
// evidence shapes of the end-to-end benchmark's query catalogue — paccel,
// posterior and threshold condition D on one service, dcomp asks for a
// service given image_list, work_list and D.
func TestVEMatchesReferenceOnKertmonModel(t *testing.T) {
	m := kertmonModel(t)
	id := func(name string) int {
		node := m.Net.NodeByName(name)
		if node == nil {
			t.Fatalf("no node %q", name)
		}
		return node.ID
	}
	bin := func(node int, v float64) int { return m.Codec.Discretizers[node].Bin(v) }
	type query struct {
		target int
		ev     infer.DiscreteEvidence
	}
	queries := []query{{m.DNode, nil}}
	services := []string{"ogsa_dai_remote", "ogsa_dai_local", "image_locator_remote", "image_locator_local"}
	means := []float64{0.45, 0.35, 0.22, 0.10}
	for i, name := range services {
		s := id(name)
		for _, scale := range []float64{0.8, 1.2, 0.9} {
			queries = append(queries, query{m.DNode, infer.DiscreteEvidence{s: bin(s, scale*means[i])}})
		}
		il, wl := id("image_list"), id("work_list")
		queries = append(queries, query{s, infer.DiscreteEvidence{
			il: bin(il, 0.09), wl: bin(wl, 0.14), m.DNode: bin(m.DNode, 0.9+means[i]),
		}})
	}
	for _, q := range queries {
		got, err := infer.Posterior(m.Net, q.target, q.ev)
		if err != nil {
			t.Fatalf("P(%d | %v): %v", q.target, q.ev, err)
		}
		want := referencePosterior(m.Net, q.target, q.ev)
		if len(got.Values) != len(want.Values) {
			t.Fatalf("P(%d | %v): %d states, want %d", q.target, q.ev, len(got.Values), len(want.Values))
		}
		for i := range want.Values {
			if math.Float64bits(got.Values[i]) != math.Float64bits(want.Values[i]) {
				t.Fatalf("P(%d | %v) = %v, want %v bit for bit", q.target, q.ev, got.Values, want.Values)
			}
		}
	}
}
