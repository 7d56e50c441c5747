package infer

import (
	"context"
	"testing"

	"kertbn/internal/bn"
	"kertbn/internal/stats"
)

// planTestNet builds a small mixed network: two linear-Gaussian roots, a
// linear-Gaussian middle node and a DetFunc-free sum-ish sink, enough
// structure for likelihood weighting to exercise parents and evidence.
func planTestNet(t testing.TB) *bn.Network {
	t.Helper()
	n := bn.NewNetwork()
	for _, name := range []string{"a", "b", "c", "d"} {
		if _, err := n.AddContinuousNode(name); err != nil {
			t.Fatalf("node %s: %v", name, err)
		}
	}
	mustEdge := func(from, to string) {
		t.Helper()
		if err := n.AddEdge(n.NodeByName(from).ID, n.NodeByName(to).ID); err != nil {
			t.Fatalf("edge %s->%s: %v", from, to, err)
		}
	}
	mustEdge("a", "c")
	mustEdge("b", "c")
	mustEdge("c", "d")
	set := func(name string, cpd bn.CPD) {
		t.Helper()
		if err := n.SetCPD(n.NodeByName(name).ID, cpd); err != nil {
			t.Fatalf("cpd %s: %v", name, err)
		}
	}
	set("a", bn.NewLinearGaussian(0.3, nil, 0.1))
	set("b", bn.NewLinearGaussian(0.5, nil, 0.2))
	set("c", bn.NewLinearGaussian(0.1, []float64{1, 0.5}, 0.15))
	set("d", bn.NewLinearGaussian(0, []float64{2}, 0.05))
	return n
}

// TestQueryPlanSerialMatchesLikelihoodWeighting pins the refactor contract:
// a compiled plan run serially must reproduce the naive LikelihoodWeighting
// loop bit-for-bit for the same rng state, because both consume the rng in
// the same topological draw order.
func TestQueryPlanSerialMatchesLikelihoodWeighting(t *testing.T) {
	n := planTestNet(t)
	ev := ContinuousEvidence{0: 0.31, 3: 0.9}
	const nSamples = 4000

	ref, err := LikelihoodWeighting(n, 2, ev, nSamples, stats.NewRNG(7))
	if err != nil {
		t.Fatalf("naive LW: %v", err)
	}
	plan, err := CompileQueryPlan(n, 2, []int{0, 3})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	got, err := plan.Serial(ev, nSamples, stats.NewRNG(7))
	if err != nil {
		t.Fatalf("plan serial: %v", err)
	}
	if len(got.Values) != len(ref.Values) {
		t.Fatalf("sample counts differ: plan %d vs naive %d", len(got.Values), len(ref.Values))
	}
	for i := range got.Values {
		if got.Values[i] != ref.Values[i] || got.Weights[i] != ref.Weights[i] {
			t.Fatalf("sample %d differs: plan (%v, %v) vs naive (%v, %v)",
				i, got.Values[i], got.Weights[i], ref.Values[i], ref.Weights[i])
		}
	}
}

// TestQueryPlanReusedAcrossEvidenceValues runs one plan with two different
// evidence value sets and checks each matches a fresh one-shot parallel run
// — values are per-run state, never baked into the shared plan.
func TestQueryPlanReusedAcrossEvidenceValues(t *testing.T) {
	n := planTestNet(t)
	plan, err := CompileQueryPlan(n, 2, []int{0, 3})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	for _, v := range []float64{0.2, 0.45} {
		ev := ContinuousEvidence{0: v, 3: 2 * v}
		got, err := plan.Parallel(context.Background(), ev, 6000, 4, stats.NewRNG(11))
		if err != nil {
			t.Fatalf("plan parallel: %v", err)
		}
		ref, err := LikelihoodWeightingParallel(context.Background(), n, 2, ev, 6000, 2, stats.NewRNG(11))
		if err != nil {
			t.Fatalf("one-shot parallel: %v", err)
		}
		if got.Mean() != ref.Mean() || got.Std() != ref.Std() {
			t.Fatalf("evidence %v: plan run (%v, %v) differs from one-shot (%v, %v)",
				v, got.Mean(), got.Std(), ref.Mean(), ref.Std())
		}
	}
}

// TestQueryPlanRejectsBadShapes covers the compile- and run-time validation
// paths: bad query, evidence==query, duplicate and out-of-range evidence,
// and evidence maps that do not match the compiled shape.
func TestQueryPlanRejectsBadShapes(t *testing.T) {
	n := planTestNet(t)
	if _, err := CompileQueryPlan(n, 9, nil); err == nil {
		t.Error("query out of range accepted")
	}
	if _, err := CompileQueryPlan(n, 2, []int{2}); err == nil {
		t.Error("query-as-evidence accepted")
	}
	if _, err := CompileQueryPlan(n, 2, []int{0, 0}); err == nil {
		t.Error("duplicate evidence accepted")
	}
	if _, err := CompileQueryPlan(n, 2, []int{-1}); err == nil {
		t.Error("negative evidence id accepted")
	}
	plan, err := CompileQueryPlan(n, 2, []int{0})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if _, err := plan.Serial(ContinuousEvidence{1: 0.5}, 100, nil); err == nil {
		t.Error("mismatched evidence shape accepted")
	}
	if _, err := plan.Serial(ContinuousEvidence{0: 0.5, 1: 0.5}, 100, nil); err == nil {
		t.Error("extra evidence accepted")
	}
	if _, err := plan.Serial(ContinuousEvidence{0: 0.5}, 0, nil); err == nil {
		t.Error("nSamples=0 accepted")
	}
}
