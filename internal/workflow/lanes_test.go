package workflow

import (
	"math"
	"testing"

	"kertbn/internal/stats"
)

// TestLaneEvalMatchesResponseTime: after any sequence of Set calls, each on
// a random subset of services and in any order, every lane of Eval equals
// ResponseTime of that lane's inputs bit for bit, over random workflows
// with every construct kind.
func TestLaneEvalMatchesResponseTime(t *testing.T) {
	rng := stats.NewRNG(11)
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(7)
		wf, err := Generate(n, GenOptions{PPar: 0.3, PChoice: 0.25, PLoop: 0.2, MaxBranch: 3}, rng)
		if err != nil {
			t.Fatal(err)
		}
		lanes := 1 + rng.Intn(5)
		ev := NewLaneEval(wf, lanes)
		in := make([][]float64, n)
		for i := range in {
			in[i] = make([]float64, lanes)
		}
		x := make([]float64, n)
		for step := 0; step < 20; step++ {
			for i := range in {
				if step > 0 && rng.Float64() < 0.6 {
					continue
				}
				v := make([]float64, lanes)
				for s := range v {
					v[s] = rng.Normal(0, 1) * math.Pow(10, float64(rng.Intn(7)-3))
				}
				in[i] = v
				ev.Set(i, v)
			}
			got := ev.Eval()
			for s := 0; s < lanes; s++ {
				for i := range x {
					x[i] = in[i][s]
				}
				if want := wf.ResponseTime(x); math.Float64bits(got[s]) != math.Float64bits(want) {
					t.Fatalf("%v step %d lane %d: Eval = %v, ResponseTime = %v", wf, step, s, got[s], want)
				}
			}
		}
	}
}

var sinkLanes []float64

// TestLaneEvalZeroAlloc: stepping the evaluator, as the D-CPT odometer does
// once per table row, allocates nothing.
func TestLaneEvalZeroAlloc(t *testing.T) {
	ev := NewLaneEval(EDiaMoND(), 16)
	a, b := make([]float64, 16), make([]float64, 16)
	for s := range a {
		a[s], b[s] = float64(s), float64(2*s)
	}
	flip := false
	allocs := testing.AllocsPerRun(100, func() {
		flip = !flip
		if flip {
			ev.Set(EDOgsaDaiRemote, a)
		} else {
			ev.Set(EDOgsaDaiRemote, b)
		}
		sinkLanes = ev.Eval()
	})
	if allocs != 0 {
		t.Errorf("Set+Eval makes %v allocations per step, want 0", allocs)
	}
}
