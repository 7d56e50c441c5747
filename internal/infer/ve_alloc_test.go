package infer_test

import (
	"runtime"
	"testing"

	"kertbn/internal/core"
	"kertbn/internal/infer"
	"kertbn/internal/simsvc"
	"kertbn/internal/stats"
	"kertbn/internal/workflow"
)

// kertmonModel builds kertmon's discrete eDiaMoND KERT-BN: 6 bins, Leak
// 0.02, the default 16-sample D-CPT, whose 279,936-entry D family is the
// largest factor exact inference meets on the monitored system.
func kertmonModel(tb testing.TB) *core.Model {
	tb.Helper()
	data, err := simsvc.EDiaMoNDSystem().GenerateDataset(300, stats.NewRNG(3))
	if err != nil {
		tb.Fatal(err)
	}
	cfg := core.DefaultKERTConfig(workflow.EDiaMoND())
	cfg.Type = core.DiscreteModel
	cfg.Bins = 6
	cfg.Leak = 0.02
	m, err := core.BuildKERT(cfg, data)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// TestVEPosteriorAllocBudget bounds what one VE run for P(D) allocates on
// kertmon's model: the health monitor pays it on every deployed generation
// and the gateway on every discrete miss. The D-CPT's factor copy is
// 2.24 MB of the budget; the fused eliminate step keeps the product over
// D's family out of memory.
func TestVEPosteriorAllocBudget(t *testing.T) {
	m := kertmonModel(t)
	run := func() {
		if _, err := infer.Posterior(m.Net, m.DNode, nil); err != nil {
			t.Fatal(err)
		}
	}
	run()
	const maxAllocs, maxBytes = 1000, 3 << 20
	if allocs := testing.AllocsPerRun(5, run); allocs > maxAllocs {
		t.Errorf("VE for P(D) makes %v allocations per call, want <= %d", allocs, maxAllocs)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const calls = 5
	for i := 0; i < calls; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	if bytes := (after.TotalAlloc - before.TotalAlloc) / calls; bytes > maxBytes {
		t.Errorf("VE for P(D) allocates %d bytes per call, want <= %d", bytes, maxBytes)
	}
}

// BenchmarkVEPosteriorD reports the time and allocations of one VE run
// for P(D) on kertmon's model, in ms per P(D).
func BenchmarkVEPosteriorD(b *testing.B) {
	m := kertmonModel(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := infer.Posterior(m.Net, m.DNode, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e6/float64(b.N), "ms/P(D)")
}
