package health

import (
	"math"
	"runtime"
	"testing"

	"kertbn/internal/core"
	"kertbn/internal/infer"
	"kertbn/internal/simsvc"
	"kertbn/internal/stats"
)

// continuousGenerations builds n continuous eDiaMoND KERT models from
// successive windows of one dataset: the generations a scheduler would
// deploy one after another.
func continuousGenerations(tb testing.TB, n int) []*core.Model {
	tb.Helper()
	sys := simsvc.EDiaMoNDSystem()
	data, err := sys.GenerateDataset(200*(n+1), stats.NewRNG(11))
	if err != nil {
		tb.Fatal(err)
	}
	models := make([]*core.Model, n)
	for g := range models {
		window := data.Head(200 * (g + 2))
		window.Rows = window.Rows[200*g:]
		if models[g], err = core.BuildKERT(core.KERTConfig{Workflow: sys.Workflow}, window); err != nil {
			tb.Fatal(err)
		}
	}
	return models
}

// TestMonitorDeployMatchesCopyingPath pins the reused-buffer deploy to the
// path it replaced: for each generation, P_bn(D > h) and the calibrated h
// equal what a freshly compiled plan's Serial samples, copied by
// core.NewPosterior, give on the same Split(generation) stream — bit for
// bit.
func TestMonitorDeployMatchesCopyingPath(t *testing.T) {
	const seed, samples = 5, 4000
	m := NewMonitor(Config{Seed: seed, ExceedanceSamples: samples})
	var threshold float64
	for g, model := range continuousGenerations(t, 4) {
		if err := m.SetModel(model); err != nil {
			t.Fatal(err)
		}
		plan, err := infer.CompileQueryPlan(model.Net, model.DNode, nil)
		if err != nil {
			t.Fatal(err)
		}
		ws, err := plan.Serial(nil, samples, stats.NewRNG(seed).Split(uint64(g+1)))
		if err != nil {
			t.Fatal(err)
		}
		post, err := core.NewPosterior(ws.Values, ws.Weights)
		if err != nil {
			t.Fatal(err)
		}
		if g == 0 {
			threshold = post.Quantile(0.95)
		}
		rep := m.Report()
		if math.Float64bits(rep.Threshold) != math.Float64bits(threshold) {
			t.Fatalf("generation %d: threshold %v, copying path %v", g+1, rep.Threshold, threshold)
		}
		if want := post.Exceedance(threshold); math.Float64bits(rep.PBN) != math.Float64bits(want) {
			t.Fatalf("generation %d: p_bn %v, copying path %v", g+1, rep.PBN, want)
		}
	}
}

// TestMonitorSetModelAllocBudget gates the deploy's sample storage: after
// the first deploy grows the monitor's buffers, a continuous model's
// deploy allocates less than one ExceedanceSamples-long float64 slice.
func TestMonitorSetModelAllocBudget(t *testing.T) {
	const samples = 4000
	models := continuousGenerations(t, 2)
	m := NewMonitor(Config{Seed: 3, ExceedanceSamples: samples})
	for _, model := range models {
		if err := m.SetModel(model); err != nil {
			t.Fatal(err)
		}
	}
	const deploys = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < deploys; i++ {
		if err := m.SetModel(models[i%2]); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perDeploy := (after.TotalAlloc - before.TotalAlloc) / deploys
	t.Logf("SetModel allocates %d B per deploy", perDeploy)
	if perDeploy >= samples*8 {
		t.Fatalf("SetModel allocates %d B per deploy, budget < %d (one %d-sample slice)", perDeploy, samples*8, samples)
	}
}
