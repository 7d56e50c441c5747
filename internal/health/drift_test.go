package health

import (
	"testing"

	"kertbn/internal/stats"
)

// stationary feeds n draws of N(mu, sigma²) from a seeded stream.
func stationary(d *Detector, rng *stats.RNG, n int, mu, sigma float64) (alarms int) {
	for i := 0; i < n; i++ {
		if d.Observe(rng.Normal(mu, sigma)) {
			alarms++
		}
	}
	return alarms
}

// TestDetectorNoFalseAlarmStationary: 5000 stationary observations after
// warmup must not trip either test at the default thresholds.
func TestDetectorNoFalseAlarmStationary(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		d := NewDetector(DetectorConfig{})
		if n := stationary(d, stats.NewRNG(seed), 5000, -2, 0.7); n != 0 {
			t.Errorf("seed %d: %d false alarms on a stationary stream", seed, n)
		}
		if d.State() != StateOK {
			t.Errorf("seed %d: state %v after stationary stream, want ok", seed, d.State())
		}
	}
}

// TestDetectorDetectsDropQuickly: after a 2σ downward mean shift the
// detector must fire within 60 observations and latch.
func TestDetectorDetectsDropQuickly(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		d := NewDetector(DetectorConfig{})
		rng := stats.NewRNG(seed)
		if n := stationary(d, rng, 300, -2, 0.7); n != 0 {
			t.Fatalf("seed %d: false alarm during stationary prefix", seed)
		}
		delay := -1
		for i := 0; i < 200; i++ {
			if d.Observe(rng.Normal(-2-2*0.7, 0.7)) {
				delay = i + 1
				break
			}
		}
		if delay < 0 || delay > 60 {
			t.Errorf("seed %d: detection delay %d, want 1..60", seed, delay)
		}
		if d.State() != StateDrift {
			t.Errorf("seed %d: state %v after alarm, want drift", seed, d.State())
		}
		// Latch: further observations never re-fire.
		if d.Observe(-100) {
			t.Errorf("seed %d: second alarm from a latched detector", seed)
		}
		cusum, ph := d.FiredBy()
		if !cusum && !ph {
			t.Errorf("seed %d: alarm fired but neither test marked", seed)
		}
	}
}

// TestDetectorDeterministic: identical input streams produce identical
// alarms and statistics — the seedable-threshold contract.
func TestDetectorDeterministic(t *testing.T) {
	run := func() (int, float64, float64) {
		d := NewDetector(DetectorConfig{Warmup: 30})
		rng := stats.NewRNG(42)
		alarms := stationary(d, rng, 200, 0, 1)
		alarms += stationary(d, rng, 100, -3, 1)
		return alarms, d.CUSUMStat(), d.PHStat()
	}
	a1, c1, p1 := run()
	a2, c2, p2 := run()
	if a1 != a2 || c1 != c2 || p1 != p2 {
		t.Errorf("detector not deterministic: (%d,%g,%g) vs (%d,%g,%g)", a1, c1, p1, a2, c2, p2)
	}
}

// TestDetectorConstantWarmup: a constant warmup segment must not divide by
// zero — MinStd floors σ₀ and a later drop still fires.
func TestDetectorConstantWarmup(t *testing.T) {
	d := NewDetector(DetectorConfig{Warmup: 20})
	for i := 0; i < 20; i++ {
		d.Observe(5)
	}
	if d.State() != StateOK {
		t.Fatalf("state %v after warmup, want ok", d.State())
	}
	if d.sigma0 <= 0 {
		t.Fatalf("σ₀ = %g, want positive floor", d.sigma0)
	}
	fired := false
	for i := 0; i < 50 && !fired; i++ {
		fired = d.Observe(4)
	}
	if !fired {
		t.Error("constant-warmup detector never fired on a clear drop")
	}
}

// TestDetectorReset returns the detector to warmup.
func TestDetectorReset(t *testing.T) {
	d := NewDetector(DetectorConfig{Warmup: 10})
	stationary(d, stats.NewRNG(1), 50, 0, 1)
	for i := 0; i < 100; i++ {
		d.Observe(-50)
	}
	if d.State() != StateDrift {
		t.Fatal("expected drift before reset")
	}
	d.Reset()
	if d.State() != StateWarmup {
		t.Errorf("state %v after Reset, want warmup", d.State())
	}
	if d.CUSUMStat() != 0 || d.PHStat() != 0 {
		t.Errorf("statistics survive Reset: cusum=%g ph=%g", d.CUSUMStat(), d.PHStat())
	}
}
