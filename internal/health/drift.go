package health

import (
	"fmt"
	"math"
)

// DriftState is the lifecycle of one Detector.
type DriftState int

const (
	// StateWarmup: the detector is still calibrating its reference mean and
	// standard deviation from the first Warmup observations.
	StateWarmup DriftState = iota
	// StateOK: calibrated, no alarm raised.
	StateOK
	// StateDrift: an alarm fired; the state latches until Reset (the
	// Monitor resets detectors whenever a new model is deployed).
	StateDrift
)

// String renders the state for reports and gauges.
func (s DriftState) String() string {
	switch s {
	case StateWarmup:
		return "warmup"
	case StateOK:
		return "ok"
	case StateDrift:
		return "drift"
	default:
		return fmt.Sprintf("DriftState(%d)", int(s))
	}
}

// DetectorConfig parameterizes the paired CUSUM / Page–Hinkley detectors.
// All thresholds are expressed in units of the reference standard deviation
// σ₀ estimated during warmup, so one config works across nodes whose
// log-likelihood streams live on very different scales. Everything is
// deterministic: the same score stream always produces the same alarms.
type DetectorConfig struct {
	// Warmup is the number of observations used to calibrate the reference
	// mean μ₀ and standard deviation σ₀. No alarms fire during warmup.
	Warmup int
	// CUSUMSlack is the one-sided CUSUM slack K in σ₀ units: drops smaller
	// than K·σ₀ below μ₀ are absorbed. Default 0.5.
	CUSUMSlack float64
	// CUSUMThreshold is the CUSUM alarm level H in σ₀ units. Default 12:
	// by Siegmund's approximation the in-control average run length at
	// (K,H) = (0.5, 12)σ₀ is ≈10⁶ observations, so false alarms are
	// negligible at telemetry scale while a 2σ₀ sustained drop still fires
	// in ≈8 rows. Default 12.
	CUSUMThreshold float64
	// PHDelta is the Page–Hinkley tolerance δ in σ₀ units. Default 0.3.
	PHDelta float64
	// PHLambda is the Page–Hinkley alarm level λ in σ₀ units. The
	// stationary false-alarm odds per excursion are ≈exp(−2δλ), so the
	// (0.3, 20) defaults give ≈6·10⁻⁶. Default 20.
	PHLambda float64
	// Winsorize caps how far below μ₀ a single observation can register,
	// in σ₀ units: x is floored at μ₀ − Winsorize·σ₀ before entering the
	// statistics. Log-likelihood streams are heavy-tailed on the left — a
	// 5σ data draw under a Gaussian CPD costs ~12.5 nats on its own — so
	// without the cap one legitimate outlier can clear the whole CUSUM
	// threshold in a single step. With the default cap of 8 a sustained
	// shift still accumulates ~7.5σ₀ per row (alarm in two rows), but an
	// isolated spike decays back under the slack. Default 8.
	Winsorize float64
	// MinStd floors σ₀ so a constant warmup segment (e.g. a saturated
	// clamped stream) cannot produce zero-width thresholds. Default 1e-3.
	MinStd float64
}

// withDefaults fills zero fields with the documented defaults.
func (c DetectorConfig) withDefaults() DetectorConfig {
	if c.Warmup <= 0 {
		c.Warmup = 40
	}
	if c.CUSUMSlack <= 0 {
		c.CUSUMSlack = 0.5
	}
	if c.CUSUMThreshold <= 0 {
		c.CUSUMThreshold = 12
	}
	if c.PHDelta <= 0 {
		c.PHDelta = 0.3
	}
	if c.PHLambda <= 0 {
		c.PHLambda = 20
	}
	if c.Winsorize <= 0 {
		c.Winsorize = 8
	}
	if c.MinStd <= 0 {
		c.MinStd = 1e-3
	}
	return c
}

// Detector watches one score stream (per-node or total log-likelihood) for
// a sustained downward shift, running a one-sided CUSUM and a Page–Hinkley
// test side by side:
//
//	CUSUM:         g ← max(0, g + (μ₀ − x) − K·σ₀),  alarm when g > H·σ₀
//	Page–Hinkley:  m ← m + (x − μ₀ + δ·σ₀),  M ← max(M, m),
//	               alarm when M − m > λ·σ₀
//
// μ₀ and σ₀ are calibrated from the first Warmup observations, making the
// thresholds self-scaling and the whole detector deterministic. Once either
// test fires the detector latches StateDrift until Reset.
type Detector struct {
	cfg DetectorConfig

	n                  int
	warmSum, warmSumSq float64
	mu0, sigma0        float64
	// slackAbs / deltaAbs are the absolute CUSUM slack and PH tolerance:
	// the configured σ₀-relative values plus two standard errors of the
	// warmup mean (σ₀/√Warmup), so a noisy μ₀ estimate cannot turn into a
	// false drift signal.
	slackAbs, deltaAbs float64

	g      float64 // CUSUM statistic
	phM    float64 // Page–Hinkley cumulative deviation
	phMax  float64 // running max of phM
	state  DriftState
	cusum  bool // which test fired (for reports)
	ph     bool
	alarms int
}

// NewDetector builds a detector with defaults filled in.
func NewDetector(cfg DetectorConfig) *Detector {
	return &Detector{cfg: cfg.withDefaults()}
}

// Observe folds one score in. fired is true exactly on the transition into
// StateDrift (it stays false while the latched state persists).
func (d *Detector) Observe(x float64) (fired bool) {
	if d.state == StateWarmup {
		d.n++
		d.warmSum += x
		d.warmSumSq += x * x
		if d.n >= d.cfg.Warmup {
			d.mu0 = d.warmSum / float64(d.n)
			v := d.warmSumSq/float64(d.n) - d.mu0*d.mu0
			if v < 0 {
				v = 0
			}
			d.sigma0 = math.Sqrt(v)
			if d.sigma0 < d.cfg.MinStd {
				d.sigma0 = d.cfg.MinStd
			}
			se := d.sigma0 / math.Sqrt(float64(d.n))
			d.slackAbs = d.cfg.CUSUMSlack*d.sigma0 + 2*se
			d.deltaAbs = d.cfg.PHDelta*d.sigma0 + 2*se
			d.state = StateOK
		}
		return false
	}
	d.n++
	// Winsorize: one outlier may contribute at most Winsorize·σ₀ of drop.
	if floor := d.mu0 - d.cfg.Winsorize*d.sigma0; x < floor {
		x = floor
	}
	// One-sided CUSUM on the drop μ₀ − x.
	d.g += (d.mu0 - x) - d.slackAbs
	if d.g < 0 {
		d.g = 0
	}
	cusumFired := d.g > d.cfg.CUSUMThreshold*d.sigma0
	// Page–Hinkley for a decrease in mean.
	d.phM += x - d.mu0 + d.deltaAbs
	if d.phM > d.phMax {
		d.phMax = d.phM
	}
	phFired := d.phMax-d.phM > d.cfg.PHLambda*d.sigma0
	if (cusumFired || phFired) && d.state != StateDrift {
		d.state = StateDrift
		d.cusum = cusumFired
		d.ph = phFired
		d.alarms++
		return true
	}
	return false
}

// State returns the current lifecycle state.
func (d *Detector) State() DriftState { return d.state }

// CUSUMStat returns the CUSUM statistic in σ₀ units (0 during warmup).
func (d *Detector) CUSUMStat() float64 {
	if d.state == StateWarmup || d.sigma0 == 0 {
		return 0
	}
	return d.g / d.sigma0
}

// PHStat returns the Page–Hinkley deviation M − m in σ₀ units (0 during
// warmup).
func (d *Detector) PHStat() float64 {
	if d.state == StateWarmup || d.sigma0 == 0 {
		return 0
	}
	return (d.phMax - d.phM) / d.sigma0
}

// FiredBy reports which tests were firing at the alarm transition.
func (d *Detector) FiredBy() (cusum, ph bool) { return d.cusum, d.ph }

// Reset returns the detector to a fresh warmup — called when a new model is
// deployed, since scores under different models are not comparable.
func (d *Detector) Reset() {
	cfg := d.cfg
	*d = Detector{cfg: cfg}
}
