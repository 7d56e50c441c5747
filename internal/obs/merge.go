package obs

import (
	"fmt"
	"math"
)

// Histogram merging and snapshot-delta helpers — the primitives the fleet
// telemetry plane (internal/telemetry) is built from. A shipper reads each
// metric's increment since the last snapshot with the *Delta trackers; the
// aggregator folds shipped increments back into live histograms with
// MergeParts. Counters and bucket counts travel as integer deltas, so a
// fleet rollup applied exactly once per snapshot reproduces the sum of the
// per-process registries bit-for-bit.

// Bounds returns a copy of the bucket bounds.
func (h *Histogram) Bounds() []float64 {
	cp := make([]float64, len(h.bounds))
	copy(cp, h.bounds)
	return cp
}

// NumBuckets returns the number of finite buckets (excluding overflow).
func (h *Histogram) NumBuckets() int { return len(h.bounds) }

// BucketCounts appends the per-bucket counts to dst (reusing its capacity)
// and returns the extended slice — index i matches Bounds()[i].
func (h *Histogram) BucketCounts(dst []int64) []int64 {
	for i := range h.counts {
		dst = append(dst, h.counts[i].Load())
	}
	return dst
}

// Overflow returns the count of observations above the last bound.
func (h *Histogram) Overflow() int64 { return h.overflow.Load() }

// MergeParts folds a shipped histogram increment into h: per-bucket count
// increments (one per bound, same order), an overflow increment, a sum
// increment, and cumulative min/max candidates. Min/max are applied only
// when the increment carries observations (bucket counts or overflow
// non-zero), so replay-merged cumulative extrema stay idempotent. bounds
// must match h's bounds exactly and counts must be non-negative.
func (h *Histogram) MergeParts(bounds []float64, counts []int64, overflow int64, sum, min, max float64) error {
	if len(bounds) != len(h.bounds) || len(counts) != len(h.bounds) {
		return fmt.Errorf("obs: histogram merge with %d bounds / %d counts, want %d", len(bounds), len(counts), len(h.bounds))
	}
	for i, b := range bounds {
		if b != h.bounds[i] {
			return fmt.Errorf("obs: histogram merge bound %d mismatch (%g vs %g)", i, b, h.bounds[i])
		}
	}
	var n int64
	for _, c := range counts {
		if c < 0 {
			return fmt.Errorf("obs: histogram merge with negative bucket count %d", c)
		}
		n += c
	}
	if overflow < 0 {
		return fmt.Errorf("obs: histogram merge with negative overflow %d", overflow)
	}
	n += overflow
	for i, c := range counts {
		if c != 0 {
			h.counts[i].Add(c)
		}
	}
	if overflow != 0 {
		h.overflow.Add(overflow)
	}
	if n == 0 {
		return nil
	}
	h.count.Add(n)
	atomicAddFloat(&h.sumBits, sum)
	if !math.IsNaN(min) {
		atomicMinFloat(&h.minBits, min)
	}
	if !math.IsNaN(max) {
		atomicMaxFloat(&h.maxBits, max)
	}
	return nil
}

// CounterDelta tracks one monotonic counter's last-shipped value. Take
// returns the increment since the previous Take (the whole value on first
// use). A value below the tracked baseline means the counter was reset
// (test isolation, process restart); Take re-baselines and ships the full
// current value so the rollup never goes backwards.
type CounterDelta struct{ prev int64 }

// Take reads c and returns its increment since the last Take.
func (d *CounterDelta) Take(c *Counter) int64 {
	cur := c.Value()
	delta := cur - d.prev
	if delta < 0 {
		delta = cur
	}
	d.prev = cur
	return delta
}

// GaugeDelta tracks one gauge's last-shipped value so unchanged
// last-write-wins series are not re-shipped every interval.
type GaugeDelta struct {
	prev float64
	sent bool
}

// Take reads g and reports whether the value changed since the last
// shipped one (always true on first use). Comparison is on raw bits, so a
// NaN-valued gauge does not re-ship forever.
func (d *GaugeDelta) Take(g *Gauge) (float64, bool) {
	cur := g.Value()
	if d.sent && math.Float64bits(cur) == math.Float64bits(d.prev) {
		return cur, false
	}
	d.prev, d.sent = cur, true
	return cur, true
}

// HistogramDelta tracks one histogram's last-shipped per-bucket counts,
// overflow, and sum, yielding increments that a MergeParts on the far side
// reapplies. Min/max are cumulative (not deltas): shipped as-is and folded
// idempotently.
type HistogramDelta struct {
	counts   []int64
	overflow int64
	sum      float64
}

// Take reads h and returns the increment since the last Take: per-bucket
// count deltas (appended to dstCounts), the overflow delta, the sum delta,
// and h's cumulative min/max. changed is false when nothing was observed
// since the last snapshot. Like CounterDelta, a histogram that went
// backwards (reset) re-baselines and ships its full current state.
func (d *HistogramDelta) Take(h *Histogram, dstCounts []int64) (counts []int64, overflow int64, sum, min, max float64, changed bool) {
	cur := h.BucketCounts(dstCounts)
	base := d.counts
	if len(base) != len(cur) {
		base = make([]int64, len(cur))
	}
	curOverflow := h.Overflow()
	curSum := h.Sum()
	reset := curOverflow < d.overflow
	for i, c := range cur {
		if c < base[i] {
			reset = true
			break
		}
	}
	if reset {
		base = make([]int64, len(cur))
		d.overflow, d.sum = 0, 0
	}
	var n int64
	for i := range cur {
		delta := cur[i] - base[i]
		n += delta
		cur[i], base[i] = delta, cur[i]
	}
	overflow = curOverflow - d.overflow
	n += overflow
	sum = curSum - d.sum
	d.counts, d.overflow, d.sum = base, curOverflow, curSum
	if n == 0 {
		return cur, 0, 0, 0, 0, false
	}
	return cur, overflow, sum, math.Float64frombits(h.minBits.Load()), math.Float64frombits(h.maxBits.Load()), true
}
