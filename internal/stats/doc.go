// Package stats provides the scalar statistics and random-number
// generation everything else builds on: descriptive statistics (mean,
// variance, quantiles), a few special functions, and the deterministic
// SplitMix64-based RNG.
//
// The RNG is the foundation of the repo-wide reproducibility contract.
// An *RNG is a mutable serial stream (not concurrency-safe); Split(i)
// derives child stream i purely from the parent's current state and the
// index — WITHOUT advancing the parent — so concurrent workers can each
// own an independent deterministic stream. Every parallel fan-out in the
// repo (sharded likelihood weighting, batched queries,
// decentralized learners, dataset generation, experiment repetitions)
// assigns streams by work-item index, never by worker identity, which is
// what makes results identical for a fixed seed at any worker count.
package stats
