// Package pool is the bounded-concurrency worker pool under every parallel
// path in the repository: sharded likelihood weighting (internal/infer),
// the batched posterior-query API (internal/core),
// the decentralized per-service learners of the paper's Section 3.4
// (internal/decentral), parallel dataset generation (internal/simsvc), and
// the per-system-size experiment harnesses behind Figures 3-5
// (internal/experiments).
//
// The design constraint, inherited from the paper's reproducibility needs,
// is that fan-out must never change answers: ForEach hands out indices
// dynamically (work stealing over an atomic counter) but requires callers
// to make each unit a pure function of its index — results written to
// out[i], randomness drawn from rng.Split(i) — so output is bit-for-bit
// identical at any worker count. Every pool is instrumented through
// internal/obs (pool.<name>.workers, pool.<name>.shard.seconds) so shard
// latency and effective concurrency are observable live.
package pool
