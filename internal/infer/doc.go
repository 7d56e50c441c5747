// Package infer implements the inference paths the KERT-BN system uses:
//
//   - exact variable elimination for fully discrete networks (the path the
//     paper's Section-5 applications use),
//   - exact joint-Gaussian construction and conditioning for fully
//     linear-Gaussian networks,
//   - likelihood weighting for networks containing nonlinear deterministic
//     CPDs (the continuous KERT-BN's D = X1+X2+max(...) node).
//
// Parallel Monte Carlo (parallel.go): LikelihoodWeightingParallel shards
// the sample budget across a bounded worker pool. Determinism contract:
// work is split into fixed-size shards, shard s draws from rng.Split(s) —
// a pure child stream that does not advance the parent — and results are
// reduced in shard index order. Posteriors are therefore bit-for-bit identical
// for a fixed seed at ANY worker count; the worker count only decides how
// many shards are in flight. The parallel LW kernel additionally compiles
// the network into a flat query plan (no per-sample allocation), which is
// why it beats the serial sampler even on one CPU (see
// BENCH_parallel.json).
//
// The serial LikelihoodWeighting entry point is kept unchanged as the
// historical baseline; it draws from the same RNG in a different order,
// so serial and parallel posteriors agree statistically but not
// bit-for-bit.
package infer
