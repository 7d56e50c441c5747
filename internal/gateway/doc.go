// Package gateway promotes the repo's query surface from a one-shot CLI to
// a long-running inference-as-a-service HTTP endpoint — the paper's
// autonomic management server as an always-on JSON API over the live model
// (dComp, pAccel, posterior, threshold sweep, model health).
//
// The serving stack, bottom to top:
//
//   - Compiled-plan reuse: every posterior query resolves its
//     likelihood-weighting plan through the per-model cache (core's
//     plan cache keyed by target + evidence shape), so plan compilation is
//     paid once per (model generation, query shape) instead of per request.
//   - Result cache: an evidence-keyed LRU of fully rendered responses.
//     Keys include the model generation and structure hash, and the whole
//     cache is dropped on a generation swap (Server.SetModel — the
//     scheduler's model-swap signal), so a stale answer can never outlive
//     its model. Execution seeds derive from the cache key, so a cached
//     body is bit-identical to what re-execution would produce.
//   - Request coalescing: concurrent identical queries collapse into ONE
//     underlying core.PosteriorBatch execution; followers wait for the
//     leader's result (singleflight).
//   - Admission control: a bounded in-flight semaphore (503 + Retry-After
//     when saturated) in front of per-tenant token-bucket rate limits
//     (429 + Retry-After), keyed by the X-Kertbn-Tenant header.
//
// A distribution is served as its fixed-size core.Summary (moments,
// quantile ladder, histogram), never as raw samples, so a body is a few KB
// however many Monte-Carlo samples stand behind it.
//
// Every route is instrumented with gateway.* per-route metrics and spans
// through internal/obs, and generation swaps are journaled. The HTTP
// contract — routes, schemas, error semantics, cache headers — is
// documented in API.md at the repo root; a route-coverage test fails if a
// registered route is missing from that document.
package gateway
