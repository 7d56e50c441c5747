GO ?= go

.PHONY: all build vet test race fuzz differential alloc deadcode bench bench-parallel bench-incremental bench-drift bench-trace bench-serve bench-wire bench-outage bench-fleet serve-e2e journal-e2e fleet-e2e equivalence fmt

all: vet build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test -race ./...

# The concurrency-heavy packages — observability, transport, the worker
# pool, the sharded samplers, and the incremental ingest paths — alone
# under the race detector for a fast signal.
race:
	$(GO) test -race ./internal/obs/ ./internal/monitor/ ./internal/decentral/ ./internal/pool/ ./internal/infer/ ./internal/faulty/ ./internal/wire/ ./internal/wire/binfmt/ ./internal/dataset/ ./internal/core/ ./internal/health/ ./internal/gateway/ ./internal/journal/ ./internal/telemetry/

# Incremental-vs-full equivalence: refits from sufficient statistics must
# match from-scratch builds (bit-identical discrete, <= 1e-9 continuous).
equivalence:
	$(GO) test ./internal/core -run 'Incremental.*Equivalence' -count=1 -v
	$(GO) test ./internal/learn -run 'Stats.*Equivalence' -count=1 -v

# Fuzz the framed wire codec: Decode must never panic on truncated or
# corrupted frames (gob, flagged, or fixed-layout binary), and no binfmt
# payload may decode without surviving a re-encode round trip.
fuzz:
	$(GO) test ./internal/wire -fuzz=FuzzDecodeMessage -fuzztime=20s
	$(GO) test ./internal/wire/binfmt -fuzz=FuzzDecodePayload -fuzztime=20s
	$(GO) test ./internal/wire/binfmt -fuzz=FuzzTelemetryDecode -fuzztime=20s
	$(GO) test ./internal/journal -fuzz=FuzzJournalDecode -fuzztime=20s

# Allocation gates: the per-row hot paths (frame encode, health scoring,
# stream ingest, compiled-plan LW sampling, the timeout-count f, the lane
# evaluator's step) must not allocate, and exact inference for P(D), the
# D-CPT on kertmon's discrete model, an agent batch and a health deploy's
# sample storage stay within their budgets.
alloc:
	$(GO) test ./internal/wire ./internal/health ./internal/infer ./internal/dataset ./internal/core ./internal/workflow ./internal/monitor -run 'ZeroAlloc|DoesNotAllocate|AllocBudget' -count=1 -v

# Differential tests: likelihood-weighting posteriors against the exact
# Gaussian oracle.
differential:
	$(GO) test ./internal/infer -run Differential -count=1 -v

# Unlinked code: build every binary, list its symbols, and fail on any
# production function that none of them links unless it is on
# scripts/deadcode/allowlist.txt (or on a stale allowlist entry).
deadcode:
	$(GO) run ./scripts/deadcode

# Regenerate the committed instrumented-benchmark baseline (quick sweeps).
bench:
	$(GO) run ./cmd/kertbench -quick -metrics-json BENCH_seed.json

# Regenerate the committed parallel-vs-serial inference baseline.
bench-parallel:
	$(GO) run ./cmd/kertbench -exp parallel -metrics-json BENCH_parallel.json

# Regenerate the committed incremental-vs-full rebuild baseline.
bench-incremental:
	$(GO) run ./cmd/kertbench -exp incremental -metrics-json BENCH_incremental.json

# Regenerate the committed model-health drift baseline (detection delay and
# Eq. 5 ε recovery, drift-triggered vs fixed-cadence rebuilds).
bench-drift:
	$(GO) run ./cmd/kertbench -exp drift -metrics-json BENCH_drift.json

# Regenerate the committed distributed-tracing baseline (per-hop latency
# decomposition of one drift-chain trace plus sampling overhead).
bench-trace:
	$(GO) run ./cmd/kertbench -exp trace -metrics-json BENCH_trace.json

# Regenerate the committed inference-gateway serving baseline (cold vs
# warm cache latency, closed-loop QPS, cached-result identity).
bench-serve:
	$(GO) run ./cmd/kertbench -exp serve -metrics-json BENCH_serve.json

# Regenerate the committed wire-codec baseline (gob vs fixed binary layout
# bytes on the three hot message types, hot-path ns/row and allocations).
bench-wire:
	$(GO) run ./cmd/kertbench -exp wire -metrics-json BENCH_wire.json

# Regenerate the committed durability baseline (rows delivered/lost across
# a forced server outage with and without the store-and-forward journal,
# plus the truncation-chaos exactly-once exercise).
bench-outage:
	$(GO) run ./cmd/kertbench -exp outage -metrics-json BENCH_outage.json

# Regenerate the committed fleet-telemetry baseline (rollup identity —
# counters bit-exact, merged-histogram quantiles within 1e-9 — plus the
# shipping overhead fraction of the monitored ingest path).
bench-fleet:
	$(GO) run ./cmd/kertbench -exp fleet -metrics-json BENCH_fleet.json

# End-to-end gateway check: start kertquery -serve on real data, drive the
# query API over HTTP (miss -> hit), verify gateway.* counters in /metrics.
serve-e2e:
	./scripts/serve_e2e.sh

# End-to-end fleet telemetry check: one kertmon management server plus two
# agent processes shipping snapshots; the fleet counters must equal the
# sum of the agents' and /metrics.prom must expose both scopes.
fleet-e2e:
	./scripts/fleet_e2e.sh

# End-to-end durability check: run the quick outage experiment (0 rows
# lost, bit-identical model, exactly-once under chaos) and a kertmon run
# in -journal-dir durable mode with per-host journals.
journal-e2e:
	./scripts/outage_e2e.sh

fmt:
	gofmt -l -w .
