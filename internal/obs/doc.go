// Package obs is the dependency-free observability substrate of the
// KERT-BN pipeline: atomic counters, gauges and fixed-bucket latency
// histograms (with quantile estimation), lightweight span timers with
// parent/child nesting, and a concurrency-safe named registry that
// snapshots to JSON and serves a live HTTP introspection endpoint
// (/metrics, /spans, plus mounted net/http/pprof and expvar).
//
// The paper's whole argument rests on costs the system can observe about
// itself — model (re)construction time (Fig. 3/4), decentralized vs
// centralized learning time (Fig. 5), threshold-violation error (Eq. 5) —
// so the long-running pieces (monitor.Server, core.Scheduler, decentral,
// infer) record into the default registry and every CLI can expose or dump
// the numbers.
//
// Naming scheme (dotted, lowercase; spans implicitly own a
// "<name>.seconds" histogram):
//
//	build.kert / build.kert.structure / build.kert.cpd / build.kert.dcpt
//	build.nrt  / build.nrt.structure  / build.nrt.params
//	sched.rebuild, sched.points_pushed, sched.window_fill
//	monitor.batches, monitor.measurements, monitor.rows_assembled, ...
//	decentral.learn, decentral.ship, decentral.node_learn.seconds, ...
//	infer.query, infer.ve.*, infer.lw.*, infer.lw.par.*
//	pool.<name>.calls / pool.<name>.workers / pool.<name>.shard.seconds
//	core.batch.*, parallel.* (BENCH_parallel.json series)
//	bench.* (per-system-size experiment series)
package obs
