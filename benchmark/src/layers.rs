//! The per-layer metrics of a traced invocation, by the names in
//! `BENCHMARK.json`. Times come from the traced replay's spans; counts are
//! deltas of the public counter structs across the timed section of one
//! untraced repeat (all clients), made in the same invocation.

use ifdb_workloads::TpccTransaction;

use crate::gen::{self, DATA_ROWS};
use crate::host::Facts;
use crate::report::Metric;
use crate::run::{Counters, Repeat};
use crate::stats;
use crate::trace::TraceData;

/// `a / b`, or 0 when there was nothing to divide by.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The highest percentile of `latencies` (99 at most) that still has ten
/// samples beyond it, and its value.
fn supported_tail(latencies: &[f64]) -> (f64, f64) {
    for pct in [99.0, 97.5, 95.0, 90.0, 75.0, 50.0] {
        if let Ok(p) = stats::percentile(latencies, pct / 100.0) {
            return (pct, p.value);
        }
    }
    (0.0, 0.0)
}

/// Assembles every per-layer metric.
pub fn per_layer(counted: &Repeat, trace: &TraceData, host: &Facts) -> Vec<Metric> {
    let tracer = &trace.tracer;
    let ops_t = trace.ops as f64;
    let ops_c = counted.ok_ops() as f64;
    let us = |name: &str| tracer.total_us(name).0;
    let mean_us = |name: &str| {
        let (total, count) = tracer.total_us(name);
        ratio(total, count as f64)
    };
    let delta =
        |f: fn(&Counters) -> u64| f(&counted.after).saturating_sub(f(&counted.before)) as f64;

    let call = us("client.call");
    let codec = us("client.codec");
    let session = us("core.session");
    let engine = us("storage.engine");
    let wal = us("storage.wal");
    let memo = us("difc.memo");
    let (tail_pct, tail_us) = supported_tail(&counted.all_latencies());
    let tx_p50 = |kind: TpccTransaction| {
        counted
            .latency_us
            .get(gen::tx_name(kind))
            .map_or(0.0, |l| stats::median(l))
    };
    let fsyncs = delta(|c| c.engine.wal_fsyncs);
    let commits = fsyncs + delta(|c| c.engine.commits_batched);
    let buffer_hits = delta(|c| c.engine.buffer_hits);
    let cache_hits = delta(|c| c.server.stmt_cache_hits);
    let cache_lookups = cache_hits + delta(|c| c.server.stmt_cache_misses);
    let scans = tracer.total_us("storage.engine.scan").1 as f64;

    let m = |name: &str, unit: &'static str, value: f64| Metric::single(name, unit, value);
    vec![
        // client
        m("client.call_us", "us", ratio(call, ops_t)),
        m("client.codec_us_per_op", "us", ratio(codec, ops_t)),
        m(
            "client.request_bytes_per_op",
            "bytes",
            ratio(trace.wire.request as f64, ops_t),
        ),
        m(
            "client.response_bytes_per_op",
            "bytes",
            ratio(trace.wire.response as f64, ops_t),
        ),
        m(
            "client.round_trips_per_op",
            "count",
            ratio(counted.client.round_trips as f64, ops_c),
        ),
        m(
            "client.pipelined_per_op",
            "count",
            ratio(counted.client.pipelined as f64, ops_c),
        ),
        m("client.latency_p99_us", "us", tail_us),
        m("client.latency_tail_pct", "%", tail_pct),
        m(
            "client.commit_us",
            "us",
            ratio(trace.commit_ns as f64 / 1e3, trace.commits as f64),
        ),
        m(
            "client.conflict_retries_per_op",
            "count",
            ratio(counted.retries as f64, ops_c),
        ),
        m(
            "client.tx_new_order_p50_us",
            "us",
            tx_p50(TpccTransaction::NewOrder),
        ),
        m(
            "client.tx_payment_p50_us",
            "us",
            tx_p50(TpccTransaction::Payment),
        ),
        m(
            "client.tx_order_status_p50_us",
            "us",
            tx_p50(TpccTransaction::OrderStatus),
        ),
        m(
            "client.tx_delivery_p50_us",
            "us",
            tx_p50(TpccTransaction::Delivery),
        ),
        m(
            "client.tx_stock_level_p50_us",
            "us",
            tx_p50(TpccTransaction::StockLevel),
        ),
        // server
        m(
            "server.self_us_per_op",
            "us",
            ratio(call - codec - session, ops_t),
        ),
        m(
            "server.requests_per_op",
            "count",
            ratio(delta(|c| c.server.requests), ops_c),
        ),
        m(
            "server.stmt_cache_hit_rate",
            "fraction",
            if cache_lookups == 0.0 {
                1.0
            } else {
                cache_hits / cache_lookups
            },
        ),
        m(
            "server.frames_encoded_per_op",
            "count",
            ratio(delta(|c| c.server.frames_encoded), ops_c),
        ),
        m(
            "server.response_bytes_per_op",
            "bytes",
            ratio(delta(|c| c.server.response_bytes), ops_c),
        ),
        m(
            "server.backpressure_pauses",
            "count",
            delta(|c| c.server.backpressure_pauses),
        ),
        m(
            "server.slow_statements",
            "count",
            delta(|c| c.server.slow_statements),
        ),
        m("server.qos_refused", "count", delta(|c| c.qos_refused)),
        m(
            "server.replica.records_applied",
            "count",
            delta(|c| c.replica.records_applied),
        ),
        m(
            "server.replica.batches",
            "count",
            delta(|c| c.replica.batches),
        ),
        m(
            "server.replica.lag_records_max",
            "count",
            counted.replica_lag_max as f64,
        ),
        m(
            "server.replica.catchup_ms",
            "ms",
            counted.replica_catchup_ms,
        ),
        // core
        m("core.session_us_per_op", "us", ratio(session, ops_t)),
        m(
            "core.self_us_per_op",
            "us",
            ratio(session - engine - wal - memo, ops_t),
        ),
        m(
            "core.rows_examined_per_row_returned",
            "count",
            ratio(trace.rows_examined as f64, trace.rows_returned as f64),
        ),
        m(
            "core.full_table_scans_per_op",
            "count",
            ratio(delta(|c| c.engine.full_table_scans), ops_c),
        ),
        m(
            "core.index_point_lookups_per_op",
            "count",
            ratio(delta(|c| c.engine.index_point_lookups), ops_c),
        ),
        m(
            "core.index_range_scans_per_op",
            "count",
            ratio(delta(|c| c.engine.index_range_scans), ops_c),
        ),
        // difc
        m("difc.memo_us_per_op", "us", ratio(memo, ops_t)),
        m(
            "difc.decide_ns_per_row",
            "ns",
            ratio(memo * 1e3, trace.memo.decided as f64),
        ),
        m(
            "difc.rows_decided_per_op",
            "count",
            ratio(trace.memo.decided as f64, ops_t),
        ),
        m(
            "difc.memo_hit_rate",
            "fraction",
            ratio(trace.memo.hits as f64, trace.memo.decided as f64),
        ),
        m(
            "difc.distinct_labels",
            "count",
            trace.memo.distinct_labels as f64,
        ),
        m(
            "difc.tax_frac",
            "fraction",
            ratio(session, us("core.session.baseline")) - 1.0,
        ),
        m(
            "difc.label_bytes_per_row",
            "bytes",
            ratio(trace.memo.label_bytes as f64, trace.memo.decided as f64),
        ),
        // storage.engine
        m("storage.engine.us_per_op", "us", ratio(engine, ops_t)),
        m(
            "storage.engine.point_lookup_us",
            "us",
            mean_us("storage.engine.point_lookup"),
        ),
        m(
            "storage.engine.scan_ns_per_row",
            "ns",
            ratio(us("storage.engine.scan") * 1e3, scans * DATA_ROWS as f64),
        ),
        m(
            "storage.engine.txn_begin_us",
            "us",
            mean_us("storage.engine.txn_begin"),
        ),
        m(
            "storage.engine.tuples_scanned_per_op",
            "count",
            ratio(delta(|c| c.engine.tuples_scanned), ops_c),
        ),
        m(
            "storage.engine.tuples_inserted_per_op",
            "count",
            ratio(delta(|c| c.engine.tuples_inserted), ops_c),
        ),
        m(
            "storage.engine.buffer_hit_ratio",
            "fraction",
            ratio(buffer_hits, buffer_hits + delta(|c| c.engine.buffer_misses)),
        ),
        m(
            "storage.engine.evictions_per_op",
            "count",
            ratio(delta(|c| c.engine.evictions), ops_c),
        ),
        m(
            "storage.engine.writebacks_per_op",
            "count",
            ratio(delta(|c| c.engine.writebacks), ops_c),
        ),
        m(
            "storage.engine.heap_pages",
            "count",
            counted.heap_pages as f64,
        ),
        m(
            "storage.engine.checkpoint_ms",
            "ms",
            trace.maintenance.checkpoint_ms,
        ),
        m(
            "storage.engine.vacuum_ms",
            "ms",
            trace.maintenance.vacuum_ms,
        ),
        m(
            "storage.engine.recovery_ms",
            "ms",
            trace.maintenance.recovery_ms,
        ),
        m(
            "storage.engine.recovery_replayed_records",
            "count",
            trace.maintenance.recovery_replayed_records as f64,
        ),
        // storage.wal
        m("storage.wal.us_per_op", "us", ratio(wal, ops_t)),
        m(
            "storage.wal.append_us_per_record",
            "us",
            mean_us("storage.wal.append"),
        ),
        m("storage.wal.fsync_us", "us", mean_us("storage.wal.commit")),
        m(
            "storage.wal.records_per_op",
            "count",
            ratio(trace.wal_records as f64, ops_t),
        ),
        m(
            "storage.wal.fsyncs_per_commit",
            "count",
            ratio(fsyncs, commits),
        ),
        m(
            "storage.wal.commits_per_fsync",
            "count",
            ratio(commits, fsyncs),
        ),
        // context
        m(
            "trace.overhead_frac",
            "fraction",
            1.0 - ratio(trace.untraced_s * 1e6, call),
        ),
        m("host.fsync_probe_us", "us", host.fsync_probe_us),
        m("host.loopback_rtt_us", "us", host.loopback_rtt_us),
        m("host.nproc", "count", host.nproc as f64),
    ]
}
