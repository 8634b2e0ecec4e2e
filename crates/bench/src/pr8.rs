//! The PR 8 high-availability snapshot, emitted as `BENCH_pr8.json`.
//!
//! PR 8 gives the replicated primary a failover story: a caught-up replica
//! can be promoted to primary under a bumped promotion generation, the old
//! primary is fenced, and the routing client fails writes over. The panels
//! measure what that costs when it happens:
//!
//! * **failover unavailability window** — a full drill against a live
//!   cluster: TPC-C warms the primary, the primary is stopped, the replica
//!   is promoted, and a routing client hammers writes until one commits on
//!   the successor. The window is the wall-clock from the stop to that
//!   first acknowledged write — everything is in it: the drain, the
//!   promotion (generation bump, WAL re-anchor, first-boot DDL re-run) and
//!   the router's successor probe. Acceptance: ≤ the committed ceiling
//!   (`max_failover_unavailability_ms`).
//! * **post- vs pre-failover NOTPM** — the same closed-loop network TPC-C
//!   run before the drill (against the original primary) and after it
//!   (against the promoted ex-replica). A promoted node is a first-class
//!   primary: same storage engine, constraints re-attached by the
//!   first-boot DDL re-run, so its throughput must land in the same band.
//!   Acceptance: post ≥ `min_notpm_post_over_pre` × pre, and the pre
//!   number itself stays within the committed baseline band
//!   (`baseline_notpm_pre_failover`).

use std::time::{Duration, Instant};

use ifdb::{Datum, Insert};
use ifdb_chaos::cluster::{tpcc_client, tpcc_config};
use ifdb_chaos::{HaCluster, SEED};
use ifdb_client::{RoutedConnection, RouterConfig};
use ifdb_workloads::{run_network_tpcc, NetworkTpccConfig};
use serde::Serialize;

use crate::experiments::ExperimentScale;
use crate::report::{header, row, write_json};

/// Closed-loop terminals per NOTPM arm. Two districts in the chaos-scale
/// TPC-C, so two terminals keep conflicts (which are counted, not fatal)
/// from dominating a 1-warehouse run.
const TERMINALS: usize = 2;

/// Everything `BENCH_pr8.json` records.
#[derive(Debug, Clone, Serialize)]
pub struct BenchPr8Report {
    /// Wall-clock from stopping the primary to the first write acknowledged
    /// by the promoted successor, in milliseconds.
    pub failover_unavailability_ms: f64,
    /// Router write attempts that failed during the window (each is a
    /// bounded retry, not a hang).
    pub writes_refused_during_window: u64,
    /// NOTPM against the original primary, before the drill.
    pub notpm_pre_failover: f64,
    /// NOTPM against the promoted ex-replica, after the drill.
    pub notpm_post_failover: f64,
    /// `post / pre` — acceptance ≥ `min_notpm_post_over_pre`.
    pub notpm_post_over_pre: f64,
    /// Committed transactions in the pre arm.
    pub committed_pre: u64,
    /// Committed transactions in the post arm.
    pub committed_post: u64,
    /// Terminals lost in either arm (must be 0).
    pub terminal_errors: u64,
}

fn tpcc_arm(
    addr: &str,
    label: &[ifdb_difc::TagId],
    duration: Duration,
    seed: u64,
) -> NetworkTpccConfig {
    NetworkTpccConfig {
        addr: addr.to_string(),
        user: "tpcc".into(),
        password: "pw".into(),
        label: label.to_vec(),
        tpcc: tpcc_config(SEED),
        connections: TERMINALS,
        duration,
        mean_think_time: Duration::ZERO,
        max_think_time: Duration::ZERO,
        seed,
    }
}

/// Runs the full drill on two identically fresh clusters. A TPC-C run
/// grows the order tables, so measuring the post arm on the database the
/// pre arm just grew would bias it slow (the same bias the PR 7 fast-path
/// panel dodges): the pre arm gets its own cluster, and the drill cluster
/// promotes a freshly caught-up replica whose state matches the pre arm's
/// starting point.
pub fn measure_failover_drill(duration: Duration) -> BenchPr8Report {
    // Control cluster: NOTPM of a native primary (replica attached, as in
    // the drill, so replication apply load is identical).
    let cluster = HaCluster::start(SEED, 1, None);
    let label = cluster.fixture.tpcc_label.clone();
    let pre = run_network_tpcc(&tpcc_arm(
        &cluster.primary_addr(),
        &label,
        duration,
        SEED ^ 0x08,
    ));
    cluster.shutdown();

    // Drill cluster: stop the primary, promote, and time the window from
    // the stop to the first write the successor acknowledges. The router
    // is connected *before* the stop so the window includes its discovery
    // that the primary is gone.
    let mut cluster = HaCluster::start(SEED, 1, None);
    let paddr = cluster.primary_addr();
    let raddr = cluster.replicas[0].addr().to_string();
    assert!(
        cluster.wait_caught_up(Duration::from_secs(10)),
        "replica catches up before the drill"
    );
    let mut config = RouterConfig::new(
        tpcc_client(&paddr, &label),
        vec![tpcc_client(&raddr, &label)],
    );
    config.failover_timeout = Duration::from_secs(10);
    let mut router = RoutedConnection::connect(&config).expect("router connects");

    let stopped_at = Instant::now();
    cluster.stop_primary();
    cluster.replicas[0].promote().expect("promotion");
    let mut refused = 0u64;
    let mut marker = 8_000_000i64;
    let window = loop {
        marker += 1;
        let ins = Insert::new(
            "chaos_journal",
            vec![Datum::Int(marker), Datum::Int(0), Datum::Int(0)],
        );
        match ifdb::SessionApi::insert(&mut router, &ins) {
            Ok(_) => break stopped_at.elapsed(),
            Err(_) => refused += 1,
        }
    };

    // Post arm: the promoted ex-replica under the identical load, from the
    // same fresh starting state the pre arm had.
    let post = run_network_tpcc(&tpcc_arm(&raddr, &label, duration, SEED ^ 0x88));
    cluster.shutdown();

    BenchPr8Report {
        failover_unavailability_ms: window.as_secs_f64() * 1e3,
        writes_refused_during_window: refused,
        notpm_pre_failover: pre.notpm,
        notpm_post_failover: post.notpm,
        notpm_post_over_pre: post.notpm / pre.notpm.max(1e-9),
        committed_pre: pre.committed,
        committed_post: post.committed,
        terminal_errors: pre.terminal_errors + post.terminal_errors,
    }
}

/// Produces (and prints) the complete PR 8 snapshot.
pub fn bench_pr8_report(scale: ExperimentScale) -> BenchPr8Report {
    let duration = match scale {
        ExperimentScale::Quick => Duration::from_millis(2_000),
        ExperimentScale::Full => Duration::from_millis(5_000),
    };

    header("failover drill: NOTPM before/after promotion, unavailability window");
    let report = measure_failover_drill(duration);
    row(
        "unavailability",
        format!(
            "{:.0} ms ({} refused writes during the window)",
            report.failover_unavailability_ms, report.writes_refused_during_window
        ),
    );
    row(
        "NOTPM pre / post",
        format!(
            "{:.0} / {:.0} ({:.2}x, {} + {} committed)",
            report.notpm_pre_failover,
            report.notpm_post_failover,
            report.notpm_post_over_pre,
            report.committed_pre,
            report.committed_post
        ),
    );

    write_json("bench_pr8", &report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failover_drill_measures_a_bounded_window() {
        let report = measure_failover_drill(Duration::from_millis(400));
        assert_eq!(report.terminal_errors, 0);
        assert!(report.committed_pre > 0, "pre arm commits");
        assert!(report.committed_post > 0, "promoted node commits");
        assert!(
            report.failover_unavailability_ms < 10_000.0,
            "window bounded: {:.0} ms",
            report.failover_unavailability_ms
        );
    }
}
