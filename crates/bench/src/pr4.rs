//! The PR 4 network-service snapshot, emitted as `BENCH_pr4.json`.
//!
//! PR 4 moved the reproduction from an in-process library behind
//! `platform::httpsim` to the paper's actual deployment shape: a TCP server
//! (`ifdb-server`) with per-connection DIFC sessions, a server-wide
//! prepared-statement cache, and admission control, driven by `ifdb-client`
//! connections. The panels measure what that front door costs and what the
//! durability subsystem gains from genuinely independent committers:
//!
//! * **network TPC-C scaling** — NOTPM under `GROUP_COMMIT` as the number
//!   of client connections grows 1 → 4 → 8 → 16. Each terminal is a real
//!   TCP connection; the acceptance target is ≥ 2× NOTPM from 1 → 8.
//! * **network WIPS** — the CarTel Figure-3 web mix, with the application
//!   server's scripts running over pooled wire-protocol connections.
//! * **prepared-statement cache** — hit rate on the steady-state TPC-C
//!   workload (target > 90%): every terminal re-executes the same ~30
//!   statement shapes with different parameters.
//! * **group-commit delta vs in-process** — the same TPC-C scale driven
//!   in-process (PR 3's driver) and over the network, comparing NOTPM and
//!   fsyncs per commit.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use ifdb::prelude::*;
use ifdb_cartel::{scripts, CartelApp, CartelConfig};
use ifdb_platform::httpsim::{ClosedLoopDriver, DriverConfig};
use ifdb_platform::webserver::ServerConfig as WebConfig;
use ifdb_platform::AppServer;
use ifdb_server::{start, ServerConfig, ServerHandle};
use ifdb_workloads::driver::{TpccDriver, TpccDriverConfig};
use ifdb_workloads::{run_network_tpcc, NetworkTpccConfig, TpccConfig, TpccDatabase};
use serde::Serialize;

use crate::experiments::ExperimentScale;
use crate::report::{header, output_dir, row, write_json};

/// One point of the NOTPM-vs-connections curve.
#[derive(Debug, Clone, Serialize)]
pub struct NetworkTpccPoint {
    /// Concurrent client connections (terminals).
    pub connections: usize,
    /// Warehouses loaded for this point (scaled with terminals, as the
    /// TPC-C spec prescribes, to keep hot-row conflicts realistic).
    pub warehouses: i64,
    /// Mean per-terminal think time in milliseconds (TPC-C terminal
    /// emulator behaviour; the scaling curve is a closed loop over it).
    pub think_time_ms: f64,
    /// New-order transactions per minute.
    pub notpm: f64,
    /// Transactions committed during the run.
    pub committed: u64,
    /// Snapshot-isolation rollbacks.
    pub conflicts: u64,
    /// WAL fsyncs during the run.
    pub wal_fsyncs: u64,
    /// Commits that rode another connection's fsync (group-commit
    /// followers).
    pub commits_batched: u64,
    /// fsyncs per committed transaction (1.0 = no batching at all).
    pub fsyncs_per_commit: f64,
    /// Prepared-statement cache hit rate over the run.
    pub stmt_cache_hit_rate: f64,
    /// Distinct statement shapes the workload produced.
    pub stmt_cache_size: u64,
}

/// One point of the WIPS-vs-clients curve (CarTel mix over the wire).
#[derive(Debug, Clone, Serialize)]
pub struct NetworkWipsPoint {
    /// Concurrent closed-loop clients.
    pub clients: usize,
    /// Completed web interactions per second.
    pub wips: f64,
    /// Requests that returned an error.
    pub failed: u64,
    /// 90th-percentile request latency in microseconds.
    pub p90_us: f64,
}

/// In-process vs network at the same scale: the group-commit delta.
#[derive(Debug, Clone, Serialize)]
pub struct InProcessComparison {
    /// Terminals/connections in both runs.
    pub terminals: usize,
    /// NOTPM with in-process sessions (the PR 3 deployment).
    pub inprocess_notpm: f64,
    /// NOTPM over the network.
    pub network_notpm: f64,
    /// fsyncs per commit in-process.
    pub inprocess_fsyncs_per_commit: f64,
    /// fsyncs per commit over the network.
    pub network_fsyncs_per_commit: f64,
}

/// Everything `BENCH_pr4.json` records.
#[derive(Debug, Clone, Serialize)]
pub struct BenchPr4Report {
    /// Panel 1: NOTPM vs connection count over the wire.
    pub network_tpcc: Vec<NetworkTpccPoint>,
    /// `notpm(8 connections) / notpm(1 connection)` (acceptance ≥ 2).
    pub tpcc_scaling_1_to_8: f64,
    /// Panel 2: CarTel web mix over the wire.
    pub network_wips: Vec<NetworkWipsPoint>,
    /// Panel 3/4: in-process vs network at 8 terminals.
    pub comparison: InProcessComparison,
    /// Steady-state prepared-statement cache hit rate (max over the TPC-C
    /// runs; acceptance > 0.9).
    pub stmt_cache_hit_rate: f64,
}

fn bench_dir(tag: &str) -> PathBuf {
    let dir = output_dir().join(format!("pr4_{tag}"));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Per-terminal think time for the scaling curve. TPC-C's remote terminal
/// emulators think between transactions; a closed loop without think time
/// saturates one terminal's round-trip budget, so the curve would measure
/// host parallelism (1 core in CI) rather than the server's ability to
/// serve many concurrent sessions.
const THINK_MEAN: Duration = Duration::from_millis(4);
const THINK_MAX: Duration = Duration::from_millis(20);

/// TPC-C scale for `terminals` concurrent terminals: warehouses grow with
/// terminals (the spec couples them), keeping hot-row write conflicts at a
/// realistic rate as concurrency rises.
fn tpcc_scale(terminals: usize) -> TpccConfig {
    TpccConfig {
        warehouses: (terminals as i64).max(2),
        districts_per_warehouse: 5,
        customers_per_district: 20,
        items: 50,
        initial_orders_per_district: 5,
        tags_per_label: 2,
        seed: 29,
    }
}

fn durable_tpcc(dir: &Path, terminals: usize) -> TpccDatabase {
    let db = Database::new(
        DatabaseConfig::on_disk(dir.to_path_buf(), 1024)
            .with_seed(0x1FDB)
            .with_durability(ifdb::DurabilityConfig::GROUP_COMMIT),
    );
    TpccDatabase::load(db, tpcc_scale(terminals)).unwrap()
}

fn start_tpcc_server(tpcc: &TpccDatabase, workers: usize) -> ServerHandle {
    let auth = Arc::new(ifdb_platform::Authenticator::new());
    auth.register("tpcc", "pw", tpcc.principal);
    start(
        tpcc.db.clone(),
        auth,
        ServerConfig {
            workers,
            ..ServerConfig::default()
        },
    )
    .unwrap()
}

/// Panel 1: durable network TPC-C at `connections` concurrent terminals.
pub fn measure_network_tpcc(connections: usize, duration: Duration) -> NetworkTpccPoint {
    let dir = bench_dir(&format!("net_tpcc_{connections}"));
    let tpcc = durable_tpcc(&dir, connections);
    let label: Vec<TagId> = tpcc.label.iter().collect();
    let server = start_tpcc_server(&tpcc, connections + 2);
    let before = tpcc.db.engine().stats();
    let outcome = run_network_tpcc(&NetworkTpccConfig {
        addr: server.addr().to_string(),
        user: "tpcc".into(),
        password: "pw".into(),
        label,
        tpcc: tpcc_scale(connections),
        connections,
        duration,
        mean_think_time: THINK_MEAN,
        max_think_time: THINK_MAX,
        seed: 5,
    });
    let after = tpcc.db.engine().stats();
    let stats = server.stats();
    server.shutdown();
    drop(tpcc);
    std::fs::remove_dir_all(&dir).ok();
    let fsyncs = after.wal_fsyncs - before.wal_fsyncs;
    NetworkTpccPoint {
        connections,
        warehouses: tpcc_scale(connections).warehouses,
        think_time_ms: THINK_MEAN.as_secs_f64() * 1e3,
        notpm: outcome.notpm,
        committed: outcome.committed,
        conflicts: outcome.conflicts,
        wal_fsyncs: fsyncs,
        commits_batched: after.commits_batched - before.commits_batched,
        fsyncs_per_commit: fsyncs as f64 / outcome.committed.max(1) as f64,
        stmt_cache_hit_rate: stats.stmt_cache_hit_rate(),
        stmt_cache_size: stats.stmt_cache_size,
    }
}

/// Panel 2: the CarTel Figure-3 mix through a networked application server.
pub fn measure_network_wips(clients_curve: &[usize], duration: Duration) -> Vec<NetworkWipsPoint> {
    const SECRET: &str = "bench-platform-secret";
    let app = CartelApp::build(&CartelConfig {
        users: 8,
        cars_per_user: 2,
        measurements_per_car: 30,
        ..CartelConfig::default()
    });
    let handle = start(
        app.db.clone(),
        app.server.auth_handle(),
        ServerConfig {
            workers: clients_curve.iter().copied().max().unwrap_or(16) + 2,
            platform_secret: Some(SECRET.into()),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let net_server = Arc::new(AppServer::networked(
        app.db.clone(),
        app.server.auth_handle(),
        WebConfig::default(),
        &handle.addr().to_string(),
        SECRET,
    ));
    scripts::register_scripts(&net_server, app.policy.clone());
    let users: Vec<String> = app
        .policy
        .users()
        .iter()
        .map(|u| u.username.clone())
        .collect();
    let points = clients_curve
        .iter()
        .map(|&clients| {
            let driver = ClosedLoopDriver::new(net_server.clone(), |script, user, _rng| {
                ifdb_platform::Request::new(script).as_user(user)
            });
            let report = driver.run(&DriverConfig {
                clients,
                duration,
                mean_think_time: Duration::from_millis(3),
                max_think_time: Duration::from_millis(15),
                mix: scripts::figure3_mix(),
                users: users.clone(),
                seed: 17,
            });
            NetworkWipsPoint {
                clients,
                wips: report.throughput,
                failed: report.failed,
                p90_us: report.latency.p90_us,
            }
        })
        .collect();
    handle.shutdown();
    points
}

/// Panels 3/4: in-process vs network TPC-C at the same scale.
pub fn measure_comparison(terminals: usize, duration: Duration) -> InProcessComparison {
    // In-process: the PR 3 driver on its own durable database.
    let dir = bench_dir("cmp_inprocess");
    let tpcc = durable_tpcc(&dir, terminals);
    let outcome = TpccDriver::new(&tpcc).run(&TpccDriverConfig {
        clients: terminals,
        duration,
        seed: 5,
    });
    let inprocess_notpm = outcome.notpm;
    let inprocess_fpc = outcome.wal_fsyncs as f64 / outcome.committed.max(1) as f64;
    drop(tpcc);
    std::fs::remove_dir_all(&dir).ok();

    // Network, same scale and duration.
    let net = measure_network_tpcc(terminals, duration);
    InProcessComparison {
        terminals,
        inprocess_notpm,
        network_notpm: net.notpm,
        inprocess_fsyncs_per_commit: inprocess_fpc,
        network_fsyncs_per_commit: net.fsyncs_per_commit,
    }
}

/// Produces (and prints) the complete PR 4 snapshot.
pub fn bench_pr4_report(scale: ExperimentScale) -> BenchPr4Report {
    let (tpcc_ms, wips_ms, curve): (u64, u64, Vec<usize>) = match scale {
        ExperimentScale::Quick => (700, 400, vec![1, 4, 8]),
        ExperimentScale::Full => (2_000, 1_000, vec![1, 4, 8, 16]),
    };

    header("network TPC-C: NOTPM vs connections (GROUP_COMMIT)");
    let network_tpcc: Vec<NetworkTpccPoint> = curve
        .iter()
        .map(|&c| {
            let p = measure_network_tpcc(c, Duration::from_millis(tpcc_ms));
            row(
                &format!("{c} connections"),
                format!(
                    "{:.0} NOTPM, {:.2} fsyncs/commit, cache {:.1}%",
                    p.notpm,
                    p.fsyncs_per_commit,
                    p.stmt_cache_hit_rate * 100.0
                ),
            );
            p
        })
        .collect();
    let notpm_at = |c: usize| {
        network_tpcc
            .iter()
            .find(|p| p.connections == c)
            .map(|p| p.notpm)
            .unwrap_or(0.0)
    };
    let tpcc_scaling_1_to_8 = notpm_at(8) / notpm_at(1).max(1e-9);
    row("scaling 1 -> 8", format!("{tpcc_scaling_1_to_8:.2}x"));

    header("network WIPS: CarTel Figure-3 mix over the wire");
    let network_wips = measure_network_wips(&curve, Duration::from_millis(wips_ms));
    for p in &network_wips {
        row(
            &format!("{} clients", p.clients),
            format!(
                "{:.0} WIPS, p90 {:.0} us, {} failed",
                p.wips, p.p90_us, p.failed
            ),
        );
    }

    header("in-process vs network (8 terminals)");
    let comparison = measure_comparison(8, Duration::from_millis(tpcc_ms));
    row(
        "in-process NOTPM",
        format!("{:.0}", comparison.inprocess_notpm),
    );
    row("network NOTPM", format!("{:.0}", comparison.network_notpm));
    row(
        "fsyncs/commit (in-process / network)",
        format!(
            "{:.2} / {:.2}",
            comparison.inprocess_fsyncs_per_commit, comparison.network_fsyncs_per_commit
        ),
    );

    let stmt_cache_hit_rate = network_tpcc
        .iter()
        .map(|p| p.stmt_cache_hit_rate)
        .fold(0.0f64, f64::max);
    row(
        "best steady-state cache hit rate",
        format!("{:.1}%", stmt_cache_hit_rate * 100.0),
    );

    let report = BenchPr4Report {
        network_tpcc,
        tpcc_scaling_1_to_8,
        network_wips,
        comparison,
        stmt_cache_hit_rate,
    };
    write_json("bench_pr4", &report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn network_tpcc_point_commits_and_caches() {
        let p = measure_network_tpcc(2, Duration::from_millis(300));
        assert!(p.committed > 0);
        assert!(p.notpm > 0.0);
        assert!(p.stmt_cache_hit_rate > 0.5);
    }
}
