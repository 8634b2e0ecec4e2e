//! The PR 7 sharded-primaries snapshot, emitted as `BENCH_pr7.json`.
//!
//! PR 7 partitions the database by key range across N primary shard nodes
//! and gives cross-shard transactions two-phase commit. The panels measure
//! exactly what that buys and what it costs:
//!
//! * **NOTPM vs shard count** — multi-warehouse TPC-C over 1, 2 and 4
//!   shards at constant per-shard scale (warehouses *and* terminals grow
//!   with the cluster, the classic scale-out protocol). Every shard is an
//!   on-disk database with sync-on-commit durability and an emulated
//!   commodity-disk stable-write latency (see `SYNC_LATENCY` — the CI
//!   host's virtual disk acks `fdatasync` from volatile cache, which no
//!   durable medium can), so a single shard's commits serialize behind one
//!   WAL fsync pipeline; extra shards add *independent* WALs whose fsyncs
//!   overlap in wall-clock time.
//!   Acceptance: ≥ 1.7× NOTPM at 2 shards and ≥ 2.8× at 4
//!   (`min_notpm_scaling_1_to_2` / `min_notpm_scaling_1_to_4`). About 10%
//!   of new-orders are supplied by a remote shard and commit via 2PC — the
//!   scaling must survive the realistic cross-shard rate, not assume a
//!   perfectly partitionable load.
//! * **single-shard fast-path overhead** — identically loaded in-memory
//!   servers driven by one closed-loop terminal, once over a plain
//!   connection and once through the shard-aware router (a two-entry shard
//!   map whose nodes both point at the one server, so routing, lazy begins
//!   and the fast-path commit are all exercised at identical capacity). The
//!   no-sync single-terminal setup makes the A/B a pure CPU-and-wire
//!   comparison of the router machinery. Acceptance: the router costs
//!   ≤ 10% NOTPM (`max_fastpath_overhead_frac`).

use std::sync::Arc;
use std::time::Duration;

use ifdb::{Database, DatabaseConfig, DurabilityConfig};
use ifdb_client::shard::ShardMap;
use ifdb_difc::TagId;
use ifdb_platform::Authenticator;
use ifdb_server::{start, ServerConfig, ServerHandle};
use ifdb_workloads::sharded::{load_shard, run_sharded_tpcc, tpcc_shard_map, ShardedTpccConfig};
use ifdb_workloads::{run_network_tpcc, NetworkTpccConfig, TpccConfig};
use serde::Serialize;

use crate::experiments::ExperimentScale;
use crate::report::{header, row, write_json};

const SEED: u64 = 0x5AAD;
/// Warehouses per shard (the per-shard scale held constant as the cluster
/// grows).
const WAREHOUSES_PER_SHARD: i64 = 2;
/// Terminals per shard — enough concurrency that a shard's WAL (not the
/// terminals' round-trip latency) is the saturated resource at every point
/// on the curve.
const TERMINALS_PER_SHARD: usize = 8;
/// Emulated stable-write latency
/// ([`DurabilityConfig::with_sync_latency`]): the CI host's virtualized
/// disk acknowledges `fdatasync` from a volatile cache in ~0.1 ms, which no
/// durable medium does; 12 ms models a commodity disk's stable write, making
/// each shard's WAL the genuine commit bottleneck the scale-out is supposed
/// to multiply.
const SYNC_LATENCY: Duration = Duration::from_millis(12);
/// Fraction of new-orders supplied by a warehouse on another shard.
const CROSS_RATIO: f64 = 0.10;
/// Worker threads per shard server.
const WORKERS: usize = 4;

fn tpcc_config(shards: usize) -> TpccConfig {
    TpccConfig {
        warehouses: WAREHOUSES_PER_SHARD * shards as i64,
        districts_per_warehouse: 4,
        customers_per_district: 10,
        items: 40,
        initial_orders_per_district: 3,
        tags_per_label: 1,
        seed: SEED,
    }
}

/// One running shard: its server and the on-disk directory to clean up.
struct Shard {
    server: ServerHandle,
    dir: std::path::PathBuf,
}

/// Builds and starts a `shards`-node cluster: every shard an on-disk
/// sync-on-commit database loaded with its warehouse slice (plus the
/// replicated item catalog). Returns the shards and the benchmark label's
/// tags (identical on every shard by identical load order).
fn start_cluster(
    config: &TpccConfig,
    map: &ShardMap,
    run_tag: &str,
    durable: bool,
) -> (Vec<Shard>, Vec<TagId>) {
    let mut shards = Vec::new();
    let mut label: Vec<TagId> = Vec::new();
    for shard in 0..map.shards() {
        let dir =
            std::env::temp_dir().join(format!("ifdb-pr7-{run_tag}-{shard}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let db = if durable {
            Database::new(
                DatabaseConfig::on_disk(dir.clone(), 256)
                    .with_seed(SEED)
                    .with_durability(DurabilityConfig::SYNC_EACH.with_sync_latency(SYNC_LATENCY)),
            )
        } else {
            // The fast-path A/B wants a pure CPU/wire comparison: no WAL
            // sleeps to bury the router's per-statement cost under.
            Database::new(DatabaseConfig::in_memory().with_seed(SEED))
        };
        let tpcc = load_shard(db, config, map, shard).expect("shard load");
        let tags: Vec<TagId> = tpcc.label.iter().collect();
        if shard == 0 {
            label = tags;
        } else {
            assert_eq!(label, tags, "identically loaded shards agree on tag ids");
        }
        let auth = Arc::new(Authenticator::new());
        auth.register("tpcc", "pw", tpcc.principal);
        let server = start(
            tpcc.db.clone(),
            auth,
            ServerConfig {
                workers: WORKERS,
                ..ServerConfig::default()
            },
        )
        .expect("shard server");
        shards.push(Shard { server, dir });
    }
    (shards, label)
}

fn stop_cluster(shards: Vec<Shard>) {
    for shard in shards {
        shard.server.shutdown();
        std::fs::remove_dir_all(&shard.dir).ok();
    }
}

/// One point on the NOTPM-vs-shards curve.
#[derive(Debug, Clone, Serialize)]
pub struct ShardPoint {
    /// Shard nodes in the cluster.
    pub shards: usize,
    /// Global warehouse count.
    pub warehouses: i64,
    /// Terminals (router coordinators) driving the cluster.
    pub terminals: usize,
    /// New-order transactions per minute, cluster-wide.
    pub notpm: f64,
    /// Total committed transactions.
    pub committed: u64,
    /// Write-conflict (or refused-vote) rollbacks.
    pub conflicts: u64,
    /// Commits on the single-shard fast path.
    pub single_shard_commits: u64,
    /// Cross-shard commits via two-phase commit.
    pub distributed_commits: u64,
    /// Cross-shard aborts (a participant voted no).
    pub distributed_aborts: u64,
    /// Terminals lost mid-run (must be 0).
    pub terminal_errors: u64,
}

/// The fast-path overhead panel.
#[derive(Debug, Clone, Serialize)]
pub struct FastPathPanel {
    /// NOTPM of plain connections against the single server.
    pub direct_notpm: f64,
    /// NOTPM of shard-aware routers against the same server (two-entry
    /// map, both nodes the same address — identical capacity).
    pub routed_notpm: f64,
    /// `1 − routed/direct` (negative values mean the router measured
    /// faster; noise, not magic).
    pub overhead_frac: f64,
    /// Routed-run commits that took the fast path (all of them should).
    pub single_shard_commits: u64,
    /// Routed-run commits that took 2PC (must be 0 at cross ratio 0).
    pub distributed_commits: u64,
}

/// Everything `BENCH_pr7.json` records.
#[derive(Debug, Clone, Serialize)]
pub struct BenchPr7Report {
    /// NOTPM at 1, 2 and 4 shards.
    pub points: Vec<ShardPoint>,
    /// NOTPM of the single-shard cluster (the baseline-band metric).
    pub notpm_one_shard: f64,
    /// NOTPM at two shards.
    pub notpm_two_shards: f64,
    /// NOTPM at four shards.
    pub notpm_four_shards: f64,
    /// `notpm(2 shards) / notpm(1 shard)` — acceptance ≥ 1.7.
    pub notpm_scaling_1_to_2: f64,
    /// `notpm(4 shards) / notpm(1 shard)` — acceptance ≥ 2.8.
    pub notpm_scaling_1_to_4: f64,
    /// The router-overhead panel.
    pub fastpath: FastPathPanel,
    /// `fastpath.overhead_frac` — acceptance ≤ 0.10.
    pub fastpath_overhead_frac: f64,
}

/// Runs the sharded mix against a fresh `shards`-node cluster.
fn measure_shards(shards: usize, duration: Duration) -> ShardPoint {
    let config = tpcc_config(shards);
    let map = tpcc_shard_map(config.warehouses, shards);
    let (cluster, label) = start_cluster(&config, &map, &format!("scale{shards}"), true);
    let outcome = run_sharded_tpcc(&ShardedTpccConfig {
        addrs: cluster
            .iter()
            .map(|s| s.server.addr().to_string())
            .collect(),
        user: "tpcc".into(),
        password: "pw".into(),
        label,
        tpcc: config.clone(),
        cross_warehouse_ratio: CROSS_RATIO,
        connections: TERMINALS_PER_SHARD * shards,
        pin_terminals: true,
        duration,
        seed: SEED ^ shards as u64,
    });
    stop_cluster(cluster);
    ShardPoint {
        shards,
        warehouses: config.warehouses,
        terminals: TERMINALS_PER_SHARD * shards,
        notpm: outcome.notpm,
        committed: outcome.committed,
        conflicts: outcome.conflicts,
        single_shard_commits: outcome.counters.single_shard_commits,
        distributed_commits: outcome.counters.distributed_commits,
        distributed_aborts: outcome.counters.distributed_aborts,
        terminal_errors: outcome.terminal_errors,
    }
}

/// Measures the router's single-shard fast-path cost at identical capacity:
/// identically loaded servers, one driven by a plain connection and one
/// through two-entry shard routing that points both "shards" at it. Three
/// alternating A/B pairs, reporting the pair with the **median** overhead —
/// a single pair of 2-second arms on a busy CI host swings by a few
/// percent, enough to flake a 10% ceiling on a ~5% real cost.
fn measure_fastpath(duration: Duration) -> FastPathPanel {
    let config = tpcc_config(1);
    let map = tpcc_shard_map(config.warehouses, 1);

    let mut pairs: Vec<FastPathPanel> = Vec::new();
    for round in 0..3 {
        // Each arm gets a freshly loaded cluster: a TPC-C run grows the
        // order tables, so measuring the second arm on the first arm's
        // database would bias it slow. The clusters are in-memory/no-sync
        // and each arm is one closed-loop terminal — a pure CPU-and-wire
        // A/B of the router machinery, with no WAL sleeps or scheduler
        // queueing to drown the per-statement routing cost in noise.
        let (cluster, label) = start_cluster(&config, &map, &format!("fpd{round}"), false);
        let direct = run_network_tpcc(&NetworkTpccConfig {
            addr: cluster[0].server.addr().to_string(),
            user: "tpcc".into(),
            password: "pw".into(),
            label: label.clone(),
            tpcc: config.clone(),
            connections: 1,
            duration,
            mean_think_time: Duration::ZERO,
            max_think_time: Duration::ZERO,
            seed: SEED ^ 0xFA57 ^ (round as u64) << 32,
        });
        stop_cluster(cluster);

        // The routed run splits the same warehouses over a two-entry map
        // whose nodes are both this server: full router machinery, same
        // capacity.
        let (cluster, label) = start_cluster(&config, &map, &format!("fpr{round}"), false);
        let addr = cluster[0].server.addr().to_string();
        let routed = run_sharded_tpcc(&ShardedTpccConfig {
            addrs: vec![addr.clone(), addr],
            user: "tpcc".into(),
            password: "pw".into(),
            label,
            tpcc: config.clone(),
            cross_warehouse_ratio: 0.0,
            connections: 1,
            // Unpinned: a plain connection draws a fresh warehouse per
            // transaction, and the A/B arms must run the same workload.
            pin_terminals: false,
            duration,
            seed: SEED ^ 0xFA58 ^ (round as u64) << 32,
        });
        stop_cluster(cluster);

        pairs.push(FastPathPanel {
            direct_notpm: direct.notpm,
            routed_notpm: routed.notpm,
            overhead_frac: 1.0 - routed.notpm / direct.notpm.max(1e-9),
            single_shard_commits: routed.counters.single_shard_commits,
            distributed_commits: routed.counters.distributed_commits,
        });
    }
    pairs.sort_by(|a, b| a.overhead_frac.total_cmp(&b.overhead_frac));
    pairs.swap_remove(1)
}

/// Produces (and prints) the complete PR 7 snapshot.
pub fn bench_pr7_report(scale: ExperimentScale) -> BenchPr7Report {
    let duration = match scale {
        ExperimentScale::Quick => Duration::from_millis(2_000),
        ExperimentScale::Full => Duration::from_millis(5_000),
    };

    header("multi-warehouse TPC-C NOTPM vs shard count (sync-on-commit, ~10% cross-shard)");
    let mut points = Vec::new();
    for shards in [1usize, 2, 4] {
        let point = measure_shards(shards, duration);
        row(
            &format!("{shards} shard(s)"),
            format!(
                "{:.0} NOTPM ({} committed, {} fast-path, {} 2PC commits, {} 2PC aborts)",
                point.notpm,
                point.committed,
                point.single_shard_commits,
                point.distributed_commits,
                point.distributed_aborts
            ),
        );
        points.push(point);
    }
    let notpm_one_shard = points[0].notpm;
    let notpm_two_shards = points[1].notpm;
    let notpm_four_shards = points[2].notpm;
    let notpm_scaling_1_to_2 = notpm_two_shards / notpm_one_shard.max(1e-9);
    let notpm_scaling_1_to_4 = notpm_four_shards / notpm_one_shard.max(1e-9);
    row(
        "scaling",
        format!("{notpm_scaling_1_to_2:.2}x at 2 shards, {notpm_scaling_1_to_4:.2}x at 4"),
    );

    header("single-shard fast-path overhead (router vs plain client, same server)");
    let fastpath = measure_fastpath(duration);
    row(
        "direct / routed",
        format!(
            "{:.0} / {:.0} NOTPM ({:+.1}% overhead)",
            fastpath.direct_notpm,
            fastpath.routed_notpm,
            fastpath.overhead_frac * 100.0
        ),
    );

    let report = BenchPr7Report {
        notpm_one_shard,
        notpm_two_shards,
        notpm_four_shards,
        notpm_scaling_1_to_2,
        notpm_scaling_1_to_4,
        fastpath_overhead_frac: fastpath.overhead_frac,
        fastpath,
        points,
    };
    write_json("bench_pr7", &report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_shard_cluster_commits_on_both_paths() {
        let point = measure_shards(2, Duration::from_millis(500));
        assert_eq!(point.terminal_errors, 0);
        assert!(point.committed > 0);
        assert!(point.single_shard_commits > 0);
    }
}
