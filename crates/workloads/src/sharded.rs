//! Sharded multi-warehouse TPC-C: the PR 7 write-scaling workload.
//!
//! The nine-table schema partitions naturally by warehouse: every table
//! except `item` carries the warehouse id as its leading column, so one
//! [`ShardMap`] entry per table (all sharing the warehouse ranges) routes
//! the whole mix, and `item` — a read-only catalog — is loaded on every
//! shard and marked replicated.
//!
//! Each terminal drives a shard-aware [`RoutedConnection`] and (when
//! pinned, the DBT-2 configuration) works a fixed home warehouse. A
//! router's `call_procedure` reaches shard 0 only, so the terminals run
//! each transaction's body themselves, statement by statement
//! ([`run_client_side`]), where the single-node drivers make one procedure
//! call. Four of
//! the five transaction types stay within one warehouse and therefore
//! commit on the single-shard fast path (plain `Begin`/`Commit`). A configurable
//! fraction of new-order transactions orders stock from a warehouse on a
//! *different shard* — the TPC-C remote-supplier shape — and those commit
//! via two-phase commit across the two shards.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ifdb::IfdbResult;
use ifdb_client::shard::ShardMap;
use ifdb_client::{ClientConfig, RoutedConnection, RouterConfig};
use ifdb_difc::TagId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::tpcc::{
    run_client_side, run_new_order_with_supply, TpccConfig, TpccDatabase, TpccDeck, TpccInputs,
    TpccTransaction, WarehouseRange,
};

/// The shard map for the TPC-C schema: warehouses `1..=warehouses` split
/// into contiguous ranges over `shards` nodes, every warehouse-keyed table
/// partitioned on those ranges, and the `item` catalog replicated.
pub fn tpcc_shard_map(warehouses: i64, shards: usize) -> ShardMap {
    let ranges = ShardMap::contiguous_ranges(1, warehouses, shards);
    let mut map = ShardMap::new(shards);
    for (table, column) in [
        ("warehouse", "w_id"),
        ("district", "d_w_id"),
        ("customer", "c_w_id"),
        ("history", "h_w_id"),
        ("stock", "s_w_id"),
        ("orders", "o_w_id"),
        ("new_order", "no_w_id"),
        ("order_line", "ol_w_id"),
    ] {
        map = map.shard_table(table, column, 0, ranges.clone());
    }
    map.replicate_table("item")
}

/// The warehouse slice `shard` owns under `map` (empty when the shard owns
/// no warehouses).
pub fn shard_warehouses(map: &ShardMap, shard: usize) -> WarehouseRange {
    map.table_sharding("warehouse")
        .and_then(|s| s.ranges.iter().find(|r| r.shard == shard))
        .map(|r| WarehouseRange { lo: r.lo, hi: r.hi })
        .unwrap_or(WarehouseRange { lo: 1, hi: 0 })
}

/// Loads shard `shard`'s slice of the global TPC-C database into `db`:
/// its warehouse range plus the full replicated `item` catalog.
pub fn load_shard(
    db: ifdb::Database,
    config: &TpccConfig,
    map: &ShardMap,
    shard: usize,
) -> IfdbResult<TpccDatabase> {
    TpccDatabase::load_warehouse_range(db, config.clone(), shard_warehouses(map, shard))
}

/// Configuration of a sharded network TPC-C run.
#[derive(Debug, Clone)]
pub struct ShardedTpccConfig {
    /// One `ifdb-server` address per shard, in shard-id order.
    pub addrs: Vec<String>,
    /// The benchmark principal's user name (must exist on every shard).
    pub user: String,
    /// That user's password.
    pub password: String,
    /// The label every terminal raises on every shard connection (tag ids
    /// must agree across shards — load the shards identically).
    pub label: Vec<TagId>,
    /// Scale parameters of the loaded cluster (`warehouses` is the global
    /// count across all shards).
    pub tpcc: TpccConfig,
    /// Fraction of new-order transactions supplied by a warehouse on a
    /// different shard (those commit via two-phase commit). TPC-C's remote
    /// rate is about 10%.
    pub cross_warehouse_ratio: f64,
    /// Concurrent terminals, each its own [`RoutedConnection`].
    pub connections: usize,
    /// Pin each terminal to a home warehouse (round-robin over the
    /// warehouses), as DBT-2 configures its terminals. Pinning spreads the
    /// closed-loop load evenly over the shards; unpinned terminals draw a
    /// fresh warehouse per transaction, which is what the single-server
    /// fast-path A/B wants (the same workload a plain connection runs).
    pub pin_terminals: bool,
    /// How long to run.
    pub duration: Duration,
    /// RNG seed.
    pub seed: u64,
}

/// The outcome of a sharded run: throughput plus the router's commit-path
/// breakdown summed over all terminals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardedOutcomeCounters {
    /// Transactions committed on the single-shard fast path.
    pub single_shard_commits: u64,
    /// Cross-shard transactions committed via two-phase commit.
    pub distributed_commits: u64,
    /// Cross-shard transactions aborted by a participant's no vote.
    pub distributed_aborts: u64,
}

/// The outcome of a sharded network TPC-C run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardedDriverOutcome {
    /// New-order transactions committed per minute, cluster-wide.
    pub notpm: f64,
    /// Total transactions committed (all five types).
    pub committed: u64,
    /// Transactions rolled back due to write conflicts (or refused votes).
    pub conflicts: u64,
    /// Terminals that failed to connect or died mid-run.
    pub terminal_errors: u64,
    /// Router commit-path counters summed over the terminals.
    pub counters: ShardedOutcomeCounters,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
}

/// Picks a supplying warehouse on a different shard than `home_w`, or
/// `home_w` itself when no other shard owns warehouses.
fn remote_supply_warehouse(
    map: &ShardMap,
    config: &TpccConfig,
    rng: &mut StdRng,
    home_w: i64,
) -> i64 {
    let home_shard = map.shard_for_key("warehouse", home_w);
    for _ in 0..32 {
        let candidate = rng.gen_range(1..=config.warehouses);
        if map.shard_for_key("warehouse", candidate) != home_shard {
            return candidate;
        }
    }
    home_w
}

/// Runs the TPC-C mix over a sharded cluster with `connections` concurrent
/// terminals, each a shard-aware [`RoutedConnection`] coordinator.
pub fn run_sharded_tpcc(config: &ShardedTpccConfig) -> ShardedDriverOutcome {
    let shards = config.addrs.len();
    let map = Arc::new(tpcc_shard_map(config.tpcc.warehouses, shards));
    let stop = Arc::new(AtomicBool::new(false));
    let new_orders = Arc::new(AtomicU64::new(0));
    let committed = Arc::new(AtomicU64::new(0));
    let conflicts = Arc::new(AtomicU64::new(0));
    let terminal_errors = Arc::new(AtomicU64::new(0));
    let fast_commits = Arc::new(AtomicU64::new(0));
    let two_phase_commits = Arc::new(AtomicU64::new(0));
    let two_phase_aborts = Arc::new(AtomicU64::new(0));
    let deck = Arc::new(TpccDeck::new(config.seed ^ 0xDECC));
    let start = Instant::now();

    std::thread::scope(|scope| {
        for terminal in 0..config.connections {
            let stop = stop.clone();
            let deck = deck.clone();
            let new_orders = new_orders.clone();
            let committed = committed.clone();
            let conflicts = conflicts.clone();
            let terminal_errors = terminal_errors.clone();
            let fast_commits = fast_commits.clone();
            let two_phase_commits = two_phase_commits.clone();
            let two_phase_aborts = two_phase_aborts.clone();
            let map = map.clone();
            let config = config.clone();
            scope.spawn(move || {
                let nodes: Vec<ClientConfig> = config
                    .addrs
                    .iter()
                    .map(|a| {
                        ClientConfig::anonymous(a)
                            .with_user(&config.user, &config.password)
                            .with_label(&config.label)
                    })
                    .collect();
                let mut conn =
                    match RoutedConnection::connect(&RouterConfig::sharded(map.clone(), nodes)) {
                        Ok(c) => c,
                        Err(_) => {
                            terminal_errors.fetch_add(1, Ordering::Relaxed);
                            return;
                        }
                    };
                let seed = config.seed ^ (terminal as u64).wrapping_mul(0x9E37_79B9);
                let mut rng = StdRng::seed_from_u64(seed);
                let home_w = (terminal as i64 % config.tpcc.warehouses) + 1;
                while !stop.load(Ordering::Relaxed) {
                    let kind = deck.deal();
                    let cross = kind == TpccTransaction::NewOrder
                        && shards > 1
                        && rng.gen::<f64>() < config.cross_warehouse_ratio;
                    // Retry a conflict-aborted transaction (as DBT-2 does)
                    // rather than dealing a new card, so the committed mix
                    // tracks the dealt mix despite per-type abort rates.
                    while !stop.load(Ordering::Relaxed) {
                        let w = if config.pin_terminals {
                            home_w
                        } else {
                            rng.gen_range(1..=config.tpcc.warehouses)
                        };
                        let result = if cross {
                            let d = rng.gen_range(1..=config.tpcc.districts_per_warehouse);
                            let supply = remote_supply_warehouse(&map, &config.tpcc, &mut rng, w);
                            run_new_order_with_supply(
                                &config.tpcc,
                                &mut conn,
                                &mut rng,
                                w,
                                d,
                                supply,
                            )
                        } else {
                            // The router's procedures reach shard 0 only,
                            // so the terminal runs the body itself.
                            let inputs = TpccInputs::draw(&config.tpcc, &mut rng, kind, w);
                            run_client_side(&mut conn, &inputs)
                        };
                        match result {
                            Ok(true) => {
                                committed.fetch_add(1, Ordering::Relaxed);
                                if kind == TpccTransaction::NewOrder {
                                    new_orders.fetch_add(1, Ordering::Relaxed);
                                }
                                break;
                            }
                            Ok(false) => {
                                conflicts.fetch_add(1, Ordering::Relaxed);
                            }
                            // A dead connection would hot-spin for the rest
                            // of the run; count the terminal as lost and
                            // stop it.
                            Err(ifdb::IfdbError::Remote { code, .. })
                                if code == ifdb_client::protocol::code::PROTOCOL as u16 =>
                            {
                                terminal_errors.fetch_add(1, Ordering::Relaxed);
                                return;
                            }
                            Err(_) => {
                                conflicts.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                }
                let stats = conn.stats();
                fast_commits.fetch_add(stats.single_shard_commits, Ordering::Relaxed);
                two_phase_commits.fetch_add(stats.distributed_commits, Ordering::Relaxed);
                two_phase_aborts.fetch_add(stats.distributed_aborts, Ordering::Relaxed);
                let _ = conn.close();
            });
        }
        std::thread::sleep(config.duration);
        stop.store(true, Ordering::Relaxed);
    });

    let elapsed = start.elapsed();
    ShardedDriverOutcome {
        notpm: new_orders.load(Ordering::Relaxed) as f64 * 60.0 / elapsed.as_secs_f64(),
        committed: committed.load(Ordering::Relaxed),
        conflicts: conflicts.load(Ordering::Relaxed),
        terminal_errors: terminal_errors.load(Ordering::Relaxed),
        counters: ShardedOutcomeCounters {
            single_shard_commits: fast_commits.load(Ordering::Relaxed),
            distributed_commits: two_phase_commits.load(Ordering::Relaxed),
            distributed_aborts: two_phase_aborts.load(Ordering::Relaxed),
        },
        elapsed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifdb::Database;
    use ifdb_platform::Authenticator;
    use ifdb_server::{start, ServerConfig, ServerHandle};

    fn tiny() -> TpccConfig {
        TpccConfig {
            warehouses: 4,
            districts_per_warehouse: 2,
            customers_per_district: 5,
            items: 20,
            initial_orders_per_district: 2,
            tags_per_label: 1,
            seed: 13,
        }
    }

    fn start_cluster(config: &TpccConfig, shards: usize) -> (Vec<ServerHandle>, Vec<TagId>) {
        let map = tpcc_shard_map(config.warehouses, shards);
        let mut servers = Vec::new();
        let mut label = Vec::new();
        for shard in 0..shards {
            let tpcc = load_shard(Database::in_memory(), config, &map, shard).unwrap();
            let tags: Vec<TagId> = tpcc.label.iter().collect();
            if shard == 0 {
                label = tags;
            } else {
                assert_eq!(label, tags, "identically loaded shards agree on tag ids");
            }
            let auth = Arc::new(Authenticator::new());
            auth.register("tpcc", "pw", tpcc.principal);
            servers.push(start(tpcc.db.clone(), auth, ServerConfig::default()).unwrap());
        }
        (servers, label)
    }

    #[test]
    fn map_covers_all_warehouse_tables() {
        let map = tpcc_shard_map(4, 2);
        for table in [
            "warehouse",
            "district",
            "customer",
            "history",
            "stock",
            "orders",
            "new_order",
            "order_line",
        ] {
            assert!(map.table_sharding(table).is_some(), "{table} is sharded");
        }
        assert!(map.is_replicated("item"));
        assert_eq!(map.shard_for_key("warehouse", 1), 0);
        assert_eq!(map.shard_for_key("warehouse", 4), 1);
        assert_eq!(shard_warehouses(&map, 1), WarehouseRange { lo: 3, hi: 4 });
    }

    #[test]
    fn sharded_mix_commits_on_both_paths() {
        let config = tiny();
        let (servers, label) = start_cluster(&config, 2);
        let outcome = run_sharded_tpcc(&ShardedTpccConfig {
            addrs: servers.iter().map(|s| s.addr().to_string()).collect(),
            user: "tpcc".into(),
            password: "pw".into(),
            label,
            tpcc: config,
            cross_warehouse_ratio: 0.3,
            connections: 2,
            pin_terminals: false,
            duration: Duration::from_millis(600),
            seed: 21,
        });
        assert_eq!(outcome.terminal_errors, 0);
        assert!(outcome.committed > 0, "the sharded mix makes progress");
        assert!(
            outcome.counters.single_shard_commits > 0,
            "single-warehouse transactions stay on the fast path"
        );
        assert!(
            outcome.counters.distributed_commits > 0,
            "remote-supplier new-orders commit via 2PC: {outcome:?}"
        );
        for server in servers {
            server.shutdown();
        }
    }
}
