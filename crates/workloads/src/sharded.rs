//! Sharded multi-warehouse TPC-C: the write-scaling workload.
//!
//! The nine-table schema partitions naturally by warehouse: every table
//! except `item` carries the warehouse id as its leading column, so one
//! [`ShardMap`] entry per table (all sharing the warehouse ranges) routes
//! the whole mix, and `item` — a read-only catalog — is loaded on every
//! shard and marked replicated.
//!
//! [`run_sharded_tpcc`] runs the one terminal loop
//! ([`run_terminals`]) with a shard-aware [`RoutedConnection`] per
//! terminal. A router's `call_procedure` reaches shard 0 only, so the
//! terminals run each transaction's body themselves, statement by statement
//! ([`run_client_side`]), where a single-node terminal makes one procedure
//! call. Four of the five transaction types stay within one warehouse and
//! therefore commit on the single-shard fast path (plain `Begin`/`Commit`).
//! A configurable fraction of new-order transactions orders stock from a
//! warehouse on a *different shard* — the TPC-C remote-supplier shape
//! ([`TpccInputs::new_order`]) — and those commit via two-phase commit
//! across the two shards.

use std::sync::Arc;

use ifdb::IfdbResult;
use ifdb_client::shard::ShardMap;
use ifdb_client::{ClientConfig, RoutedConnection, RouterConfig, RouterStats};
use rand::rngs::StdRng;
use rand::Rng;

use crate::driver::{run_terminals, DriverOutcome, TerminalConfig};
use crate::tpcc::{
    run_client_side, TpccConfig, TpccDatabase, TpccInputs, TpccTransaction, WarehouseRange,
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

/// Configuration of a sharded TPC-C run.
#[derive(Debug, Clone)]
pub struct ShardedTpccConfig {
    /// One node per shard, in shard-id order, each naming the benchmark
    /// principal (which must exist on every shard) and the label every
    /// terminal raises (tag ids must agree across shards: load the shards
    /// identically).
    pub nodes: Vec<ClientConfig>,
    /// Scale parameters of the loaded cluster (`warehouses` is the global
    /// count across all shards).
    pub tpcc: TpccConfig,
    /// Fraction of new-order transactions supplied by a warehouse on a
    /// different shard (those commit via two-phase commit). TPC-C's remote
    /// rate is about 10%.
    pub cross_warehouse_ratio: f64,
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

/// Runs the TPC-C mix over a sharded cluster ([`run_terminals`]), each
/// terminal a shard-aware [`RoutedConnection`] coordinator that draws a
/// fresh home warehouse per transaction. Returns the outcome and each
/// terminal's router counters (its commit-path breakdown), taken before
/// its connection is closed.
pub fn run_sharded_tpcc(
    config: &ShardedTpccConfig,
    terminals: &TerminalConfig,
) -> (DriverOutcome, Vec<RouterStats>) {
    let shards = config.nodes.len();
    let map = Arc::new(tpcc_shard_map(config.tpcc.warehouses, shards));
    let router = RouterConfig::sharded(map.clone(), config.nodes.clone());
    let tpcc = &config.tpcc;
    let (outcome, conns) = run_terminals(
        terminals,
        |_| RoutedConnection::connect(&router),
        |conn, rng, kind| {
            let w = rng.gen_range(1..=tpcc.warehouses);
            let inputs = if kind == TpccTransaction::NewOrder
                && shards > 1
                && rng.gen::<f64>() < config.cross_warehouse_ratio
            {
                let d = rng.gen_range(1..=tpcc.districts_per_warehouse);
                let supply = remote_supply_warehouse(&map, tpcc, rng, w);
                TpccInputs::new_order(tpcc, rng, w, d, supply)
            } else {
                TpccInputs::draw(tpcc, rng, kind, w)
            };
            // The router's procedures reach shard 0 only, so the terminal
            // runs the body itself.
            run_client_side(conn, &inputs)
        },
    );
    let stats = conns
        .into_iter()
        .map(|conn| {
            let stats = conn.stats();
            let _ = conn.close();
            stats
        })
        .collect();
    (outcome, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifdb::Database;
    use ifdb_difc::TagId;
    use ifdb_platform::Authenticator;
    use ifdb_server::{start, ServerConfig, ServerHandle};
    use std::time::Duration;

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
        let nodes = servers
            .iter()
            .map(|s| {
                ClientConfig::anonymous(&s.addr().to_string())
                    .with_user("tpcc", "pw")
                    .with_label(&label)
            })
            .collect();
        let (outcome, stats) = run_sharded_tpcc(
            &ShardedTpccConfig {
                nodes,
                tpcc: config,
                cross_warehouse_ratio: 0.3,
            },
            &TerminalConfig {
                terminals: 2,
                duration: Duration::from_millis(600),
                seed: 21,
            },
        );
        let summed = |counter: fn(&RouterStats) -> u64| stats.iter().map(counter).sum::<u64>();
        assert_eq!(outcome.terminal_errors, 0);
        assert!(outcome.committed > 0, "the sharded mix makes progress");
        assert!(
            summed(|s| s.single_shard_commits) > 0,
            "single-warehouse transactions stay on the fast path"
        );
        assert!(
            summed(|s| s.distributed_commits) > 0,
            "remote-supplier new-orders commit via 2PC: {outcome:?} {stats:?}"
        );
        for server in servers {
            server.shutdown();
        }
    }
}
