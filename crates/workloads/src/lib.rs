//! Workload generators for the IFDB evaluation.
//!
//! * [`rng`] — TPC-C's non-uniform random (NURand) helpers and other
//!   distributions.
//! * [`tpcc`] — a scaled-down TPC-C / DBT-2 implementation: schema, loader,
//!   the five transaction types, and the standard mix. Used to reproduce
//!   Figure 6 (throughput vs. tags per label).
//! * [`driver`] — closed-loop transaction drivers measuring NOTPM
//!   (new-order transactions per minute) with zero think time, as DBT-2 is
//!   configured in Section 8.3: an in-process driver
//!   ([`driver::TpccDriver`]) and a network driver
//!   ([`driver::run_network_tpcc`]) whose terminals are independent
//!   `ifdb-client` connections to an `ifdb-server`.
//! * [`sharded`] — multi-warehouse TPC-C over range-partitioned primary
//!   shards: per-shard loaders, the warehouse shard map, and a closed-loop
//!   driver whose terminals are shard-aware routers (single-warehouse
//!   transactions on the fast path, remote-supplier new-orders via
//!   two-phase commit), measuring NOTPM across the cluster.
//!
//! The CarTel web workload (Figure 3 mix, TPC-W think times) lives in
//! `ifdb-cartel::scripts::figure3_mix` and `ifdb-platform::httpsim`.

pub mod driver;
pub mod rng;
pub mod sharded;
pub mod tpcc;

pub use driver::{
    run_network_tpcc, DriverOutcome, NetworkDriverOutcome, NetworkTpccConfig, TpccDriver,
    TpccDriverConfig,
};
pub use sharded::{
    load_shard, run_sharded_tpcc, tpcc_shard_map, ShardedDriverOutcome, ShardedTpccConfig,
};
pub use tpcc::{
    create_schema, run_new_order_with_supply, run_transaction_at, run_transaction_on, table_defs,
    TpccConfig, TpccDatabase, TpccTransaction, WarehouseRange,
};
