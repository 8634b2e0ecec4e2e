//! Workload generators for the IFDB evaluation.
//!
//! * [`rng`] — TPC-C's non-uniform random (NURand) helpers and other
//!   distributions.
//! * [`tpcc`] — a scaled-down TPC-C / DBT-2 implementation: schema, loader,
//!   the five transaction types (each a stored procedure the terminal calls
//!   once), and the standard mix. Used to reproduce Figure 6 (throughput
//!   vs. tags per label).
//! * [`driver`] — the one closed-loop TPC-C terminal ([`run_terminals`]),
//!   measuring NOTPM (new-order transactions per minute) with zero think
//!   time, as DBT-2 is configured in Section 8.3. It runs over any
//!   `SessionApi`: the caller says how a terminal opens its session (an
//!   in-process session, an `ifdb-client` connection to an `ifdb-server`, a
//!   shard-aware router) and how it runs a dealt card.
//! * [`sharded`] — multi-warehouse TPC-C over range-partitioned primary
//!   shards: per-shard loaders, the warehouse shard map, and
//!   [`run_sharded_tpcc`], the terminal loop over shard-aware routers
//!   (single-warehouse transactions on the fast path, remote-supplier
//!   new-orders via two-phase commit).
//!
//! The CarTel web workload (the Figure 3 mix) lives in
//! `ifdb-cartel::scripts::figure3_mix` and `ifdb-platform::httpsim`.

pub mod driver;
pub mod rng;
pub mod sharded;
pub mod tpcc;

pub use driver::{run_terminals, DriverOutcome, TerminalConfig};
pub use sharded::{load_shard, run_sharded_tpcc, tpcc_shard_map, ShardedTpccConfig};
pub use tpcc::{
    create_procedures, create_schema, run_client_side, run_transaction_at, run_transaction_on,
    table_defs, TpccConfig, TpccDatabase, TpccInputs, TpccTransaction, WarehouseRange,
};
