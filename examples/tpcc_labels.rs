//! Runs the TPC-C workload at several label sizes and prints the throughput
//! trend — a miniature of the Figure 6 experiment — beside the log bytes
//! each committed transaction wrote. Tuples carry their label's id, not its
//! tags, so the log bytes stay flat as labels grow.
//!
//! Run with: `cargo run --release --example tpcc_labels`

use std::time::Duration;

use ifdb_repro::ifdb::{Database, DatabaseConfig};
use ifdb_repro::workloads::{run_terminals, TerminalConfig, TpccConfig, TpccDatabase};

fn main() {
    println!("tags/label   NOTPM (in-memory)   log B/txn");
    for tags in [0usize, 1, 4, 10] {
        let db = Database::new(DatabaseConfig::in_memory().with_seed(tags as u64 + 1));
        let tpcc = TpccDatabase::load(
            db,
            TpccConfig {
                warehouses: 1,
                districts_per_warehouse: 4,
                customers_per_district: 20,
                items: 60,
                initial_orders_per_district: 5,
                tags_per_label: tags,
                seed: 3,
            },
        )
        .expect("load TPC-C");
        let logged_before = tpcc.db.engine().stats().wal_bytes;
        let config = TerminalConfig {
            terminals: 1,
            duration: Duration::from_millis(500),
            seed: 9,
        };
        let (outcome, _) = run_terminals(
            &config,
            |_| tpcc.session(),
            |s, rng, kind| tpcc.run_transaction(s, rng, kind),
        );
        let logged = tpcc.db.engine().stats().wal_bytes - logged_before;
        println!(
            "{tags:>10}   {:>17.0}   {:>9.0}   ({} committed, {} conflicts)",
            outcome.notpm,
            logged as f64 / outcome.committed.max(1) as f64,
            outcome.committed,
            outcome.conflicts
        );
    }
}
