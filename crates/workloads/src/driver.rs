//! The DBT-2-style transaction driver.
//!
//! DBT-2, as configured in Section 8.3, uses zero think time and a constant
//! number of warehouses, and reports NOTPM (new-order transactions per
//! minute). The driver here runs one or more client threads ("terminals")
//! in a closed loop over the standard mix for a fixed duration.
//!
//! The driver is durability-agnostic: pointed at a database configured with
//! [`ifdb::DurabilityConfig`] sync-on-commit or group commit, every
//! committed transaction in the reported throughput is also durable, and
//! the outcome carries the WAL fsync counters so harnesses can verify that
//! group commit actually batched the terminals' flushes.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ifdb_client::{ClientConfig, Connection};
use ifdb_difc::TagId;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::tpcc::{run_transaction_on, TpccConfig, TpccDatabase, TpccDeck, TpccTransaction};

/// Driver configuration.
#[derive(Debug, Clone)]
pub struct TpccDriverConfig {
    /// Concurrent client threads.
    pub clients: usize,
    /// How long to run.
    pub duration: Duration,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TpccDriverConfig {
    fn default() -> Self {
        TpccDriverConfig {
            clients: 1,
            duration: Duration::from_millis(500),
            seed: 42,
        }
    }
}

/// The outcome of a driver run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriverOutcome {
    /// New-order transactions committed per minute (the Figure 6 metric).
    pub notpm: f64,
    /// Total transactions committed (all five types).
    pub committed: u64,
    /// Transactions rolled back due to write conflicts.
    pub conflicts: u64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// WAL fsyncs issued during the run (delta over the run).
    pub wal_fsyncs: u64,
    /// Commits that shared another terminal's fsync during the run
    /// (group-commit followers; zero unless group commit is enabled).
    pub commits_batched: u64,
}

/// Runs the TPC-C mix against a loaded database.
pub struct TpccDriver<'a> {
    tpcc: &'a TpccDatabase,
}

impl<'a> TpccDriver<'a> {
    /// Creates a driver over a loaded database.
    pub fn new(tpcc: &'a TpccDatabase) -> Self {
        TpccDriver { tpcc }
    }

    /// Runs the closed loop and reports NOTPM.
    pub fn run(&self, config: &TpccDriverConfig) -> DriverOutcome {
        let stop = Arc::new(AtomicBool::new(false));
        let new_orders = Arc::new(AtomicU64::new(0));
        let committed = Arc::new(AtomicU64::new(0));
        let conflicts = Arc::new(AtomicU64::new(0));
        let wal_before = self.tpcc.db.engine().stats();
        let start = Instant::now();

        std::thread::scope(|scope| {
            for client in 0..config.clients {
                let stop = stop.clone();
                let new_orders = new_orders.clone();
                let committed = committed.clone();
                let conflicts = conflicts.clone();
                let tpcc = self.tpcc;
                let seed = config.seed ^ (client as u64).wrapping_mul(0x9E37_79B9);
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(seed);
                    let mut session = match tpcc.session() {
                        Ok(s) => s,
                        Err(_) => return,
                    };
                    while !stop.load(Ordering::Relaxed) {
                        let kind = TpccTransaction::draw(&mut rng);
                        match tpcc.run_transaction(&mut session, &mut rng, kind) {
                            Ok(true) => {
                                committed.fetch_add(1, Ordering::Relaxed);
                                if kind == TpccTransaction::NewOrder {
                                    new_orders.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                            Ok(false) => {
                                conflicts.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(_) => {
                                conflicts.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                });
            }
            std::thread::sleep(config.duration);
            stop.store(true, Ordering::Relaxed);
        });

        let elapsed = start.elapsed();
        let no = new_orders.load(Ordering::Relaxed);
        let wal_after = self.tpcc.db.engine().stats();
        DriverOutcome {
            notpm: no as f64 * 60.0 / elapsed.as_secs_f64(),
            committed: committed.load(Ordering::Relaxed),
            conflicts: conflicts.load(Ordering::Relaxed),
            elapsed,
            wal_fsyncs: wal_after.wal_fsyncs - wal_before.wal_fsyncs,
            commits_batched: wal_after.commits_batched - wal_before.commits_batched,
        }
    }
}

/// Configuration of a network (multi-process-style) TPC-C run: every
/// terminal is an independent `ifdb-client` connection to a running
/// `ifdb-server`, so commits from different terminals are genuinely
/// independent committers — exactly the traffic group commit batches.
#[derive(Debug, Clone)]
pub struct NetworkTpccConfig {
    /// The `ifdb-server` address.
    pub addr: String,
    /// User to authenticate terminals as (the benchmark principal).
    pub user: String,
    /// That user's password.
    pub password: String,
    /// The label every terminal raises at handshake time (the benchmark
    /// label's tags).
    pub label: Vec<TagId>,
    /// Scale parameters of the loaded database (must match the server
    /// side).
    pub tpcc: TpccConfig,
    /// Number of concurrent connections (terminals).
    pub connections: usize,
    /// How long to run.
    pub duration: Duration,
    /// Mean per-transaction think time (truncated-exponential, as TPC-C's
    /// remote terminal emulators prescribe). Zero disables thinking and
    /// reproduces the DBT-2 zero-think-time configuration — note that on a
    /// closed loop, zero think time saturates a terminal's round-trip
    /// budget, so connection scaling then measures server-side parallelism
    /// only.
    pub mean_think_time: Duration,
    /// Truncation point for the think-time distribution.
    pub max_think_time: Duration,
    /// RNG seed.
    pub seed: u64,
}

/// The outcome of a network TPC-C run. Engine-side counters (fsyncs, group
/// commit batching) are not visible from the client side; harnesses that
/// run the server in-process read them from the engine before and after.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkDriverOutcome {
    /// New-order transactions committed per minute.
    pub notpm: f64,
    /// Total transactions committed (all five types).
    pub committed: u64,
    /// Transactions rolled back due to write conflicts.
    pub conflicts: u64,
    /// Terminals that failed to connect or died mid-run.
    pub terminal_errors: u64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
}

/// Draws a truncated-exponential think time (the TPC-C terminal emulator's
/// distribution; zero mean disables thinking).
fn sample_think_time(mean: Duration, max: Duration, rng: &mut StdRng) -> Duration {
    if mean.is_zero() {
        return Duration::ZERO;
    }
    let u: f64 = rand::Rng::gen::<f64>(rng).max(1e-12);
    let t = -u.ln() * mean.as_secs_f64();
    Duration::from_secs_f64(t.min(max.as_secs_f64()))
}

/// Runs the TPC-C mix over the network with `connections` concurrent
/// terminals, each an independent [`Connection`].
pub fn run_network_tpcc(config: &NetworkTpccConfig) -> NetworkDriverOutcome {
    let stop = Arc::new(AtomicBool::new(false));
    let new_orders = Arc::new(AtomicU64::new(0));
    let committed = Arc::new(AtomicU64::new(0));
    let conflicts = Arc::new(AtomicU64::new(0));
    let terminal_errors = Arc::new(AtomicU64::new(0));
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
            let config = config.clone();
            scope.spawn(move || {
                let client = ClientConfig::anonymous(&config.addr)
                    .with_user(&config.user, &config.password)
                    .with_label(&config.label);
                let mut conn = match Connection::connect(&client) {
                    Ok(c) => c,
                    Err(_) => {
                        terminal_errors.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                };
                let seed = config.seed ^ (terminal as u64).wrapping_mul(0x9E37_79B9);
                let mut rng = StdRng::seed_from_u64(seed);
                while !stop.load(Ordering::Relaxed) {
                    let think =
                        sample_think_time(config.mean_think_time, config.max_think_time, &mut rng);
                    if !think.is_zero() {
                        std::thread::sleep(think);
                    }
                    let kind = deck.deal();
                    // A transaction rolled back by a write conflict is
                    // retried (as DBT-2 retries it) rather than replaced by
                    // a fresh card: abort rates differ across the five
                    // types, and dealing past an abort would skew the
                    // committed mix away from the dealt one.
                    while !stop.load(Ordering::Relaxed) {
                        match run_transaction_on(&config.tpcc, &mut conn, &mut rng, kind) {
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
                            // A transport-level failure means the connection
                            // is dead: retrying would hot-spin for the rest
                            // of the run, inflating the conflict count.
                            // Count the terminal as lost and stop it.
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
                let _ = conn.close();
            });
        }
        std::thread::sleep(config.duration);
        stop.store(true, Ordering::Relaxed);
    });

    let elapsed = start.elapsed();
    NetworkDriverOutcome {
        notpm: new_orders.load(Ordering::Relaxed) as f64 * 60.0 / elapsed.as_secs_f64(),
        committed: committed.load(Ordering::Relaxed),
        conflicts: conflicts.load(Ordering::Relaxed),
        terminal_errors: terminal_errors.load(Ordering::Relaxed),
        elapsed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tpcc::TpccConfig;
    use ifdb::Database;

    #[test]
    fn driver_reports_nonzero_throughput() {
        let db = Database::in_memory();
        let tpcc = TpccDatabase::load(
            db,
            TpccConfig {
                warehouses: 1,
                districts_per_warehouse: 2,
                customers_per_district: 5,
                items: 20,
                initial_orders_per_district: 2,
                tags_per_label: 1,
                seed: 7,
            },
        )
        .unwrap();
        let outcome = TpccDriver::new(&tpcc).run(&TpccDriverConfig {
            clients: 1,
            duration: Duration::from_millis(300),
            seed: 1,
        });
        assert!(outcome.committed > 0);
        assert!(outcome.notpm > 0.0);
    }

    #[test]
    fn multi_terminal_durable_run_batches_fsyncs() {
        use ifdb::{DatabaseConfig, DurabilityConfig};

        let dir = std::env::temp_dir().join(format!("ifdb-tpcc-durable-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let config = DatabaseConfig::on_disk(dir.clone(), 256)
            .with_seed(0x79CC)
            .with_durability(DurabilityConfig::GROUP_COMMIT);
        let db = Database::new(config.clone());
        let tpcc = TpccDatabase::load(
            db,
            TpccConfig {
                warehouses: 1,
                districts_per_warehouse: 2,
                customers_per_district: 5,
                items: 20,
                initial_orders_per_district: 2,
                tags_per_label: 2,
                seed: 11,
            },
        )
        .unwrap();
        // With nothing running, the transaction table holds exactly one
        // entry per transaction that committed writes.
        let writers = || tpcc.db.engine().stats().txn_table_entries;
        let writers_before = writers();
        let outcome = TpccDriver::new(&tpcc).run(&TpccDriverConfig {
            clients: 4,
            duration: Duration::from_millis(400),
            seed: 3,
        });
        let writing_commits = writers() - writers_before;
        assert!(outcome.committed > 0, "durable terminals make progress");
        assert!(outcome.wal_fsyncs > 0, "sync-on-commit must fsync");
        // Group-commit invariant: every commit record either led a flush or
        // rode one. (Strict batching — fsyncs < commits — is
        // timing-dependent and not asserted; the identity is not.)
        assert_eq!(
            outcome.wal_fsyncs + outcome.commits_batched,
            writing_commits,
            "each writing commit leads or follows exactly one flush"
        );
        // The rest of the committed transactions wrote nothing (Order-Status,
        // Stock-Level, a Delivery with nothing to deliver): no record, no
        // flush.
        assert!(writing_commits <= outcome.committed, "{outcome:?}");
        // Every committed transaction is durable: reopening the database
        // replays the full run and recovers the TPC-C tables.
        drop(tpcc);
        let reopened = ifdb::Database::open(config).unwrap();
        assert!(reopened.engine().stats().recovery_replayed_records > 0);
        assert!(reopened.engine().table_by_name("warehouse").is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_clients_make_progress_despite_conflicts() {
        let db = Database::in_memory();
        let tpcc = TpccDatabase::load(
            db,
            TpccConfig {
                warehouses: 1,
                districts_per_warehouse: 2,
                customers_per_district: 5,
                items: 20,
                initial_orders_per_district: 2,
                tags_per_label: 1,
                seed: 8,
            },
        )
        .unwrap();
        let outcome = TpccDriver::new(&tpcc).run(&TpccDriverConfig {
            clients: 3,
            duration: Duration::from_millis(300),
            seed: 2,
        });
        assert!(outcome.committed > 0);
    }
}
