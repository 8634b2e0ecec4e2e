//! The DBT-2-style closed loop: one TPC-C terminal, whatever it talks to.
//!
//! DBT-2, as configured in Section 8.3, uses zero think time and a constant
//! number of warehouses, and reports NOTPM (new-order transactions per
//! minute). [`run_terminals`] runs that loop: one thread per terminal, each
//! over its own [`SessionApi`] — an in-process [`ifdb::Session`], an
//! `ifdb-client` connection to a server, a shard-aware router — for a fixed
//! duration. The caller says how a terminal opens its session and how it
//! runs a card; the loop deals every terminal's cards from one
//! [`TpccDeck`], retries a card that a write conflict rolled back, and
//! counts.
//!
//! The loop reads no engine counters. A caller that wants the run's fsyncs
//! or group-commit batching reads `EngineStats` before and after it, and a
//! caller that wants client-side counters reads them off the sessions the
//! loop hands back.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use ifdb::{IfdbError, IfdbResult, SessionApi};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::tpcc::{TpccDeck, TpccTransaction};

/// The shape of a closed-loop run.
#[derive(Debug, Clone)]
pub struct TerminalConfig {
    /// Concurrent terminals, each a thread over its own session.
    pub terminals: usize,
    /// How long to run.
    pub duration: Duration,
    /// Seeds the deck ([`TpccDeck::new`] takes it as it is) and each
    /// terminal's input draws.
    pub seed: u64,
}

/// The outcome of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriverOutcome {
    /// New-order transactions committed per minute (the Figure 6 metric).
    pub notpm: f64,
    /// Total transactions committed (all five types).
    pub committed: u64,
    /// Attempts rolled back by a write conflict (or failed otherwise) and
    /// retried.
    pub conflicts: u64,
    /// Terminals that could not open their session or whose connection
    /// died mid-run.
    pub terminal_errors: u64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
}

/// Runs `config.terminals` terminals in a closed loop for
/// `config.duration`. Terminal `i` opens its session with `open(i)` and runs
/// each dealt card with `run`, which draws the card's inputs from the
/// terminal's RNG and returns whether the transaction committed (`false`
/// for a write-conflict rollback). Returns the outcome and the session of
/// every terminal that opened one, in no particular order, for the caller
/// to read and close.
pub fn run_terminals<S, Open, Run>(
    config: &TerminalConfig,
    open: Open,
    run: Run,
) -> (DriverOutcome, Vec<S>)
where
    S: SessionApi + Send,
    Open: Fn(usize) -> IfdbResult<S> + Sync,
    Run: Fn(&mut S, &mut StdRng, TpccTransaction) -> IfdbResult<bool> + Sync,
{
    let stop = AtomicBool::new(false);
    let [new_orders, committed, conflicts, terminal_errors] =
        std::array::from_fn(|_| AtomicU64::new(0));
    let count = |c: &AtomicU64| c.fetch_add(1, Ordering::Relaxed);
    let deck = TpccDeck::new(config.seed);
    let start = Instant::now();

    let sessions = std::thread::scope(|scope| {
        let terminals: Vec<_> = (0..config.terminals)
            .map(|terminal| {
                let (open, run, deck, stop) = (&open, &run, &deck, &stop);
                let (new_orders, committed) = (&new_orders, &committed);
                let (conflicts, terminal_errors) = (&conflicts, &terminal_errors);
                scope.spawn(move || {
                    let Ok(mut session) = open(terminal) else {
                        count(terminal_errors);
                        return None;
                    };
                    let seed = config.seed ^ (terminal as u64 + 1).wrapping_mul(0x9E37_79B9);
                    let mut rng = StdRng::seed_from_u64(seed);
                    // A card rolled back by a write conflict is retried (as
                    // DBT-2 retries it) rather than replaced by a fresh one:
                    // abort rates differ across the five types, and dealing
                    // past an abort would skew the committed mix away from
                    // the dealt one.
                    'cards: while !stop.load(Ordering::Relaxed) {
                        let kind = deck.deal();
                        while !stop.load(Ordering::Relaxed) {
                            match run(&mut session, &mut rng, kind) {
                                Ok(true) => {
                                    count(committed);
                                    if kind == TpccTransaction::NewOrder {
                                        count(new_orders);
                                    }
                                    continue 'cards;
                                }
                                // A transport-level failure means the
                                // connection is dead: retrying would
                                // hot-spin for the rest of the run.
                                Err(IfdbError::Remote { code, .. })
                                    if code == ifdb_client::protocol::code::PROTOCOL as u16 =>
                                {
                                    count(terminal_errors);
                                    break 'cards;
                                }
                                Ok(false) | Err(_) => {
                                    count(conflicts);
                                }
                            }
                        }
                    }
                    Some(session)
                })
            })
            .collect();
        std::thread::sleep(config.duration);
        stop.store(true, Ordering::Relaxed);
        terminals
            .into_iter()
            .filter_map(|t| t.join().expect("a terminal panicked"))
            .collect()
    });

    let elapsed = start.elapsed();
    let outcome = DriverOutcome {
        notpm: new_orders.into_inner() as f64 * 60.0 / elapsed.as_secs_f64(),
        committed: committed.into_inner(),
        conflicts: conflicts.into_inner(),
        terminal_errors: terminal_errors.into_inner(),
        elapsed,
    };
    (outcome, sessions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tpcc::{TpccConfig, TpccDatabase};
    use ifdb::Database;
    use std::sync::Mutex;

    fn load(db: Database, tags_per_label: usize, seed: u64) -> TpccDatabase {
        let config = TpccConfig {
            warehouses: 1,
            districts_per_warehouse: 2,
            customers_per_district: 5,
            items: 20,
            initial_orders_per_district: 2,
            tags_per_label,
            seed,
        };
        TpccDatabase::load(db, config).unwrap()
    }

    /// `terminals` in-process terminals over `tpcc`, each card one
    /// procedure call.
    fn run_in_process(tpcc: &TpccDatabase, terminals: usize, millis: u64) -> DriverOutcome {
        let config = TerminalConfig {
            terminals,
            duration: Duration::from_millis(millis),
            seed: terminals as u64,
        };
        let run = |s: &mut _, rng: &mut _, kind| tpcc.run_transaction(s, rng, kind);
        let (outcome, sessions) = run_terminals(&config, |_| tpcc.session(), run);
        assert_eq!(sessions.len(), terminals);
        outcome
    }

    #[test]
    fn driver_reports_nonzero_throughput() {
        let tpcc = load(Database::in_memory(), 1, 7);
        let outcome = run_in_process(&tpcc, 1, 300);
        assert_eq!(outcome.terminal_errors, 0);
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
        let tpcc = load(Database::new(config.clone()), 2, 11);
        // With nothing running, the transaction table holds exactly one
        // entry per transaction that committed writes.
        let before = tpcc.db.engine().stats();
        let outcome = run_in_process(&tpcc, 4, 400);
        let after = tpcc.db.engine().stats();
        let writing_commits = after.txn_table_entries - before.txn_table_entries;
        let fsyncs = after.wal_fsyncs - before.wal_fsyncs;
        assert!(outcome.committed > 0, "durable terminals make progress");
        assert!(fsyncs > 0, "sync-on-commit must fsync");
        // Group-commit invariant: every commit record either led a flush or
        // rode one. (Strict batching — fsyncs < commits — is
        // timing-dependent and not asserted; the identity is not.)
        assert_eq!(
            fsyncs + after.commits_batched - before.commits_batched,
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
        let reopened = ifdb::Database::builder()
            .config(config)
            .recover()
            .build()
            .unwrap();
        assert!(reopened.engine().stats().recovery_replayed_records > 0);
        assert!(reopened.engine().table_by_name("warehouse").is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_clients_make_progress_despite_conflicts() {
        let tpcc = load(Database::in_memory(), 1, 8);
        let outcome = run_in_process(&tpcc, 3, 300);
        assert_eq!(outcome.terminal_errors, 0);
        assert!(outcome.committed > 0);
    }

    /// A terminal is handed the deck's cards in the order the deck deals
    /// them, and a card that reports a conflict comes back until it
    /// commits: every third attempt here reports one.
    #[test]
    fn a_terminal_deals_from_the_deck_and_retries_a_conflict_in_place() {
        let tpcc = load(Database::in_memory(), 1, 9);
        let handed = Mutex::new(Vec::new());
        let config = TerminalConfig {
            terminals: 1,
            duration: Duration::from_millis(300),
            seed: 0x5EED,
        };
        let (outcome, _) = run_terminals(
            &config,
            |_| tpcc.session(),
            |s, rng, kind| {
                let attempt = {
                    let mut handed = handed.lock().unwrap();
                    handed.push(kind);
                    handed.len()
                };
                if attempt % 3 == 0 {
                    return Ok(false);
                }
                tpcc.run_transaction(s, rng, kind)
            },
        );
        let handed = handed.into_inner().unwrap();
        assert!(handed.len() >= 30, "{} attempts", handed.len());
        let deck = TpccDeck::new(config.seed);
        let mut card = deck.deal();
        let mut dealt = Vec::new();
        for attempt in 1..=handed.len() {
            dealt.push(card);
            if attempt % 3 != 0 {
                card = deck.deal();
            }
        }
        assert_eq!(handed, dealt);
        assert_eq!(outcome.committed + outcome.conflicts, handed.len() as u64);
        assert!(outcome.conflicts >= handed.len() as u64 / 3);
    }
}
