//! Satellite 4: the 2PC × failover matrix. A coordinator dies between
//! prepare and decide; a participant shard's primary fails over with the
//! transaction still in doubt; successor-driven resolution must reach one
//! consistent global outcome.
//!
//! * **Presumed abort** — the coordinator dies after collecting prepares
//!   but before any decide. No participant can have committed, so recovery
//!   aborts everywhere and the branches' effects never appear.
//! * **Decided commit, participant failover** — the coordinator delivered
//!   the commit decision to one shard and then died; the other shard's
//!   primary is lost and a replica is promoted. The prepared branch rides
//!   the replication stream and the promotion image, so the successor
//!   reports it in doubt; [`RoutedConnection::resolve_in_doubt`] finds the
//!   recorded commit on the surviving shard and completes the branch on the
//!   successor — the transaction commits *everywhere* even though the node
//!   that prepared it no longer exists.

use std::sync::Arc;
use std::time::Duration;

use ifdb::prelude::*;
use ifdb::SessionApi;
use ifdb_chaos::cluster::tpcc_client;
use ifdb_chaos::journal::read_journal_ids;
use ifdb_chaos::{HaCluster, SEED};
use ifdb_client::shard::ShardMap;
use ifdb_client::{Connection, RoutedConnection, RouterConfig};

const ABORTED_GID: u64 = 42;
const COMMITTED_GID: u64 = 43;

fn journal_insert(id: i64) -> Insert {
    Insert::new(
        "chaos_journal",
        vec![Datum::Int(id), Datum::Int(0), Datum::Int(0)],
    )
}

/// Opens a session on `addr`, runs one transaction branch up to the
/// prepare, and abandons the connection — the coordinator's crash.
fn prepare_branch(addr: &str, label: &[TagId], id: i64, gid: u64) -> Connection {
    let mut conn = Connection::connect(&tpcc_client(addr, label)).unwrap();
    conn.begin().unwrap();
    conn.insert(&journal_insert(id)).unwrap();
    conn.txn_prepare(gid).unwrap();
    conn
}

fn sorted_ids(addr: &str, label: &[TagId]) -> Vec<i64> {
    let mut conn = Connection::connect(&tpcc_client(addr, label)).unwrap();
    let mut ids = read_journal_ids(&mut conn).unwrap();
    let _ = conn.close();
    ids.sort_unstable();
    ids
}

#[test]
fn two_phase_failover_matrix_reactor() {
    // Shard A gets a replica (it will fail over mid-transaction); shard B
    // is a plain primary that survives.
    let mut shard_a = HaCluster::start(SEED, 1, None);
    let shard_b = HaCluster::start(SEED, 0, None);
    let a_addr = shard_a.primary_addr();
    let b_addr = shard_b.primary_addr();
    let label = shard_a.fixture.tpcc_label.clone();

    // --- Variant A: coordinator dies between prepare and decide. --------
    // The branches survive the coordinator's connections: both shards
    // report the gid in doubt with no outcome.
    drop(prepare_branch(&a_addr, &label, 7001, ABORTED_GID));
    drop(prepare_branch(&b_addr, &label, 7101, ABORTED_GID));
    for addr in [&a_addr, &b_addr] {
        let mut conn = Connection::connect(&tpcc_client(addr, &label)).unwrap();
        assert_eq!(conn.txn_recover().unwrap(), vec![ABORTED_GID]);
        assert_eq!(conn.txn_outcome(ABORTED_GID).unwrap(), None);
        // No participant learned a commit: presumed abort.
        conn.txn_decide(ABORTED_GID, false).unwrap();
        assert_eq!(conn.txn_recover().unwrap(), Vec::<u64>::new());
        assert!(
            !read_journal_ids(&mut conn).unwrap().contains(&7001)
                && !read_journal_ids(&mut conn).unwrap().contains(&7101),
            "an aborted branch's effects must never appear"
        );
        conn.close().unwrap();
    }

    // --- Variant B: decided commit + participant failover. --------------
    drop(prepare_branch(&a_addr, &label, 7002, COMMITTED_GID));
    drop(prepare_branch(&b_addr, &label, 7102, COMMITTED_GID));
    // The coordinator delivered the commit decision to shard B only, then
    // died.
    {
        let mut conn = Connection::connect(&tpcc_client(&b_addr, &label)).unwrap();
        conn.txn_decide(COMMITTED_GID, true).unwrap();
        conn.close().unwrap();
    }

    // Shard A's primary dies with the branch prepared; the replica (which
    // received the prepared branch over the replication stream) is
    // promoted and must still report it in doubt.
    assert!(shard_a.wait_caught_up(Duration::from_secs(5)));
    shard_a.stop_primary();
    shard_a.replicas[0].promote().expect("promotion");
    let successor_addr = shard_a.replicas[0].addr().to_string();
    {
        let mut conn = Connection::connect(&tpcc_client(&successor_addr, &label)).unwrap();
        assert_eq!(
            conn.txn_recover().unwrap(),
            vec![COMMITTED_GID],
            "the prepared branch must survive promotion"
        );
        assert_eq!(conn.txn_outcome(COMMITTED_GID).unwrap(), None);
        conn.close().unwrap();
    }

    // Successor-driven resolution through the real client path: the
    // resolver finds shard B's recorded commit and completes the branch on
    // the promoted successor.
    let config = RouterConfig::sharded(
        Arc::new(ShardMap::new(2)),
        vec![
            tpcc_client(&successor_addr, &label),
            tpcc_client(&b_addr, &label),
        ],
    );
    let mut resolver = RoutedConnection::connect(&config).unwrap();
    assert_eq!(
        resolver.resolve_in_doubt().unwrap(),
        vec![(COMMITTED_GID, true)],
        "one consistent global outcome: commit"
    );
    assert_eq!(resolver.stats().in_doubt_resolved, 1);
    resolver.close().unwrap();

    // The committed branch is visible on both shards; nothing is in doubt
    // anywhere; the aborted branch stayed aborted across the failover.
    assert_eq!(sorted_ids(&successor_addr, &label), vec![7002]);
    assert_eq!(sorted_ids(&b_addr, &label), vec![7102]);
    for addr in [&successor_addr, &b_addr] {
        let mut conn = Connection::connect(&tpcc_client(addr, &label)).unwrap();
        assert_eq!(conn.txn_recover().unwrap(), Vec::<u64>::new());
        conn.close().unwrap();
    }

    shard_a.shutdown();
    shard_b.shutdown();
}
