//! Sharded primaries and two-phase commit, end to end over TCP: atomic
//! cross-shard commits, the single-shard fast path, the commit-label rule
//! as a prepare-time veto, and coordinator crashes (a genuine SIGABRT of a
//! child coordinator process) resolved by a successor via the in-doubt
//! protocol.

use std::sync::Arc;

use ifdb::prelude::*;
use ifdb_client::shard::ShardMap;
use ifdb_client::{ClientConfig, Connection, RoutedConnection, RouterConfig};
use ifdb_platform::Authenticator;
use ifdb_server::{start, ServerConfig, ServerHandle};

/// The accounts table lives on two shards: ids 0..=99 on shard 0, ids
/// 100..=199 on shard 1.
fn shard_map() -> Arc<ShardMap> {
    Arc::new(ShardMap::new(2).shard_table(
        "accounts",
        "id",
        0,
        vec![
            ifdb_client::shard::ShardRange {
                lo: 0,
                hi: 99,
                shard: 0,
            },
            ifdb_client::shard::ShardRange {
                lo: 100,
                hi: 199,
                shard: 1,
            },
        ],
    ))
}

fn shard_db() -> Database {
    let db = Database::in_memory();
    db.create_table(
        TableDef::new("accounts")
            .column("id", DataType::Int)
            .column("note", DataType::Text)
            .primary_key(&["id"]),
    )
    .unwrap();
    db
}

fn start_shard() -> ServerHandle {
    start(
        shard_db(),
        Arc::new(Authenticator::new()),
        ServerConfig::default(),
    )
    .unwrap()
}

fn router_over(map: Arc<ShardMap>, shards: &[&ServerHandle]) -> RoutedConnection {
    let nodes = shards
        .iter()
        .map(|s| ClientConfig::anonymous(&s.addr().to_string()))
        .collect();
    RoutedConnection::connect(&RouterConfig::sharded(map, nodes)).unwrap()
}

fn count_rows(server: &ServerHandle) -> usize {
    let mut c = Connection::connect(&ClientConfig::anonymous(&server.addr().to_string())).unwrap();
    let n = c.select(&Select::star("accounts")).unwrap().len();
    c.close().unwrap();
    n
}

fn in_doubt_gids(server: &ServerHandle) -> Vec<u64> {
    let mut c = Connection::connect(&ClientConfig::anonymous(&server.addr().to_string())).unwrap();
    let gids = c.txn_recover().unwrap();
    c.close().unwrap();
    gids
}

fn insert_stmt(id: i64, note: &str) -> Insert {
    Insert::new("accounts", vec![Datum::Int(id), Datum::from(note)])
}

#[test]
fn cross_shard_commit_reactor() {
    let s0 = start_shard();
    let s1 = start_shard();
    let mut router = router_over(shard_map(), &[&s0, &s1]);

    // Single-shard transaction: the fast path, no 2PC.
    router.begin().unwrap();
    router.insert(&insert_stmt(1, "local")).unwrap();
    router.insert(&insert_stmt(2, "local")).unwrap();
    router.commit().unwrap();
    assert_eq!(router.stats().single_shard_commits, 1);
    assert_eq!(router.stats().distributed_commits, 0);

    // Cross-shard transaction: both effects commit atomically via 2PC.
    router.begin().unwrap();
    router.insert(&insert_stmt(3, "both")).unwrap();
    router.insert(&insert_stmt(103, "both")).unwrap();
    router.commit().unwrap();
    assert_eq!(router.stats().distributed_commits, 1);

    // Cross-shard abort: nothing lands anywhere.
    router.begin().unwrap();
    router.insert(&insert_stmt(4, "no")).unwrap();
    router.insert(&insert_stmt(104, "no")).unwrap();
    router.abort().unwrap();

    // Reads route by key to the owning shard.
    let rows = router
        .select(&Select::star("accounts").filter(Predicate::Eq("id".into(), Datum::Int(103))))
        .unwrap();
    assert_eq!(rows.len(), 1);
    assert!(router.stats().statements_cross_shard >= 2);

    assert_eq!(count_rows(&s0), 3, "ids 1, 2, 3");
    assert_eq!(count_rows(&s1), 1, "id 103");
    assert!(in_doubt_gids(&s0).is_empty(), "no in-doubt leaks");
    assert!(in_doubt_gids(&s1).is_empty());
    router.close().unwrap();
    s0.shutdown();
    s1.shutdown();
}

#[test]
fn label_veto_aborts_all_shards_reactor() {
    use ifdb::{TriggerDef, TriggerEvent, TriggerTiming};
    let s0 = start_shard();
    // Shard 1 carries a trigger that contaminates the inserting session, so
    // its prepare fails the commit-label rule — a no vote.
    let db1 = shard_db();
    let owner = db1.create_principal("owner", PrincipalKind::User);
    let tag = db1.create_tag(owner, "audit", &[]).unwrap();
    db1.create_trigger(TriggerDef {
        name: "contaminate".into(),
        table: "accounts".into(),
        events: vec![TriggerEvent::Insert],
        timing: TriggerTiming::Immediate,
        authority: None,
        body: Arc::new(move |session, _inv| {
            session.add_secrecy(tag)?;
            Ok(())
        }),
    })
    .unwrap();
    let s1 = start(db1, Arc::new(Authenticator::new()), ServerConfig::default()).unwrap();

    let mut router = router_over(shard_map(), &[&s0, &s1]);
    router.begin().unwrap();
    router.insert(&insert_stmt(5, "clean")).unwrap();
    router.insert(&insert_stmt(105, "tainted")).unwrap();
    let err = router.commit().unwrap_err();
    assert!(
        matches!(err, ifdb::IfdbError::CommitLabelViolation { .. }),
        "the vetoing participant's refusal surfaces: {err:?}"
    );
    assert_eq!(router.stats().distributed_aborts, 1);
    assert_eq!(router.stats().distributed_commits, 0);
    // One shard's no vote aborted the transaction *everywhere*.
    assert_eq!(count_rows(&s0), 0);
    assert_eq!(count_rows(&s1), 0);
    assert!(in_doubt_gids(&s0).is_empty());
    assert!(in_doubt_gids(&s1).is_empty());
    // The contamination acquired on shard 1 reached this coordinator's
    // label mirror (piggybacked on the error response) and gates release
    // through the merged output gate.
    assert!(router.current_label().contains(tag));
    assert!(router.check_release_to_world().is_err());
    router.close().unwrap();
    s0.shutdown();
    s1.shutdown();
}

/// A participant with an empty write set still votes durably: its `Prepare`
/// is its first log record, so the lazily logged `Begin` goes in ahead of it
/// and the `Decide` settles it — on the commit path and on the abort path.
#[test]
fn read_only_participant_prepares_and_decides() {
    use ifdb_storage::LogRecord;
    let s0 = start_shard();
    let db1 = shard_db();
    let s1 = start(
        db1.clone(),
        Arc::new(Authenticator::new()),
        ServerConfig::default(),
    )
    .unwrap();
    let mut router = router_over(shard_map(), &[&s0, &s1]);
    let log1 = db1.engine().wal();
    let before = log1.last_seq();

    // Shard 0 writes, shard 1 only reads; both are participants.
    router.begin().unwrap();
    router.insert(&insert_stmt(7, "writer side")).unwrap();
    let probe = Select::star("accounts").filter(Predicate::Eq("id".into(), Datum::Int(150)));
    assert_eq!(router.select(&probe).unwrap().len(), 0);
    assert_eq!(log1.last_seq(), before, "the read logged nothing");
    router.commit().unwrap();
    assert_eq!(router.stats().distributed_commits, 1);
    let tail = log1.read_replication_batch(before + 1, usize::MAX).records;
    assert!(
        matches!(
            tail[..],
            [
                LogRecord::Begin { txn: b },
                LogRecord::Prepare { txn: p, .. },
                LogRecord::Decide { txn: d, commit: true },
            ] if b == p && p == d
        ),
        "{tail:?}"
    );

    // The same shape, abandoned before the vote: the reader's abort has
    // nothing to take back and logs nothing.
    let settled = log1.last_seq();
    router.begin().unwrap();
    router.insert(&insert_stmt(8, "doomed")).unwrap();
    assert_eq!(router.select(&probe).unwrap().len(), 0);
    router.abort().unwrap();
    assert_eq!(log1.last_seq(), settled);

    assert_eq!(count_rows(&s0), 1, "id 7");
    assert_eq!(count_rows(&s1), 0);
    assert!(in_doubt_gids(&s0).is_empty(), "no in-doubt leaks");
    assert!(in_doubt_gids(&s1).is_empty());
    assert_eq!(db1.engine().stats().txns_active, 0);
    router.close().unwrap();
    s0.shutdown();
    s1.shutdown();
}

/// The gid the crashing child coordinator uses, so the parent can assert
/// exactly which transaction was resolved.
const CRASH_GID: u64 = 0x2FC0_FFEE;

/// Child mode for the coordinator-crash tests: connect to the two shard
/// servers the parent started, run a cross-shard transaction up to the
/// point named by `IFDB_2PC_PHASE`, then die by SIGABRT — no destructors,
/// no Goodbye, no decides beyond the phase.
fn child_coordinator_or_continue() {
    let Ok(phase) = std::env::var("IFDB_2PC_PHASE") else {
        return;
    };
    let addrs = std::env::var("IFDB_2PC_ADDRS").unwrap();
    let mut conns: Vec<Connection> = addrs
        .split(',')
        .map(|a| Connection::connect(&ClientConfig::anonymous(a)).unwrap())
        .collect();
    for (i, conn) in conns.iter_mut().enumerate() {
        conn.begin().unwrap();
        conn.insert(&insert_stmt(100 * i as i64 + 7, "crash-txn"))
            .unwrap();
    }
    // Phase one on every participant (each acknowledges its yes vote).
    for conn in conns.iter_mut() {
        conn.txn_prepare(CRASH_GID).unwrap();
    }
    if phase == "after-decide" {
        // The commit decision reached exactly one participant.
        conns[0].txn_decide(CRASH_GID, true).unwrap();
    }
    std::process::abort();
}

fn coordinator_crash(phase: &str, test_name: &str) -> (ServerHandle, ServerHandle) {
    let s0 = start_shard();
    let s1 = start_shard();
    let status = std::process::Command::new(std::env::current_exe().unwrap())
        .arg(test_name)
        .arg("--exact")
        .arg("--nocapture")
        .env("IFDB_2PC_PHASE", phase)
        .env("IFDB_2PC_ADDRS", format!("{},{}", s0.addr(), s1.addr()))
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .unwrap();
    assert!(!status.success(), "child coordinator must die by abort");
    (s0, s1)
}

#[test]
fn coordinator_crash_after_decide_commits_everywhere() {
    child_coordinator_or_continue();
    let (s0, s1) = coordinator_crash(
        "after-decide",
        "coordinator_crash_after_decide_commits_everywhere",
    );
    // Shard 0 learned the commit before the crash; shard 1 is in doubt.
    assert_eq!(count_rows(&s0), 1);
    assert_eq!(count_rows(&s1), 0);
    assert_eq!(in_doubt_gids(&s1), vec![CRASH_GID]);

    // A successor coordinator resolves: some participant committed, so the
    // decision was commit — the acked cross-shard commit is not lost.
    let mut router = router_over(shard_map(), &[&s0, &s1]);
    let resolved = router.resolve_in_doubt().unwrap();
    assert_eq!(resolved, vec![(CRASH_GID, true)]);
    assert_eq!(count_rows(&s0), 1);
    assert_eq!(count_rows(&s1), 1);
    assert!(in_doubt_gids(&s0).is_empty(), "no in-doubt leaks");
    assert!(in_doubt_gids(&s1).is_empty());
    // Idempotent: a second recovery pass finds nothing.
    assert!(router.resolve_in_doubt().unwrap().is_empty());
    router.close().unwrap();
    s0.shutdown();
    s1.shutdown();
}

#[test]
fn coordinator_crash_before_decide_presumes_abort() {
    child_coordinator_or_continue();
    let (s0, s1) = coordinator_crash(
        "after-prepare",
        "coordinator_crash_before_decide_presumes_abort",
    );
    // Both participants prepared and are in doubt; neither committed.
    assert_eq!(in_doubt_gids(&s0), vec![CRASH_GID]);
    assert_eq!(in_doubt_gids(&s1), vec![CRASH_GID]);

    // No participant learned a commit, so the successor presumes abort —
    // safe, because the crashed coordinator cannot have acked the commit
    // to anyone without first collecting every yes vote and sending a
    // decide.
    let mut router = router_over(shard_map(), &[&s0, &s1]);
    let resolved = router.resolve_in_doubt().unwrap();
    assert_eq!(resolved, vec![(CRASH_GID, false)]);
    assert_eq!(count_rows(&s0), 0);
    assert_eq!(count_rows(&s1), 0);
    assert!(in_doubt_gids(&s0).is_empty(), "no in-doubt leaks");
    assert!(in_doubt_gids(&s1).is_empty());
    router.close().unwrap();
    s0.shutdown();
    s1.shutdown();
}

/// A participant restart between prepare and decide: the shard server is
/// shut down (its database reopened from disk, as PR 3's recovery path
/// does) and the in-doubt transaction must survive into the new server,
/// where the coordinator's decision finally lands.
#[test]
fn participant_restart_keeps_prepared_txn_in_doubt() {
    let dir = std::env::temp_dir().join(format!("ifdb-shard-restart-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();

    let s0 = start_shard();
    let db1 = Database::builder()
        .on_disk(dir.clone(), 64)
        .recover()
        .first_boot_ddl([TableDef::new("accounts")
            .column("id", DataType::Int)
            .column("note", DataType::Text)
            .primary_key(&["id"])])
        .build()
        .unwrap();
    let s1 = start(db1, Arc::new(Authenticator::new()), ServerConfig::default()).unwrap();

    let gid = 0xBEEF;
    let mut c0 = Connection::connect(&ClientConfig::anonymous(&s0.addr().to_string())).unwrap();
    let mut c1 = Connection::connect(&ClientConfig::anonymous(&s1.addr().to_string())).unwrap();
    c0.begin().unwrap();
    c0.insert(&insert_stmt(9, "restart")).unwrap();
    c1.begin().unwrap();
    c1.insert(&insert_stmt(109, "restart")).unwrap();
    c0.txn_prepare(gid).unwrap();
    c1.txn_prepare(gid).unwrap();
    // Coordinator decides commit; shard 0 hears it, shard 1's server goes
    // down first.
    c0.txn_decide(gid, true).unwrap();
    drop(c1);
    s1.shutdown();

    // Shard 1 restarts from its log: the prepared transaction is back, in
    // doubt, its effects invisible.
    let db1 = Database::builder()
        .on_disk(dir.clone(), 64)
        .recover()
        .build()
        .unwrap();
    let s1 = start(db1, Arc::new(Authenticator::new()), ServerConfig::default()).unwrap();
    assert_eq!(in_doubt_gids(&s1), vec![gid]);
    assert_eq!(count_rows(&s1), 0);

    // The (reconnecting) coordinator re-delivers its decision.
    let mut c1 = Connection::connect(&ClientConfig::anonymous(&s1.addr().to_string())).unwrap();
    assert_eq!(c1.txn_outcome(gid).unwrap(), None);
    c1.txn_decide(gid, true).unwrap();
    assert_eq!(count_rows(&s1), 1);
    assert_eq!(c1.txn_outcome(gid).unwrap(), Some(true));
    assert!(in_doubt_gids(&s1).is_empty());

    c0.close().unwrap();
    c1.close().unwrap();
    s0.shutdown();
    s1.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
