//! Two-phase commit at the storage layer: prepared transactions must
//! survive a crash *in doubt* — effects durable but invisible — until the
//! coordinator's decision arrives, and decisions must be durable and
//! idempotent. Includes a genuine SIGABRT participant kill after prepare.

use std::path::{Path, PathBuf};

use ifdb_storage::engine::{StorageEngine, StorageKind};
use ifdb_storage::wal::DurabilityConfig;
use ifdb_storage::{ColumnDef, DataType, Datum, TableId, TableSchema};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ifdb-two-phase-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn fresh_engine(dir: &Path) -> StorageEngine {
    StorageEngine::with_config(
        StorageKind::OnDisk {
            dir: dir.to_path_buf(),
            buffer_pages: 16,
        },
        DurabilityConfig::GROUP_COMMIT,
    )
    .unwrap()
}

fn orders_table(eng: &StorageEngine) -> TableId {
    eng.create_table(TableSchema::new(
        "orders",
        vec![
            ColumnDef::new("id", DataType::Int),
            ColumnDef::new("item", DataType::Text),
        ],
    ))
    .unwrap()
}

fn visible_rows(eng: &StorageEngine, table: TableId) -> usize {
    let txn = eng.begin().unwrap();
    let snap = eng.snapshot(txn);
    let mut n = 0;
    eng.scan_visible(&snap, table, |_, _| {
        n += 1;
        true
    })
    .unwrap();
    eng.abort(txn).unwrap();
    n
}

#[test]
fn prepared_txn_is_invisible_and_locked_until_decided() {
    let dir = temp_dir("locked");
    let eng = fresh_engine(&dir);
    let t = orders_table(&eng);
    let txn = eng.begin().unwrap();
    eng.insert(txn, t, vec![], vec![Datum::Int(1), Datum::from("x")])
        .unwrap();
    eng.prepare_commit(txn, 77).unwrap();
    // In doubt: not visible, listed, and no longer locally finishable.
    assert_eq!(visible_rows(&eng, t), 0);
    assert_eq!(eng.in_doubt(), vec![77]);
    assert!(
        eng.commit(txn).is_err(),
        "prepared txn refuses local commit"
    );
    assert!(eng.abort(txn).is_err(), "prepared txn refuses local abort");
    assert_eq!(eng.outcome(77), None);
    // The decision finishes it; a repeat decide is a no-op.
    assert!(eng.decide(77, true).unwrap());
    assert_eq!(visible_rows(&eng, t), 1);
    assert!(!eng.decide(77, true).unwrap());
    assert!(eng.in_doubt().is_empty());
    assert_eq!(eng.outcome(77), Some(true));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn prepared_txn_survives_reopen_in_doubt_then_commits() {
    let dir = temp_dir("reopen-commit");
    {
        let eng = fresh_engine(&dir);
        let t = orders_table(&eng);
        let txn = eng.begin().unwrap();
        for i in 0..5 {
            eng.insert(txn, t, vec![2], vec![Datum::Int(i), Datum::from("d")])
                .unwrap();
        }
        eng.prepare_commit(txn, 42).unwrap();
        // Crash before any decision.
    }
    let eng = StorageEngine::open(&dir, 16, DurabilityConfig::GROUP_COMMIT).unwrap();
    let t = eng.table_by_name("orders").unwrap().id();
    assert_eq!(eng.in_doubt(), vec![42], "prepared txn recovers in doubt");
    assert_eq!(visible_rows(&eng, t), 0, "in-doubt effects stay invisible");
    assert!(eng.decide(42, true).unwrap());
    assert_eq!(visible_rows(&eng, t), 5);
    drop(eng);
    // The decision itself is durable.
    let eng = StorageEngine::open(&dir, 16, DurabilityConfig::GROUP_COMMIT).unwrap();
    let t = eng.table_by_name("orders").unwrap().id();
    assert!(eng.in_doubt().is_empty());
    assert_eq!(eng.outcome(42), Some(true), "decided gid is remembered");
    assert_eq!(visible_rows(&eng, t), 5);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_checkpoint_keeps_a_gid_in_doubt_across_a_crash() {
    // The image carries the prepared transaction — its Begin, its insert,
    // its delete of a committed row, its Prepare — so a checkpoint taken
    // while the gid is in doubt loses neither its effects nor its vote.
    let dir = temp_dir("checkpoint-in-doubt");
    {
        let eng = fresh_engine(&dir);
        let t = orders_table(&eng);
        let keep = eng.begin().unwrap();
        let old = eng
            .insert(keep, t, vec![3], vec![Datum::Int(1), Datum::from("old")])
            .unwrap();
        eng.insert(keep, t, vec![], vec![Datum::Int(2), Datum::from("keep")])
            .unwrap();
        eng.commit(keep).unwrap();
        let txn = eng.begin().unwrap();
        eng.update(
            txn,
            t,
            old,
            vec![3],
            vec![Datum::Int(1), Datum::from("new")],
        )
        .unwrap();
        eng.prepare_commit(txn, 64).unwrap();
        eng.checkpoint().unwrap();
        assert_eq!(eng.in_doubt(), vec![64]);
        // Crash before any decision.
    }
    let items = |eng: &StorageEngine| {
        let t = eng.table_by_name("orders").unwrap().id();
        let snap = eng.snapshot(eng.begin().unwrap());
        let mut items = Vec::new();
        eng.scan_visible(&snap, t, |_, v| {
            items.push(v.data[1].as_text().unwrap().to_string());
            true
        })
        .unwrap();
        items.sort();
        items
    };
    let eng = StorageEngine::open(&dir, 16, DurabilityConfig::GROUP_COMMIT).unwrap();
    assert_eq!(eng.in_doubt(), vec![64], "still in doubt after the image");
    assert_eq!(items(&eng), ["keep", "old"]);
    // A second image, taken on the recovered engine, carries it again.
    eng.checkpoint().unwrap();
    drop(eng);
    let eng = StorageEngine::open(&dir, 16, DurabilityConfig::GROUP_COMMIT).unwrap();
    assert_eq!(eng.in_doubt(), vec![64]);
    assert!(eng.decide(64, true).unwrap());
    assert_eq!(items(&eng), ["keep", "new"]);
    drop(eng);
    let eng = StorageEngine::open(&dir, 16, DurabilityConfig::GROUP_COMMIT).unwrap();
    assert_eq!(items(&eng), ["keep", "new"], "the decision is durable");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn abort_decision_after_reopen_drops_effects() {
    let dir = temp_dir("reopen-abort");
    {
        let eng = fresh_engine(&dir);
        let t = orders_table(&eng);
        let keep = eng.begin().unwrap();
        eng.insert(keep, t, vec![], vec![Datum::Int(100), Datum::from("keep")])
            .unwrap();
        eng.commit(keep).unwrap();
        let txn = eng.begin().unwrap();
        eng.insert(txn, t, vec![], vec![Datum::Int(1), Datum::from("doomed")])
            .unwrap();
        eng.prepare_commit(txn, 9).unwrap();
    }
    let eng = StorageEngine::open(&dir, 16, DurabilityConfig::GROUP_COMMIT).unwrap();
    let t = eng.table_by_name("orders").unwrap().id();
    assert_eq!(eng.in_doubt(), vec![9]);
    assert!(eng.decide(9, false).unwrap());
    assert_eq!(visible_rows(&eng, t), 1, "only the committed row remains");
    assert_eq!(eng.outcome(9), Some(false));
    drop(eng);
    let eng = StorageEngine::open(&dir, 16, DurabilityConfig::GROUP_COMMIT).unwrap();
    let t = eng.table_by_name("orders").unwrap().id();
    assert_eq!(visible_rows(&eng, t), 1);
    assert_eq!(eng.outcome(9), Some(false));
    assert!(!eng.decide(9, false).unwrap(), "decide stays idempotent");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn empty_write_set_participant_survives_reopen_and_decides() {
    // A participant that only read still votes: its Prepare is its first
    // log record (the lazily logged Begin goes in ahead of it), so the vote
    // is as durable — and as in doubt after a crash — as a writer's.
    let dir = temp_dir("empty-write-set");
    {
        let eng = fresh_engine(&dir);
        let t = orders_table(&eng);
        let txn = eng.begin().unwrap();
        assert_eq!(eng.snapshot(txn).active.len(), 0);
        let before = eng.wal().last_seq();
        eng.prepare_commit(txn, 31).unwrap();
        assert_eq!(eng.wal().last_seq(), before + 2, "Begin + Prepare");
        assert_eq!(eng.in_doubt(), vec![31]);
        assert_eq!(visible_rows(&eng, t), 0);
    }
    let eng = StorageEngine::open(&dir, 16, DurabilityConfig::GROUP_COMMIT).unwrap();
    assert_eq!(eng.in_doubt(), vec![31]);
    assert_eq!(eng.stats().txns_active, 1, "in doubt counts as running");
    assert!(eng.decide(31, false).unwrap());
    assert_eq!(eng.outcome(31), Some(false));
    assert_eq!(eng.stats().txns_active, 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn deciding_an_unknown_gid_is_a_harmless_no_op() {
    let dir = temp_dir("unknown");
    let eng = fresh_engine(&dir);
    assert!(!eng.decide(12345, true).unwrap());
    assert!(!eng.decide(12345, false).unwrap());
    assert_eq!(eng.outcome(12345), None);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn gid_reuse_is_refused_while_in_doubt() {
    let dir = temp_dir("gid-reuse");
    let eng = fresh_engine(&dir);
    let t = orders_table(&eng);
    let a = eng.begin().unwrap();
    eng.insert(a, t, vec![], vec![Datum::Int(1), Datum::from("a")])
        .unwrap();
    eng.prepare_commit(a, 5).unwrap();
    let b = eng.begin().unwrap();
    eng.insert(b, t, vec![], vec![Datum::Int(2), Datum::from("b")])
        .unwrap();
    assert!(
        eng.prepare_commit(b, 5).is_err(),
        "a second prepare under a live gid must be refused (and abort the txn)"
    );
    // The refused transaction is settled as aborted, not leaked.
    assert!(eng.commit(b).is_err());
    assert!(eng.decide(5, true).unwrap());
    assert_eq!(visible_rows(&eng, t), 1);
    std::fs::remove_dir_all(&dir).ok();
}

/// A genuine participant kill after its yes vote: the child process
/// prepares under `GROUP_COMMIT` (the prepare fsyncs) and dies by
/// `process::abort` — no destructors, no buffered-writer flush. The parent
/// recovers the participant in doubt and drives it to commit, exactly as a
/// coordinator re-delivering its decision would.
#[test]
fn process_kill_after_prepare_recovers_in_doubt() {
    if let Ok(dir) = std::env::var("IFDB_2PC_CRASH_DIR") {
        let dir = PathBuf::from(dir);
        let eng = fresh_engine(&dir);
        let t = orders_table(&eng);
        let txn = eng.begin().unwrap();
        for i in 0..8 {
            eng.insert(txn, t, vec![3], vec![Datum::Int(i), Datum::from("2pc")])
                .unwrap();
        }
        eng.prepare_commit(txn, 31).unwrap();
        // Also leave one plain transaction in flight: it must abort, not
        // ride along with the prepared one.
        let ghost = eng.begin().unwrap();
        eng.insert(
            ghost,
            t,
            vec![],
            vec![Datum::Int(999), Datum::from("ghost")],
        )
        .unwrap();
        std::process::abort();
    }
    let dir = temp_dir("process-kill");
    let status = std::process::Command::new(std::env::current_exe().unwrap())
        .arg("process_kill_after_prepare_recovers_in_doubt")
        .arg("--exact")
        .arg("--nocapture")
        .env("IFDB_2PC_CRASH_DIR", &dir)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .unwrap();
    assert!(!status.success(), "child must die by abort");
    let eng = StorageEngine::open(&dir, 16, DurabilityConfig::GROUP_COMMIT).unwrap();
    let t = eng.table_by_name("orders").unwrap().id();
    assert_eq!(
        eng.in_doubt(),
        vec![31],
        "acknowledged prepare survives SIGABRT"
    );
    assert_eq!(visible_rows(&eng, t), 0);
    assert!(eng.decide(31, true).unwrap());
    assert_eq!(
        visible_rows(&eng, t),
        8,
        "the prepared write set commits whole; the uncommitted ghost is gone"
    );
    std::fs::remove_dir_all(&dir).ok();
}
