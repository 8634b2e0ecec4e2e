//! What a statement pays for depends on who is running now, not on who ever
//! ran — asserted on structure (table entries, log position, snapshot size),
//! never on wall time.

use std::path::PathBuf;

use ifdb_storage::engine::{StorageEngine, StorageKind};
use ifdb_storage::wal::DurabilityConfig;
use ifdb_storage::{ColumnDef, DataType, Datum, TableId, TableSchema, TxnId};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ifdb-history-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn on_disk(tag: &str, durability: DurabilityConfig) -> (StorageEngine, TableId, PathBuf) {
    let dir = temp_dir(tag);
    let eng = StorageEngine::with_config(
        StorageKind::OnDisk {
            dir: dir.clone(),
            buffer_pages: 32,
        },
        durability,
    )
    .unwrap();
    let t = eng
        .create_table(TableSchema::new(
            "kv",
            vec![ColumnDef::new("k", DataType::Int)],
        ))
        .unwrap();
    (eng, t, dir)
}

fn write_one(eng: &StorageEngine, t: TableId, k: i64) {
    let txn = eng.begin().unwrap();
    eng.insert(txn, t, vec![], vec![Datum::Int(k)]).unwrap();
    eng.commit(txn).unwrap();
}

fn visible_rows(eng: &StorageEngine, t: TableId, txn: TxnId) -> usize {
    let snap = eng.snapshot(txn);
    let mut rows = 0;
    eng.scan_visible(&snap, t, |_, _| {
        rows += 1;
        true
    })
    .unwrap();
    rows
}

fn read_all(eng: &StorageEngine, t: TableId) -> usize {
    let txn = eng.begin().unwrap();
    let rows = visible_rows(eng, t, txn);
    eng.commit(txn).unwrap();
    rows
}

#[test]
fn read_only_transactions_leave_nothing_behind() {
    let (eng, t, dir) = on_disk("nothing-behind", DurabilityConfig::SYNC_EACH);
    write_one(&eng, t, 1);
    let before = eng.stats();
    let seq_before = eng.wal().last_seq();
    let table_before = before.txn_table_entries;
    assert_eq!(table_before, 1, "one committed writer so far");

    for i in 0..100_000u32 {
        let txn = eng.begin().unwrap();
        if i % 1000 == 0 {
            assert_eq!(visible_rows(&eng, t, txn), 1);
        }
        if i % 2 == 0 {
            eng.commit(txn).unwrap();
        } else {
            eng.abort(txn).unwrap();
        }
    }

    let after = eng.stats();
    assert_eq!(after.txn_table_entries, table_before, "no entry per reader");
    assert_eq!(after.txns_active, 0);
    assert_eq!(after.txns_read_only - before.txns_read_only, 100_000);
    assert_eq!(after.txns_started - before.txns_started, 100_000);
    assert_eq!(eng.wal().last_seq(), seq_before, "no record per reader");
    assert_eq!(after.wal_bytes, before.wal_bytes);
    assert_eq!(after.wal_fsyncs, before.wal_fsyncs, "a reader never fsyncs");

    // On a database that has only ever been read, the table is empty.
    let fresh = StorageEngine::in_memory();
    for _ in 0..1000 {
        let txn = fresh.begin().unwrap();
        fresh.commit(txn).unwrap();
    }
    assert_eq!(fresh.stats().txn_table_entries, 0);
    assert_eq!(fresh.wal().last_seq(), 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_snapshot_lists_exactly_the_concurrently_open_transactions() {
    let (eng, t, dir) = on_disk("snapshot-size", DurabilityConfig::NO_SYNC);
    // A long history of settled readers and writers...
    for k in 0..500 {
        write_one(&eng, t, k);
        assert_eq!(read_all(&eng, t), k as usize + 1);
    }
    // ...does not show in a snapshot: only who is open right now does.
    let lone = eng.begin().unwrap();
    assert!(eng.snapshot(lone).active.is_empty());
    let open: Vec<_> = (0..7).map(|_| eng.begin().unwrap()).collect();
    let snap = eng.snapshot(lone);
    assert_eq!(snap.active, open, "the others, in id order");
    let from_inside = eng.snapshot(open[3]);
    assert_eq!(from_inside.active.len(), 7, "six siblings and `lone`");
    assert!(!from_inside.active.contains(&open[3]));
    assert_eq!(eng.stats().txns_active, 8);
    for txn in open {
        eng.abort(txn).unwrap();
    }
    assert!(eng.snapshot(lone).active.is_empty());
    eng.commit(lone).unwrap();
    assert_eq!(eng.stats().txn_table_entries, 500, "one stamp per writer");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_deferred_checkpoint_fires_when_the_last_reader_settles() {
    for commit in [true, false] {
        let (eng, t, dir) = on_disk("reader-drains", DurabilityConfig::SYNC_EACH);
        write_one(&eng, t, 1);
        let reader = eng.begin().unwrap();
        assert_eq!(visible_rows(&eng, t, reader), 1);
        assert!(
            !eng.checkpoint_soon().unwrap(),
            "a reader is open: deferred"
        );
        assert_eq!(eng.stats().checkpoints, 0);
        if commit {
            eng.commit(reader).unwrap();
        } else {
            eng.abort(reader).unwrap();
        }
        let stats = eng.stats();
        assert_eq!(
            stats.checkpoints, 1,
            "the reader's settle drained the engine"
        );
        assert_eq!(stats.checkpoints_deferred, 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn read_only_commits_do_not_drive_the_periodic_policies() {
    let durability = DurabilityConfig::SYNC_EACH
        .with_checkpoint_every(3)
        .with_vacuum_every(3);
    let (eng, t, dir) = on_disk("policies", durability);
    write_one(&eng, t, 1);
    write_one(&eng, t, 2);
    for _ in 0..50 {
        assert_eq!(read_all(&eng, t), 2);
    }
    let stats = eng.stats();
    assert_eq!(
        (stats.checkpoints, stats.vacuums),
        (0, 0),
        "two commits so far"
    );
    write_one(&eng, t, 3);
    let stats = eng.stats();
    assert_eq!(
        (stats.checkpoints, stats.vacuums),
        (1, 1),
        "the third writer"
    );
    std::fs::remove_dir_all(&dir).ok();
}
