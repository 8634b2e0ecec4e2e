//! What a statement pays for depends on who is running now, not on who ever
//! ran — asserted on structure (table entries, log position, snapshot size,
//! row ids an index lookup fetches), never on wall time.

use std::path::PathBuf;

use ifdb_storage::engine::{StorageEngine, StorageKind};
use ifdb_storage::wal::DurabilityConfig;
use ifdb_storage::{
    ColumnDef, DataType, Datum, Snapshot, StorageError, TableId, TableSchema, TxnId,
};

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
fn a_checkpoint_does_not_wait_for_an_open_reader() {
    let durability = DurabilityConfig::SYNC_EACH.with_checkpoint_every(3);
    let (eng, t, dir) = on_disk("reader-open", durability);
    write_one(&eng, t, 1);
    let reader = eng.begin().unwrap();
    assert_eq!(visible_rows(&eng, t, reader), 1);
    eng.checkpoint().unwrap();
    assert_eq!(eng.stats().checkpoints, 1, "taken with the reader open");
    // The periodic policy fires on its third commit, reader or no reader.
    write_one(&eng, t, 2);
    write_one(&eng, t, 3);
    assert_eq!(eng.stats().checkpoints, 1);
    write_one(&eng, t, 4);
    assert_eq!(eng.stats().checkpoints, 2);
    eng.commit(reader).unwrap();
    let stats = eng.stats();
    assert_eq!((stats.checkpoints, stats.txns_active), (2, 0));
    drop(eng);
    let eng = StorageEngine::open(&dir, 32, DurabilityConfig::SYNC_EACH).unwrap();
    assert_eq!(read_all(&eng, t), 4);
    std::fs::remove_dir_all(&dir).ok();
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

/// An in-memory `kv (k, v)` table indexed on `k`.
fn indexed() -> (StorageEngine, TableId) {
    let eng = StorageEngine::in_memory();
    let t = eng
        .create_table(TableSchema::new(
            "kv",
            vec![
                ColumnDef::new("k", DataType::Int),
                ColumnDef::new("v", DataType::Int),
            ],
        ))
        .unwrap();
    eng.create_index(t, "kv_k", &["k"]).unwrap();
    (eng, t)
}

/// What one lookup of key `k` under `snap` did: the rows it found visible,
/// as `(row id, v)`, the row ids it fetched and the index entries it
/// dropped.
struct Lookup {
    visible: Vec<(ifdb_storage::RowId, i64)>,
    fetched: u64,
    dropped: u64,
}

fn lookup(eng: &StorageEngine, t: TableId, snap: &Snapshot, k: i64) -> Lookup {
    let before = eng.stats();
    let rows = eng.index_lookup(t, "kv_k", &[Datum::Int(k)]).unwrap();
    let mut visible = Vec::new();
    eng.visit_rows::<StorageError>(snap, t, rows, |row, tuple| {
        visible.push((row, tuple.field(1)?.as_int().unwrap()));
        Ok(true)
    })
    .unwrap();
    let after = eng.stats();
    Lookup {
        visible,
        fetched: after.index_rows_fetched - before.index_rows_fetched,
        dropped: after.index_entries_dropped - before.index_entries_dropped,
    }
}

/// Sets key `k`'s value to `v` in a transaction of its own, finding the
/// row through the index as an `UPDATE ... WHERE k = ...` does; returns
/// that lookup.
fn update(eng: &StorageEngine, t: TableId, k: i64, v: i64) -> Lookup {
    let txn = eng.begin().unwrap();
    let found = lookup(eng, t, &eng.snapshot(txn), k);
    let [(row, _)] = found.visible[..] else {
        panic!("one visible version of {k}, not {:?}", found.visible);
    };
    eng.update(txn, t, row, vec![], vec![Datum::Int(k), Datum::Int(v)])
        .unwrap();
    eng.commit(txn).unwrap();
    found
}

#[test]
fn a_lookup_fetches_the_live_version_not_the_keys_history() {
    let (eng, t) = indexed();
    let txn = eng.begin().unwrap();
    eng.insert(txn, t, vec![], vec![Datum::Int(1), Datum::Int(0)])
        .unwrap();
    eng.commit(txn).unwrap();
    for v in 1..=1_000 {
        // Each lookup meets the version the previous update superseded,
        // which no snapshot can see any more, and drops it.
        assert!(update(&eng, t, 1, v).fetched <= 2);
    }
    let reader = eng.begin().unwrap();
    let after = lookup(&eng, t, &eng.snapshot(reader), 1);
    assert_eq!(after.visible.len(), 1);
    assert_eq!(after.visible[0].1, 1_000);
    assert!(after.fetched <= 2, "fetched {} row ids", after.fetched);
    eng.commit(reader).unwrap();
    // The heap keeps the versions until vacuum, which finds no entry left
    // to remove with them.
    let entries = eng.index_range(t, "kv_k", None, None).unwrap();
    assert!(entries.len() <= 2);
    assert_eq!(eng.vacuum().unwrap(), 1_000);
    assert_eq!(eng.index_range(t, "kv_k", None, None).unwrap().len(), 1);
}

#[test]
fn a_running_snapshot_keeps_its_version_until_it_ends() {
    let (eng, t) = indexed();
    let txn = eng.begin().unwrap();
    eng.insert(txn, t, vec![], vec![Datum::Int(1), Datum::Int(0)])
        .unwrap();
    eng.commit(txn).unwrap();
    let reader = eng.begin().unwrap();
    let snap = eng.snapshot(reader);
    assert_eq!(lookup(&eng, t, &snap, 1).visible[0].1, 0);
    for v in 1..=1_000 {
        // The reader may still read every version these supersede.
        assert_eq!(update(&eng, t, 1, v).dropped, 0);
    }
    let old = lookup(&eng, t, &snap, 1);
    assert_eq!(old.visible.len(), 1);
    assert_eq!(old.visible[0].1, 0, "the reader still reads its version");
    assert_eq!((old.fetched, old.dropped), (1_001, 0));
    eng.commit(reader).unwrap();
    // The next lookup drops the history no snapshot can see any more...
    let next = eng.snapshot(eng.begin().unwrap());
    let cleaning = lookup(&eng, t, &next, 1);
    assert_eq!(cleaning.visible[0].1, 1_000);
    assert_eq!((cleaning.fetched, cleaning.dropped), (1_001, 1_000));
    // ...and the one after it fetches the live version alone.
    let clean = lookup(&eng, t, &next, 1);
    assert_eq!((clean.visible.len(), clean.fetched), (1, 1));
    eng.commit(next.txn).unwrap();
}

#[test]
fn an_aborted_inserts_entry_is_dropped() {
    let (eng, t) = indexed();
    let txn = eng.begin().unwrap();
    eng.insert(txn, t, vec![], vec![Datum::Int(7), Datum::Int(1)])
        .unwrap();
    eng.abort(txn).unwrap();
    let reader = eng.snapshot(eng.begin().unwrap());
    let first = lookup(&eng, t, &reader, 7);
    assert!(first.visible.is_empty());
    assert_eq!((first.fetched, first.dropped), (1, 1));
    assert!(eng
        .index_lookup(t, "kv_k", &[Datum::Int(7)])
        .unwrap()
        .is_empty());
    assert_eq!(lookup(&eng, t, &reader, 7).fetched, 0);
    eng.commit(reader.txn).unwrap();
}
