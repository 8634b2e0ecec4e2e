//! Crash-recovery integration tests: commit/kill/reopen round trips, torn
//! log tails, checkpoint compaction, and a recovery-equivalence property
//! (`replay(log(ops)) ≡ ops applied live`) in the style of the difc crate's
//! proptests.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use proptest::prelude::*;

use ifdb_storage::engine::{StorageEngine, StorageKind};
use ifdb_storage::heap::{RowId, Verdict};
use ifdb_storage::mvcc::BOOTSTRAP_TXN;
use ifdb_storage::wal::{DurabilityConfig, LogRecord, Wal};
use ifdb_storage::{
    ColumnDef, DataType, Datum, ReplicaApplier, StorageError, TableId, TableSchema, TxnId,
    REPLICA_LOCAL_TXN_BASE,
};

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("ifdb-crash-recovery-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn fresh_engine(dir: &Path, durability: DurabilityConfig) -> StorageEngine {
    StorageEngine::with_config(
        StorageKind::OnDisk {
            dir: dir.to_path_buf(),
            buffer_pages: 16,
        },
        durability,
    )
    .unwrap()
}

fn two_table_schema(eng: &StorageEngine) -> (TableId, TableId) {
    let a = eng
        .create_table(TableSchema::new(
            "alpha",
            vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("payload", DataType::Text),
            ],
        ))
        .unwrap();
    eng.create_index(a, "alpha_pkey", &["id"]).unwrap();
    let b = eng
        .create_table(TableSchema::new(
            "beta",
            vec![ColumnDef::new("k", DataType::Int)],
        ))
        .unwrap();
    (a, b)
}

/// Every visible row of every table, sorted, with its label — the observable
/// state recovery must reproduce.
fn observable_state(eng: &StorageEngine) -> BTreeMap<String, Vec<(Vec<u64>, String)>> {
    let txn = eng.begin().unwrap();
    let snap = eng.snapshot(txn);
    let mut out = BTreeMap::new();
    let mut names = eng.table_names();
    names.sort();
    for name in names {
        let t = eng.table_by_name(&name).unwrap();
        let mut rows = Vec::new();
        eng.scan_visible(&snap, t.id(), |_, v| {
            rows.push((v.header.label.clone(), format!("{:?}", v.data)));
            true
        })
        .unwrap();
        rows.sort();
        out.insert(name, rows);
    }
    eng.abort(txn).unwrap();
    out
}

#[test]
fn kill_reopen_preserves_committed_drops_inflight() {
    let dir = temp_dir("kill-reopen");
    {
        let eng = fresh_engine(&dir, DurabilityConfig::GROUP_COMMIT);
        let (a, b) = two_table_schema(&eng);
        let t1 = eng.begin().unwrap();
        for i in 0..25 {
            eng.insert(
                t1,
                a,
                vec![1, 2, i],
                vec![Datum::Int(i as i64), Datum::Text(format!("alpha{i}"))],
            )
            .unwrap();
        }
        eng.commit(t1).unwrap();
        let t2 = eng.begin().unwrap();
        eng.insert(t2, b, vec![], vec![Datum::Int(7)]).unwrap();
        eng.commit(t2).unwrap();
        // Delete one committed row, commit the delete.
        let t3 = eng.begin().unwrap();
        let victim = eng.index_lookup(a, "alpha_pkey", &[Datum::Int(3)]).unwrap()[0];
        eng.delete(t3, a, victim).unwrap();
        eng.commit(t3).unwrap();
        // Crash with two transactions in flight: one insert, one delete.
        let ghost = eng.begin().unwrap();
        eng.insert(
            ghost,
            a,
            vec![9],
            vec![Datum::Int(999), Datum::from("ghost")],
        )
        .unwrap();
        let ghost2 = eng.begin().unwrap();
        let near_miss = eng.index_lookup(a, "alpha_pkey", &[Datum::Int(5)]).unwrap()[0];
        eng.delete(ghost2, a, near_miss).unwrap();
        // No commit, no flush: process "dies" here.
    }
    let eng = StorageEngine::open(&dir, 16, DurabilityConfig::GROUP_COMMIT).unwrap();
    let a = eng.table_by_name("alpha").unwrap().id();
    let b = eng.table_by_name("beta").unwrap().id();

    let state = observable_state(&eng);
    assert_eq!(
        state["alpha"].len(),
        24,
        "25 committed - 1 deleted; ghost dropped"
    );
    assert_eq!(state["beta"].len(), 1);
    // The uncommitted delete did not take: id=5 is still visible.
    let txn = eng.begin().unwrap();
    let snap = eng.snapshot(txn);
    let row5 = eng.index_lookup(a, "alpha_pkey", &[Datum::Int(5)]).unwrap()[0];
    assert!(eng.fetch_visible(&snap, a, row5).unwrap().is_some());
    // The committed delete did: id=3 is gone from visible state.
    let hits3 = eng.index_lookup(a, "alpha_pkey", &[Datum::Int(3)]).unwrap();
    for row in hits3 {
        assert!(eng.fetch_visible(&snap, a, row).unwrap().is_none());
    }
    // Labels round-tripped through the log.
    assert!(state["alpha"].iter().all(|(label, _)| label.len() == 3));
    eng.abort(txn).unwrap();
    // The recovered engine keeps working durably.
    let t = eng.begin().unwrap();
    eng.insert(t, b, vec![], vec![Datum::Int(8)]).unwrap();
    eng.commit(t).unwrap();
    assert_eq!(observable_state(&eng)["beta"].len(), 2);
    std::fs::remove_dir_all(&dir).ok();
}

/// A genuine kill: the child process commits durably and then `abort()`s —
/// no destructors, no `BufWriter` flush — and the parent recovers. This is
/// the strongest form of the kill/reopen guarantee: anything `commit()`
/// returned for under `GROUP_COMMIT` must be on the device already.
#[test]
fn real_process_kill_preserves_durable_commits() {
    if let Ok(dir) = std::env::var("IFDB_CRASH_DIR") {
        // Child mode: do durable work, then die without running any drops.
        let dir = PathBuf::from(dir);
        let eng = fresh_engine(&dir, DurabilityConfig::GROUP_COMMIT);
        let (a, _b) = two_table_schema(&eng);
        for i in 0..10 {
            let txn = eng.begin().unwrap();
            eng.insert(txn, a, vec![1], vec![Datum::Int(i), Datum::from("durable")])
                .unwrap();
            eng.commit(txn).unwrap();
        }
        // One transaction in flight at the kill.
        let ghost = eng.begin().unwrap();
        eng.insert(
            ghost,
            a,
            vec![],
            vec![Datum::Int(999), Datum::from("ghost")],
        )
        .unwrap();
        std::process::abort();
    }
    let dir = temp_dir("process-kill");
    let status = std::process::Command::new(std::env::current_exe().unwrap())
        .arg("real_process_kill_preserves_durable_commits")
        .arg("--exact")
        .arg("--nocapture")
        .env("IFDB_CRASH_DIR", &dir)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .unwrap();
    assert!(
        !status.success(),
        "child must die by abort, not exit cleanly"
    );
    let eng = StorageEngine::open(&dir, 16, DurabilityConfig::GROUP_COMMIT).unwrap();
    let state = observable_state(&eng);
    assert_eq!(
        state["alpha"].len(),
        10,
        "every acknowledged commit survives SIGABRT"
    );
    assert!(state["alpha"].iter().all(|(label, _)| label == &vec![1]));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_tail_recovery_keeps_committed_prefix() {
    let dir = temp_dir("torn-tail");
    {
        let eng = fresh_engine(&dir, DurabilityConfig::SYNC_EACH);
        let (a, _) = two_table_schema(&eng);
        for i in 0..5 {
            let txn = eng.begin().unwrap();
            eng.insert(txn, a, vec![], vec![Datum::Int(i), Datum::from("keep")])
                .unwrap();
            eng.commit(txn).unwrap();
        }
    }
    // Corrupt the last bytes of the log, as a crash mid-append would.
    let wal_path = dir.join("wal.log");
    let mut bytes = std::fs::read(&wal_path).unwrap();
    let n = bytes.len();
    for b in &mut bytes[n - 3..] {
        *b = 0xEE;
    }
    bytes.extend_from_slice(&[0xAB; 5]);
    std::fs::write(&wal_path, &bytes).unwrap();

    let eng = StorageEngine::open(&dir, 16, DurabilityConfig::SYNC_EACH).unwrap();
    let a = eng.table_by_name("alpha").unwrap().id();
    let txn = eng.begin().unwrap();
    let snap = eng.snapshot(txn);
    let mut rows = 0;
    eng.scan_visible(&snap, a, |_, _| {
        rows += 1;
        true
    })
    .unwrap();
    // The final commit record was destroyed, so its transaction is dropped;
    // every earlier committed row survives.
    assert_eq!(rows, 4);
    eng.abort(txn).unwrap();
    // The truncated log accepts appends again and stays clean.
    let t = eng.begin().unwrap();
    eng.insert(t, a, vec![], vec![Datum::Int(50), Datum::from("after")])
        .unwrap();
    eng.commit(t).unwrap();
    drop(eng);
    let eng = StorageEngine::open(&dir, 16, DurabilityConfig::SYNC_EACH).unwrap();
    assert_eq!(observable_state(&eng)["alpha"].len(), 5);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpoint_shrinks_replay_without_changing_state() {
    let dir = temp_dir("ckpt-replay");
    let expected;
    let replayed_unckpt;
    {
        let eng = fresh_engine(&dir, DurabilityConfig::SYNC_EACH);
        let (a, _) = two_table_schema(&eng);
        let mut rows = Vec::new();
        let t0 = eng.begin().unwrap();
        for i in 0..30 {
            rows.push(
                eng.insert(
                    t0,
                    a,
                    vec![i],
                    vec![Datum::Int(i as i64), Datum::from("v0")],
                )
                .unwrap(),
            );
        }
        eng.commit(t0).unwrap();
        for round in 1..=4 {
            let txn = eng.begin().unwrap();
            for (i, row) in rows.iter_mut().enumerate() {
                *row = eng
                    .update(
                        txn,
                        a,
                        *row,
                        vec![i as u64],
                        vec![Datum::Int(i as i64), Datum::Text(format!("v{round}"))],
                    )
                    .unwrap();
            }
            eng.commit(txn).unwrap();
        }
        expected = observable_state(&eng);
    }
    {
        let eng = StorageEngine::open(&dir, 16, DurabilityConfig::SYNC_EACH).unwrap();
        replayed_unckpt = eng.stats().recovery_replayed_records;
        assert_eq!(observable_state(&eng), expected);
        // Now checkpoint and add a small delta.
        eng.checkpoint().unwrap();
        let txn = eng.begin().unwrap();
        let b = eng.table_by_name("beta").unwrap().id();
        eng.insert(txn, b, vec![], vec![Datum::Int(1)]).unwrap();
        eng.commit(txn).unwrap();
    }
    let eng = StorageEngine::open(&dir, 16, DurabilityConfig::SYNC_EACH).unwrap();
    let replayed_ckpt = eng.stats().recovery_replayed_records;
    assert!(
        replayed_ckpt < replayed_unckpt / 2,
        "checkpoint must shrink replay: {replayed_ckpt} vs {replayed_unckpt}"
    );
    let mut after = observable_state(&eng);
    assert_eq!(after["beta"].len(), 1);
    after.get_mut("beta").unwrap().clear();
    let mut expected = expected;
    expected.get_mut("beta").unwrap().clear();
    assert_eq!(after, expected, "checkpoint preserves observable state");
    std::fs::remove_dir_all(&dir).ok();
}

// ----------------------------------------------------------------------
// Lazy Begin
// ----------------------------------------------------------------------

fn count_rows(eng: &StorageEngine, txn: TxnId, table: TableId) -> usize {
    let snap = eng.snapshot(txn);
    let mut rows = 0;
    eng.scan_visible(&snap, table, |_, _| {
        rows += 1;
        true
    })
    .unwrap();
    rows
}

#[test]
fn begin_is_logged_with_the_first_write_and_recovers() {
    let dir = temp_dir("lazy-begin");
    let wal_path = dir.join("wal.log");
    let (reader_writer, torn);
    {
        let eng = fresh_engine(&dir, DurabilityConfig::SYNC_EACH);
        let (a, _) = two_table_schema(&eng);
        let ddl_seq = eng.wal().last_seq();
        // A transaction that reads first logs nothing until it writes...
        reader_writer = eng.begin().unwrap();
        assert_eq!(count_rows(&eng, reader_writer, a), 0);
        // ...nor does a pure reader that comes and goes meanwhile.
        let reader = eng.begin().unwrap();
        assert_eq!(count_rows(&eng, reader, a), 0);
        eng.commit(reader).unwrap();
        assert_eq!(eng.wal().last_seq(), ddl_seq, "reads append nothing");
        for i in 0..3 {
            eng.insert(
                reader_writer,
                a,
                vec![1],
                vec![Datum::Int(i), Datum::from("rw")],
            )
            .unwrap();
        }
        eng.commit(reader_writer).unwrap();
        // A second read-then-write transaction is in flight at the crash.
        torn = eng.begin().unwrap();
        assert_eq!(count_rows(&eng, torn, a), 3);
        eng.insert(torn, a, vec![1], vec![Datum::Int(9), Datum::from("torn")])
            .unwrap();
        eng.flush().unwrap();
    }
    let records = Wal::replay_file(&wal_path).unwrap();
    for txn in [reader_writer, torn] {
        let named: Vec<usize> = (0..records.len())
            .filter(|i| match &records[*i] {
                LogRecord::Begin { txn: t }
                | LogRecord::Insert { txn: t, .. }
                | LogRecord::Commit { txn: t } => *t == txn,
                _ => false,
            })
            .collect();
        assert!(
            matches!(records[named[0]], LogRecord::Begin { .. }),
            "a Begin precedes the transaction's first write"
        );
        assert_eq!(named[1], named[0] + 1, "directly ahead of the first Insert");
        assert!(matches!(records[named[1]], LogRecord::Insert { .. }));
    }
    assert!(
        records
            .iter()
            .all(|r| !matches!(r, LogRecord::Abort { .. })),
        "the reader's settle left no record"
    );

    // Tear the log between the in-flight transaction's Begin and its first
    // Insert: keep everything through the Begin plus a fragment of the
    // Insert's frame, as a crash mid-append would.
    let begin_at = records
        .iter()
        .position(|r| *r == LogRecord::Begin { txn: torn })
        .unwrap();
    let keep: usize = records[..=begin_at]
        .iter()
        .map(|r| Wal::encode_record(r).len() + 8)
        .sum();
    let bytes = std::fs::read(&wal_path).unwrap();
    assert!(bytes.len() > keep + 5);
    std::fs::write(&wal_path, &bytes[..keep + 5]).unwrap();

    let eng = StorageEngine::open(&dir, 16, DurabilityConfig::SYNC_EACH).unwrap();
    let a = eng.table_by_name("alpha").unwrap().id();
    let state = observable_state(&eng);
    assert_eq!(state["alpha"].len(), 3, "the committed read-then-write txn");
    assert!(state["alpha"].iter().all(|(_, data)| data.contains("rw")));
    // The orphaned Begin still fences its id, and the log takes appends.
    let next = eng.begin().unwrap();
    assert!(next > torn, "{next} reuses a logged id");
    eng.insert(next, a, vec![], vec![Datum::Int(50), Datum::from("after")])
        .unwrap();
    eng.commit(next).unwrap();
    drop(eng);
    let eng = StorageEngine::open(&dir, 16, DurabilityConfig::SYNC_EACH).unwrap();
    assert_eq!(observable_state(&eng)["alpha"].len(), 4);
    std::fs::remove_dir_all(&dir).ok();
}

// ----------------------------------------------------------------------
// Recovery equivalence property
// ----------------------------------------------------------------------

/// Interprets one opcode stream against an engine: begins/commits/aborts
/// transactions, inserts rows (one at a time, or a hundred at once — enough
/// for a label to outgrow the heap's shared tail and open its own pages) at
/// four labels, deletes or updates rows, and occasionally checkpoints, with
/// or without transactions open. Transactions still open at the end are
/// left in flight (the "crash").
fn run_script(eng: &StorageEngine, tables: &[TableId; 2], script: &[u64]) {
    let mut open: Vec<u64> = Vec::new(); // TxnIds of open transactions
    let mut live_rows: Vec<(TableId, RowId)> = Vec::new();
    let mut next_val = 0i64;
    for &word in script {
        let op = word % 6;
        let arg = (word / 8) as usize;
        match op {
            0 => {
                if open.len() < 3 {
                    open.push(eng.begin().unwrap().0);
                }
            }
            1 | 2 => {
                if let Some(&txn) = open.get(arg % open.len().max(1)) {
                    let table = tables[arg % 2];
                    let label = vec![(arg % 4) as u64];
                    let rows = if op == 1 { 1 } else { 100 };
                    for _ in 0..rows {
                        let values = if table == tables[0] {
                            vec![Datum::Int(next_val), Datum::Text(format!("r{next_val}"))]
                        } else {
                            vec![Datum::Int(next_val)]
                        };
                        next_val += 1;
                        let row = eng
                            .insert(TxnId(txn), table, label.clone(), values)
                            .unwrap();
                        live_rows.push((table, row));
                    }
                }
            }
            3 => {
                if !open.is_empty() && !live_rows.is_empty() {
                    let txn = open[arg % open.len()];
                    let (table, row) = live_rows[arg % live_rows.len()];
                    // Write conflicts with a concurrent writer are expected,
                    // and so is a row whose inserter aborted, which never
                    // existed; any other error is a bug.
                    let written = if arg.is_multiple_of(2) {
                        eng.delete(TxnId(txn), table, row).map(|()| None)
                    } else {
                        // A new value, under the label the arguments name.
                        let values = if table == tables[0] {
                            vec![Datum::Int(next_val), Datum::Text(format!("u{next_val}"))]
                        } else {
                            vec![Datum::Int(next_val)]
                        };
                        next_val += 1;
                        let label = vec![(arg / 2 % 4) as u64];
                        eng.update(TxnId(txn), table, row, label, values).map(Some)
                    };
                    match written {
                        Ok(Some(new)) => live_rows.push((table, new)),
                        Ok(None)
                        | Err(StorageError::WriteConflict { .. })
                        | Err(StorageError::UnknownRow { .. }) => {}
                        Err(e) => panic!("unexpected delete or update error: {e}"),
                    }
                }
            }
            4 => {
                if !open.is_empty() {
                    let txn = open.swap_remove(arg % open.len());
                    eng.commit(TxnId(txn)).unwrap();
                }
            }
            5 => {
                // A checkpoint mid-history, quiescent or beside the open
                // transactions, which the image then carries.
                if open.is_empty() || arg.is_multiple_of(3) {
                    eng.checkpoint().unwrap();
                } else {
                    let txn = open.swap_remove(arg % open.len());
                    eng.abort(TxnId(txn)).unwrap();
                }
            }
            _ => unreachable!(),
        }
    }
}

/// Where every visible row of every table sits: redo puts each version back
/// at the row id it was logged with.
fn visible_row_ids(eng: &StorageEngine) -> BTreeMap<String, BTreeMap<RowId, String>> {
    let txn = eng.begin().unwrap();
    let snap = eng.snapshot(txn);
    let mut out = BTreeMap::new();
    for name in eng.table_names() {
        let t = eng.table_by_name(&name).unwrap();
        let mut rows = BTreeMap::new();
        eng.scan_visible(&snap, t.id(), |row, v| {
            rows.insert(row, format!("{:?} {:?}", v.header.label, v.data));
            true
        })
        .unwrap();
        out.insert(name, rows);
    }
    eng.abort(txn).unwrap();
    out
}

/// A replica of `primary` fed its whole log (its checkpoint image, if it
/// has one, and what follows).
fn replica_of(primary: &StorageEngine) -> StorageEngine {
    let replica = StorageEngine::in_memory();
    replica.txns().reserve_local_ids(REPLICA_LOCAL_TXN_BASE);
    let batch = primary.wal().read_replication_batch(1, usize::MAX);
    ReplicaApplier::new()
        .apply_batch(&replica, batch.first_seq, &batch.records)
        .unwrap();
    replica
}

/// Whether every row on a single-label heap page carries the page's label —
/// the layout invariant replay must rebuild along with the rows.
fn pages_hold_their_labels(eng: &StorageEngine) -> bool {
    let mut ok = true;
    for name in eng.table_names() {
        let t = eng.table_by_name(&name).unwrap();
        t.heap()
            .walk::<StorageError>(
                &[],
                |_| Ok(Verdict::Read),
                |_, label, tuple| {
                    ok &= label.is_none_or(|l| tuple.label_id() == l);
                    Ok(true)
                },
            )
            .unwrap();
    }
    ok
}

/// Whether every `Insert` in `eng`'s log carries its page tuple past the
/// MVCC header, byte for byte, and names the tuple's `xmin` unless it is
/// part of a checkpoint image (which logs settled rows as the bootstrap
/// transaction's); and whether every `Update` rebuilds the body of the
/// version it placed, byte for byte, from the body its old slot holds, and
/// names that version's `xmin`.
fn logged_bodies_are_page_bytes(eng: &StorageEngine) -> bool {
    let batch = eng.wal().read_replication_batch(1, usize::MAX);
    let slot = |table: u32, row: RowId| {
        eng.table(TableId(table))
            .unwrap()
            .heap()
            .read::<_, StorageError>(row, |tuple| Ok((tuple.xmin(), tuple.body().to_vec())))
            .unwrap()
            .unwrap()
    };
    batch.records.iter().all(|record| match record {
        LogRecord::Insert {
            txn,
            table,
            row,
            body,
            ..
        } => {
            let (xmin, bytes) = slot(*table, *row);
            bytes == *body && (*txn == BOOTSTRAP_TXN || xmin == *txn)
        }
        LogRecord::Update {
            txn,
            table,
            old,
            row,
            prefix,
            suffix,
            middle,
            ..
        } => {
            let (_, base) = slot(*table, *old);
            let (xmin, bytes) = slot(*table, *row);
            let (prefix, suffix) = (*prefix as usize, *suffix as usize);
            let mut rebuilt = base[..prefix].to_vec();
            rebuilt.extend_from_slice(middle);
            rebuilt.extend_from_slice(&base[base.len() - suffix..]);
            rebuilt == bytes && xmin == *txn
        }
        _ => true,
    })
}

proptest! {
    #[test]
    fn replaying_the_log_reproduces_live_state(
        script in proptest::collection::vec(0u64..4096, 0..80),
    ) {
        let dir = temp_dir("equivalence");
        let (live_state, live_rows, live_labels);
        {
            let eng = fresh_engine(&dir, DurabilityConfig::NO_SYNC);
            let (a, b) = two_table_schema(&eng);
            run_script(&eng, &[a, b], &script);
            live_state = observable_state(&eng);
            live_rows = visible_row_ids(&eng);
            live_labels = eng.labels().to_vec();
            prop_assert!(logged_bodies_are_page_bytes(&eng));
            // A replica's heap is its primary's, slot for slot, and its
            // label dictionary is its primary's, id for id.
            let replica = replica_of(&eng);
            prop_assert_eq!(&visible_row_ids(&replica), &live_rows);
            prop_assert_eq!(&replica.labels().to_vec(), &live_labels);
            prop_assert!(pages_hold_their_labels(&replica));
            // Engine dropped here with whatever transactions were open:
            // the BufWriter flush on drop plays the role of the log being
            // fully on disk at crash time.
        }
        let eng = StorageEngine::open(&dir, 16, DurabilityConfig::NO_SYNC).unwrap();
        let recovered_state = observable_state(&eng);
        prop_assert_eq!(&recovered_state, &live_state);
        prop_assert_eq!(&visible_row_ids(&eng), &live_rows);
        prop_assert_eq!(&eng.labels().to_vec(), &live_labels);
        prop_assert!(pages_hold_their_labels(&eng));
        prop_assert!(logged_bodies_are_page_bytes(&eng));
        // Redo skips nothing, so nothing needs re-anchoring.
        prop_assert_eq!(eng.stats().checkpoints, 0);
        // Second recovery: writes logged *after* a recovery — in particular
        // deletes of recovered rows — must survive another redo.
        let a = eng.table_by_name("alpha").unwrap().id();
        let txn = eng.begin().unwrap();
        let snap = eng.snapshot(txn);
        let mut victim = None;
        eng.scan_visible(&snap, a, |row, _| {
            victim = Some(row);
            false
        })
        .unwrap();
        if let Some(row) = victim {
            eng.delete(txn, a, row).unwrap();
        }
        eng.insert(txn, a, vec![42], vec![Datum::Int(-1), Datum::from("post-recovery")])
            .unwrap();
        eng.commit(txn).unwrap();
        let after_writes = observable_state(&eng);
        let after_rows = visible_row_ids(&eng);
        let after_labels = eng.labels().to_vec();
        drop(eng);
        let eng = StorageEngine::open(&dir, 16, DurabilityConfig::NO_SYNC).unwrap();
        prop_assert_eq!(&observable_state(&eng), &after_writes);
        prop_assert_eq!(&visible_row_ids(&eng), &after_rows);
        prop_assert_eq!(&eng.labels().to_vec(), &after_labels);
        // A checkpoint image lists every label under its id, so the ids its
        // rows carry mean the same after it.
        eng.checkpoint().unwrap();
        drop(eng);
        let eng = StorageEngine::open(&dir, 16, DurabilityConfig::NO_SYNC).unwrap();
        prop_assert_eq!(&observable_state(&eng), &after_writes);
        prop_assert_eq!(&visible_row_ids(&eng), &after_rows);
        prop_assert_eq!(&eng.labels().to_vec(), &after_labels);
        prop_assert!(pages_hold_their_labels(&eng));
        std::fs::remove_dir_all(&dir).ok();
    }
}

// ----------------------------------------------------------------------
// Checkpoints racing writers
// ----------------------------------------------------------------------

/// The write gate under contention: three group-commit writers insert,
/// update, delete and abort on both tables while another thread
/// checkpoints over and over, so images are cut with writers mid-statement
/// and mid-commit (a group-commit follower waits for its fsync inside the
/// gate). The checkpointer stops first, and the writers' last
/// transactions finish after the last image; then each writer leaves one
/// transaction open and the engine "crashes". The log must reproduce the
/// live state on `open` and on a replica fed it: nothing committed lost,
/// nothing uncommitted revived.
#[test]
fn checkpoints_racing_writers_keep_the_log_equal_to_live_state() {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::time::Duration;

    let dir = temp_dir("racing-checkpoints");
    let (live_state, live_rows);
    {
        let eng = fresh_engine(&dir, DurabilityConfig::GROUP_COMMIT);
        let (a, b) = two_table_schema(&eng);
        let (stop_images, stop_writes) = (AtomicBool::new(false), AtomicBool::new(false));
        let images = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for w in 0..3i64 {
                let (eng, stop) = (&eng, &stop_writes);
                scope.spawn(move || {
                    // This writer's committed rows in `alpha`: it deletes and
                    // updates only its own, so writers never conflict.
                    let mut rows: Vec<RowId> = Vec::new();
                    let label = vec![w as u64 % 2];
                    let mut next = w * 1_000_000;
                    let mut round = 0;
                    while !stop.load(Ordering::Relaxed) {
                        round += 1;
                        let txn = eng.begin().unwrap();
                        let mut mine = rows.clone();
                        for _ in 0..2 {
                            next += 1;
                            let values = vec![Datum::Int(next), Datum::Text(format!("w{w}"))];
                            mine.push(eng.insert(txn, a, label.clone(), values).unwrap());
                            eng.insert(txn, b, vec![], vec![Datum::Int(next)]).unwrap();
                        }
                        if mine.len() > 4 {
                            let victim = mine.remove(0);
                            eng.delete(txn, a, victim).unwrap();
                            let at = round % mine.len();
                            let values = vec![Datum::Int(-next), Datum::from("updated")];
                            mine[at] = eng.update(txn, a, mine[at], label.clone(), values).unwrap();
                        }
                        if round.is_multiple_of(5) {
                            eng.abort(txn).unwrap();
                        } else {
                            eng.commit(txn).unwrap();
                            rows = mine;
                        }
                    }
                    // The transaction the crash cuts off.
                    let txn = eng.begin().unwrap();
                    let values = vec![Datum::Int(-1 - w), Datum::from("cut off")];
                    eng.insert(txn, a, label.clone(), values).unwrap();
                    if let Some(row) = rows.first() {
                        eng.delete(txn, a, *row).unwrap();
                    }
                });
            }
            scope.spawn(|| {
                while !stop_images.load(Ordering::Relaxed) {
                    eng.checkpoint().unwrap();
                    images.fetch_add(1, Ordering::Relaxed);
                }
            });
            std::thread::sleep(Duration::from_millis(400));
            stop_images.store(true, Ordering::Relaxed);
            std::thread::sleep(Duration::from_millis(50));
            stop_writes.store(true, Ordering::Relaxed);
        });
        assert!(images.load(Ordering::Relaxed) >= 2, "checkpoints ran");
        assert_eq!(eng.stats().txns_active, 3, "the cut-off writers");
        live_state = observable_state(&eng);
        live_rows = visible_row_ids(&eng);
        assert!(live_state["alpha"].len() > 4);
        assert!(logged_bodies_are_page_bytes(&eng));
        let replica = replica_of(&eng);
        assert_eq!(visible_row_ids(&replica), live_rows);
    }
    let eng = StorageEngine::open(&dir, 16, DurabilityConfig::GROUP_COMMIT).unwrap();
    assert_eq!(observable_state(&eng), live_state);
    assert_eq!(visible_row_ids(&eng), live_rows);
    assert_eq!(eng.stats().txns_active, 0, "the cut-off writers aborted");
    std::fs::remove_dir_all(&dir).ok();
}

// ----------------------------------------------------------------------
// One record per UPDATE
// ----------------------------------------------------------------------

/// Feeds `replica` what `primary`'s log holds past what its applier has
/// applied, as a replica's poll loop does.
fn pump(primary: &StorageEngine, replica: &StorageEngine, applier: &mut ReplicaApplier) {
    loop {
        let batch = primary
            .wal()
            .read_replication_batch(applier.applied_seq() + 1, 64);
        if batch.reset {
            applier.reset(replica);
        }
        if batch.records.is_empty() && !batch.reset {
            // A caught-up replica skips the image of a checkpoint.
            applier.advance_to(batch.first_seq.saturating_sub(1));
            return;
        }
        applier
            .apply_batch(replica, batch.first_seq, &batch.records)
            .unwrap();
        if applier.applied_seq() >= batch.end_seq {
            return;
        }
    }
}

/// The `Update` records of `records`, as `(chain, middle length)`.
fn updates(records: &[LogRecord]) -> Vec<(bool, usize)> {
    records
        .iter()
        .filter_map(|r| match r {
            LogRecord::Update { chain, middle, .. } => Some((*chain, middle.len())),
            _ => None,
        })
        .collect()
}

#[test]
fn logged_updates_redo_to_the_live_state() {
    let dir = temp_dir("updates");
    let copy = temp_dir("updates-before-image");
    let eng = fresh_engine(&dir, DurabilityConfig::NO_SYNC);
    let g = eng
        .create_table(TableSchema::new(
            "gamma",
            vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("note", DataType::Text),
                ColumnDef::nullable("at", DataType::Timestamp),
            ],
        ))
        .unwrap();
    eng.create_index(g, "gamma_pkey", &["id"]).unwrap();
    // The version of row `id` that `txn` sees.
    let row_of = |txn: TxnId, id: i64| -> RowId {
        let snap = eng.snapshot(txn);
        let rows = eng
            .index_lookup(g, "gamma_pkey", &[Datum::Int(id)])
            .unwrap();
        let mut seen = rows
            .into_iter()
            .filter(|r| eng.fetch_visible(&snap, g, *r).unwrap().is_some());
        let row = seen.next().unwrap();
        assert_eq!(seen.next(), None, "one version of {id} visible");
        row
    };
    let values = |id: i64, note: &str, at: Option<i64>| {
        vec![
            Datum::Int(id),
            Datum::from(note),
            at.map_or(Datum::Null, Datum::Timestamp),
        ]
    };
    let label = |id: i64| if id < 1_000 { vec![7] } else { vec![] };
    let update = |txn: TxnId, id: i64, note: &str, at: Option<i64>| {
        eng.update(txn, g, row_of(txn, id), label(id), values(id, note, at))
            .unwrap()
    };
    let long = "x".repeat(60);

    // Rows under a label, enough to outgrow the shared tail onto the
    // label's chain, and unlabeled rows after them on the tail.
    let txn = eng.begin().unwrap();
    for id in (0..200).chain(1_000..1_010) {
        eng.insert(txn, g, label(id), values(id, &long, None))
            .unwrap();
    }
    eng.commit(txn).unwrap();
    let mut streamed = ReplicaApplier::new();
    let replica = StorageEngine::in_memory();
    replica.txns().reserve_local_ids(REPLICA_LOCAL_TXN_BASE);
    pump(&eng, &replica, &mut streamed);

    // One row updated twice in one transaction, growing (Null → Timestamp)
    // and then shrinking its Text: the second update's old version is the
    // first one's new version. Then again by a later transaction, beside a
    // row that grows and one whose Text shrinks to nothing.
    let txn = eng.begin().unwrap();
    update(txn, 0, &long, Some(1));
    update(txn, 0, "twice", Some(1));
    eng.commit(txn).unwrap();
    let txn = eng.begin().unwrap();
    update(txn, 0, "t", Some(2));
    update(txn, 1, &long, Some(3));
    update(txn, 2, "", None);
    eng.commit(txn).unwrap();
    // An aborted update, and the row updated again afterwards.
    let txn = eng.begin().unwrap();
    update(txn, 3, "rolled back", Some(4));
    update(txn, 1_003, "rolled back", Some(4));
    eng.abort(txn).unwrap();
    let txn = eng.begin().unwrap();
    update(txn, 3, "after the rollback", None);
    eng.commit(txn).unwrap();
    // A SET to the value the row already has, on a chain page and on the
    // tail; then rows on both.
    let txn = eng.begin().unwrap();
    update(txn, 199, &long, None);
    update(txn, 1_009, &long, None);
    for id in [150, 180, 1_001, 1_002] {
        update(txn, id, &format!("row {id}"), Some(id));
    }
    eng.commit(txn).unwrap();
    pump(&eng, &replica, &mut streamed);

    // What `open` redoes from the log with every update in it.
    eng.flush().unwrap();
    std::fs::copy(dir.join("wal.log"), copy.join("wal.log")).unwrap();
    let before_image = visible_row_ids(&eng);
    let logged = eng.wal().read_replication_batch(1, usize::MAX).records;
    assert!(
        logged
            .iter()
            .all(|r| !matches!(r, LogRecord::Delete { .. })),
        "an update logs no Delete"
    );
    let inserts = |records: &[LogRecord]| {
        records
            .iter()
            .filter(|r| matches!(r, LogRecord::Insert { .. }))
            .count()
    };
    assert_eq!(inserts(&logged), 210, "an update logs no Insert");
    let logged = updates(&logged);
    assert_eq!(logged.len(), 14);
    assert!(logged.iter().any(|(chain, _)| *chain), "on a chain page");
    assert!(logged.iter().any(|(chain, _)| !chain), "on the tail");
    assert_eq!(
        logged.iter().filter(|(_, middle)| *middle == 0).count(),
        2,
        "the SETs to the same value log no byte of the row"
    );
    assert!(logged_bodies_are_page_bytes(&eng));
    let recovered = StorageEngine::open(&copy, 16, DurabilityConfig::NO_SYNC).unwrap();
    assert_eq!(
        visible_row_ids(&recovered),
        before_image,
        "open, every update"
    );
    assert!(logged_bodies_are_page_bytes(&recovered));
    drop(recovered);

    // An update in flight across a checkpoint, which carries it as an
    // Insert and a Delete; then updates whose old versions live in the image.
    let across = eng.begin().unwrap();
    update(across, 0, "across the image", Some(5));
    update(across, 1_000, "across the image", None);
    pump(&eng, &replica, &mut streamed);
    eng.checkpoint().unwrap();
    let image = eng.wal().read_replication_batch(1, usize::MAX).records;
    assert!(updates(&image).is_empty(), "an image logs no Update");
    let ended = image
        .iter()
        .filter(|r| matches!(r, LogRecord::Delete { txn, .. } if *txn == across))
        .count();
    assert_eq!(
        ended, 2,
        "the running updates as an Insert and a Delete each"
    );
    update(across, 0, "across, again", Some(6));
    eng.commit(across).unwrap();
    let txn = eng.begin().unwrap();
    update(txn, 1, "from the image", None);
    update(txn, 150, "from the image", Some(7));
    update(txn, 1_001, "", Some(8));
    eng.commit(txn).unwrap();
    // A transaction the crash cuts off.
    let cut = eng.begin().unwrap();
    update(cut, 2, "cut off", Some(9));
    update(cut, 1_002, "cut off", None);
    pump(&eng, &replica, &mut streamed);

    let live = visible_row_ids(&eng);
    assert_ne!(live, before_image);
    assert_eq!(live["gamma"].len(), 210, "one visible version a row");
    assert!(logged_bodies_are_page_bytes(&eng));
    assert_eq!(streamed.resets(), 0, "streamed across the image");
    assert_eq!(visible_row_ids(&replica), live, "streamed replica");
    let imaged = replica_of(&eng);
    assert_eq!(visible_row_ids(&imaged), live, "replica from the image");
    drop(eng);
    let recovered = StorageEngine::open(&dir, 16, DurabilityConfig::NO_SYNC).unwrap();
    assert_eq!(visible_row_ids(&recovered), live, "open from the image");
    assert!(logged_bodies_are_page_bytes(&recovered));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&copy).ok();
}
