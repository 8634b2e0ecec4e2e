//! Continuous-apply machinery for log-shipping read replicas.
//!
//! A replica receives the primary's logical log as a resumable stream of
//! `(seq, record)` batches (produced by
//! [`Wal::read_replication_batch`](crate::wal::Wal::read_replication_batch))
//! and applies them incrementally to a local [`StorageEngine`] via
//! [`StorageEngine::apply_replicated`](crate::engine::StorageEngine::apply_replicated),
//! which redoes each record exactly as recovery does. Every version goes
//! back to the row id the primary logged, so the replica's heap is the
//! primary's slot for slot, walk order included, and no record needs state
//! left by an earlier one. What persists across batches is the
//! [`ReplicaApplier`]'s **applied-seq watermark**: the highest sequence
//! number applied so far, which the replica reports to clients
//! (bounded-staleness reads) and sends back to the primary to resume after a
//! reconnect.
//!
//! A **reset** (the primary compacted history past our watermark, or
//! restarted into a new log epoch) discards the engine's tables and rewinds
//! the watermark; the next batch then starts with the primary's checkpoint
//! image, whose redo rebuilds the full live state.

use crate::engine::StorageEngine;
use crate::error::StorageResult;
use crate::wal::LogRecord;

/// What [`ReplicaApplier::apply_batch`] observed while applying.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AppliedBatch {
    /// Records actually applied (records at or below the watermark are
    /// skipped, making re-delivery after a reconnect harmless).
    pub applied: usize,
    /// Whether any DDL (create table / create index) was applied — the
    /// signal for the layer above to refresh its relational catalog.
    pub saw_ddl: bool,
}

/// Incremental applier for one replication stream.
#[derive(Debug, Default)]
pub struct ReplicaApplier {
    applied_seq: u64,
    records_applied: u64,
    resets: u64,
}

impl ReplicaApplier {
    /// A fresh applier (nothing applied; first poll starts at seq 1).
    pub fn new() -> Self {
        Self::default()
    }

    /// The watermark: highest sequence number applied so far (0 = nothing).
    pub fn applied_seq(&self) -> u64 {
        self.applied_seq
    }

    /// Total records applied over the applier's lifetime (across resets).
    pub fn records_applied(&self) -> u64 {
        self.records_applied
    }

    /// How many times the stream was reset (re-bootstrapped).
    pub fn resets(&self) -> u64 {
        self.resets
    }

    /// Applies one batch whose first record carries `first_seq`. Records at
    /// or below the current watermark are skipped (idempotent re-delivery);
    /// a gap above the watermark is trusted — the primary intentionally
    /// skips its checkpoint image for a replica that already has the state
    /// the image describes.
    pub fn apply_batch(
        &mut self,
        engine: &StorageEngine,
        first_seq: u64,
        records: &[LogRecord],
    ) -> StorageResult<AppliedBatch> {
        let mut out = AppliedBatch::default();
        for (i, record) in records.iter().enumerate() {
            let seq = first_seq + i as u64;
            if seq <= self.applied_seq {
                continue;
            }
            engine.apply_replicated(record)?;
            out.saw_ddl |= matches!(
                record,
                LogRecord::CreateTable { .. } | LogRecord::CreateIndex { .. }
            );
            out.applied += 1;
            self.records_applied += 1;
            self.applied_seq = seq;
        }
        Ok(out)
    }

    /// Advances the watermark without applying anything. Used for an empty
    /// batch whose `first_seq` lies past the watermark: the primary skipped
    /// its checkpoint image (which re-describes state this replica already
    /// has), and the watermark must follow, or a *second* checkpoint would
    /// make the untouched watermark look compacted-away and force a
    /// needless full re-bootstrap.
    pub fn advance_to(&mut self, seq: u64) {
        self.applied_seq = self.applied_seq.max(seq);
    }

    /// Discards the replica's state for a stream reset: the engine's tables
    /// and transaction statuses are cleared and the watermark rewound to 0,
    /// so the next batch (the primary's checkpoint image) applies from
    /// scratch.
    pub fn reset(&mut self, engine: &StorageEngine) {
        engine.reset_replica_state();
        self.applied_seq = 0;
        self.resets += 1;
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;
    use crate::engine::{StorageEngine, StorageKind};
    use crate::error::StorageError;
    use crate::heap::{RowId, Verdict};
    use crate::schema::{ColumnDef, TableSchema};
    use crate::tuple::{encode, with_mvcc_header, TupleRef, MVCC_HEADER_LEN};
    use crate::value::{DataType, Datum};
    use crate::wal::{DurabilityConfig, Wal};

    fn primary_with_rows(dir: &std::path::Path, rows: i64) -> StorageEngine {
        let eng = StorageEngine::with_config(
            StorageKind::OnDisk {
                dir: dir.to_path_buf(),
                buffer_pages: 32,
            },
            DurabilityConfig::SYNC_EACH,
        )
        .unwrap();
        let t = eng
            .create_table(TableSchema::new(
                "t",
                vec![ColumnDef::new("id", DataType::Int)],
            ))
            .unwrap();
        eng.create_index(t, "t_pkey", &["id"]).unwrap();
        let txn = eng.begin().unwrap();
        for i in 0..rows {
            eng.insert(txn, t, vec![7], vec![Datum::Int(i)]).unwrap();
        }
        eng.commit(txn).unwrap();
        eng
    }

    fn visible_count(eng: &StorageEngine, name: &str) -> usize {
        let t = eng.table_by_name(name).unwrap();
        let snap = eng.snapshot(eng.begin().unwrap());
        let mut n = 0;
        eng.scan_visible(&snap, t.id(), |_, _| {
            n += 1;
            true
        })
        .unwrap();
        n
    }

    /// Pumps the replication stream from `primary` into `replica` until the
    /// replica is caught up, handling resets the way the server-side apply
    /// loop does.
    fn pump(primary: &StorageEngine, replica: &StorageEngine, applier: &mut ReplicaApplier) {
        loop {
            let batch = primary
                .wal()
                .read_replication_batch(applier.applied_seq() + 1, 64);
            if batch.reset {
                applier.reset(replica);
            }
            if batch.records.is_empty() && !batch.reset {
                // Mirror the server apply loop: an empty batch still moves
                // the stream position when the primary skipped its image.
                applier.advance_to(batch.first_seq.saturating_sub(1));
                break;
            }
            applier
                .apply_batch(replica, batch.first_seq, &batch.records)
                .unwrap();
            if applier.applied_seq() >= batch.end_seq {
                break;
            }
        }
    }

    #[test]
    fn repeated_checkpoints_do_not_reset_a_caught_up_replica() {
        // Regression: skipping the checkpoint image must advance the
        // watermark; otherwise a second checkpoint with no intervening
        // commits makes the stale watermark look compacted-away and forces
        // a full (and wrong) re-bootstrap.
        let dir = std::env::temp_dir().join(format!("ifdb-replica-2ckpt-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let primary = primary_with_rows(&dir, 3);
        let replica = StorageEngine::in_memory();
        replica
            .txns()
            .reserve_local_ids(crate::mvcc::REPLICA_LOCAL_TXN_BASE);
        let mut applier = ReplicaApplier::new();
        pump(&primary, &replica, &mut applier);
        primary.checkpoint().unwrap();
        pump(&primary, &replica, &mut applier);
        primary.checkpoint().unwrap();
        pump(&primary, &replica, &mut applier);
        assert_eq!(applier.resets(), 0, "no spurious re-bootstrap");
        assert_eq!(visible_count(&replica, "t"), 3);
        // The stream still works after the double checkpoint.
        let t = primary.table_by_name("t").unwrap();
        let txn = primary.begin().unwrap();
        primary
            .insert(txn, t.id(), vec![], vec![Datum::Int(9)])
            .unwrap();
        primary.commit(txn).unwrap();
        pump(&primary, &replica, &mut applier);
        assert_eq!(visible_count(&replica, "t"), 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The visible row at `key` of table `t`, as the replica and the
    /// primary both see it.
    fn visible_row_of(eng: &StorageEngine, key: i64) -> Option<RowId> {
        let t = eng.table_by_name("t").unwrap();
        let txn = eng.begin().unwrap();
        let mut found = None;
        eng.scan_visible(&eng.snapshot(txn), t.id(), |row, v| {
            if v.data[0] == Datum::Int(key) {
                found = Some(row);
            }
            true
        })
        .unwrap();
        eng.commit(txn).unwrap();
        found
    }

    #[test]
    fn deletes_and_aborts_redo_as_they_ran_on_the_primary() {
        let dir = std::env::temp_dir().join(format!("ifdb-replica-redo-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let primary = primary_with_rows(&dir, 4);
        let replica = StorageEngine::in_memory();
        replica
            .txns()
            .reserve_local_ids(crate::mvcc::REPLICA_LOCAL_TXN_BASE);
        let mut applier = ReplicaApplier::new();
        pump(&primary, &replica, &mut applier);
        let t = primary.table_by_name("t").unwrap();
        let victim = visible_row_of(&primary, 2).unwrap();
        assert_eq!(visible_row_of(&replica, 2), Some(victim));

        // An aborted delete leaves the row visible...
        let aborter = primary.begin().unwrap();
        primary.delete(aborter, t.id(), victim).unwrap();
        primary.abort(aborter).unwrap();
        pump(&primary, &replica, &mut applier);
        assert_eq!(visible_row_of(&replica, 2), Some(victim));

        // ...so it can be deleted again, and the committed delete hides it.
        let deleter = primary.begin().unwrap();
        primary.delete(deleter, t.id(), victim).unwrap();
        primary.commit(deleter).unwrap();
        pump(&primary, &replica, &mut applier);
        assert_eq!(visible_row_of(&replica, 2), None);
        assert_eq!(visible_count(&replica, "t"), 3);

        // An aborted insert takes its slot on the replica too, invisibly.
        let ghost = primary.begin().unwrap();
        let ghost_row = primary
            .insert(ghost, t.id(), vec![], vec![Datum::Int(777)])
            .unwrap();
        primary.abort(ghost).unwrap();
        primary.wal().sync().unwrap();
        pump(&primary, &replica, &mut applier);
        assert_eq!(visible_count(&replica, "t"), 3);
        let heap = replica.table_by_name("t").unwrap();
        let ghost = heap
            .heap()
            .read::<_, StorageError>(ghost_row, |t| t.data())
            .unwrap()
            .unwrap();
        assert_eq!(ghost, [Datum::Int(777)]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_streamed_abort_settles_a_prepared_gid_as_recovery_does() {
        // A Prepare whose record may not be durable is superseded by an
        // Abort (see `StorageEngine::prepare_commit`): the gid is decided,
        // as aborted, whether the records arrive by stream or by the log.
        let txn = crate::mvcc::TxnId(1);
        let records = [
            LogRecord::CreateTable {
                id: 1,
                schema: TableSchema::new("t", vec![ColumnDef::new("id", DataType::Int)]),
            },
            LogRecord::Begin { txn },
            LogRecord::Insert {
                txn,
                table: 1,
                row: RowId { page: 0, slot: 0 },
                chain: false,
                body: encode(txn, 0, &[Datum::Int(1)])[MVCC_HEADER_LEN..].to_vec(),
            },
            LogRecord::Prepare { txn, gid: 42 },
            LogRecord::Abort { txn },
        ];
        let streamed = StorageEngine::in_memory();
        streamed
            .txns()
            .reserve_local_ids(crate::mvcc::REPLICA_LOCAL_TXN_BASE);
        ReplicaApplier::new()
            .apply_batch(&streamed, 1, &records)
            .unwrap();
        let dir = std::env::temp_dir().join(format!("ifdb-replica-2pc-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let wal = Wal::create(&dir.join("wal.log"), DurabilityConfig::SYNC_EACH).unwrap();
        for r in &records {
            wal.append(r.clone()).unwrap();
        }
        drop(wal);
        let recovered = StorageEngine::open(&dir, 8, DurabilityConfig::SYNC_EACH).unwrap();
        for eng in [&streamed, &recovered] {
            assert_eq!(eng.in_doubt(), Vec::<u64>::new());
            assert_eq!(eng.outcome(42), Some(false));
            assert_eq!(eng.txns().active_count(), 0);
            assert_eq!(visible_count(eng, "t"), 0);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Every version `eng` shows a fresh snapshot of table `t`, in walk
    /// order, with its row id and whether its page is on a chain.
    fn visible_walk(eng: &StorageEngine) -> Vec<(RowId, bool, Vec<Datum>)> {
        let t = eng.table_by_name("t").unwrap();
        let txn = eng.begin().unwrap();
        let mut out = Vec::new();
        eng.visit_visible::<StorageError>(
            &eng.snapshot(txn),
            t.id(),
            &[],
            |_| Ok(Verdict::Read),
            |_, _| Ok(true),
            |row, page_label, tuple| {
                out.push((row, page_label.is_some(), tuple.data()?));
                Ok(true)
            },
        )
        .unwrap();
        eng.commit(txn).unwrap();
        out
    }

    /// Four writers on two labels, each inserting, updating and deleting
    /// its own rows, one transaction in seven aborted. Rows of even `i`
    /// are never touched, so every page keeps a visible row.
    fn concurrent_history(primary: &StorageEngine) {
        let t = primary
            .create_table(TableSchema::new(
                "t",
                vec![
                    ColumnDef::new("id", DataType::Int),
                    ColumnDef::new("payload", DataType::Text),
                ],
            ))
            .unwrap();
        primary.create_index(t, "t_pkey", &["id"]).unwrap();
        let payload = |key: i64, v: u8| Datum::Text(format!("{key:0>90}-{v}"));
        std::thread::scope(|scope| {
            for w in 0..4i64 {
                scope.spawn(move || {
                    let label = vec![10 + w as u64 % 2];
                    let mut touchable: Vec<(i64, RowId)> = Vec::new();
                    for i in 0..150i64 {
                        let txn = primary.begin().unwrap();
                        let key = w * 10_000 + i;
                        let values = vec![Datum::Int(key), payload(key, 0)];
                        let row = primary.insert(txn, t, label.clone(), values).unwrap();
                        let mut change = None;
                        if i % 4 == 2 {
                            if let Some(&(k, old)) = touchable.last() {
                                let values = vec![Datum::Int(k), payload(k, 1)];
                                let new = primary.update(txn, t, old, label.clone(), values);
                                change = Some((0, (k, new.unwrap())));
                            }
                        } else if i % 6 == 5 && !touchable.is_empty() {
                            primary.delete(txn, t, touchable[0].1).unwrap();
                            change = Some((1, touchable[0]));
                        }
                        if i % 7 == 3 {
                            primary.abort(txn).unwrap();
                            continue;
                        }
                        primary.commit(txn).unwrap();
                        match change {
                            Some((0, updated)) => *touchable.last_mut().unwrap() = updated,
                            Some(_) => drop(touchable.remove(0)),
                            None => {}
                        }
                        if i % 2 == 1 {
                            touchable.push((key, row));
                        }
                    }
                });
            }
        });
    }

    /// `records` regrouped writer by writer, the last writer's first: as
    /// far from heap order as a valid log gets (a writer touches only its
    /// own rows, so each writer's records keep their order and meaning).
    fn regrouped(records: &[LogRecord]) -> Vec<LogRecord> {
        let txn_of = |r: &LogRecord| match r {
            LogRecord::Begin { txn }
            | LogRecord::Commit { txn }
            | LogRecord::Abort { txn }
            | LogRecord::Insert { txn, .. }
            | LogRecord::Delete { txn, .. } => Some(*txn),
            _ => None,
        };
        let mut writer_of = HashMap::new();
        for r in records {
            if let LogRecord::Insert { txn, body, .. } = r {
                let key = TupleRef::parse(&with_mvcc_header(*txn, body))
                    .and_then(|t| t.field(0))
                    .unwrap();
                let Datum::Int(key) = key else {
                    panic!("{key:?}")
                };
                writer_of.insert(*txn, key / 10_000);
            }
        }
        let mut out: Vec<LogRecord> = records
            .iter()
            .filter(|r| txn_of(r).is_none())
            .cloned()
            .collect();
        for w in (0..4).rev() {
            out.extend(
                records
                    .iter()
                    .filter(|r| txn_of(r).is_some_and(|t| writer_of[&t] == w))
                    .cloned(),
            );
        }
        out
    }

    #[test]
    fn redo_puts_every_version_at_the_primarys_row_id_whatever_the_log_order() {
        let dir = std::env::temp_dir().join(format!("ifdb-replica-order-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let primary = StorageEngine::with_config(
            StorageKind::OnDisk {
                dir: dir.clone(),
                buffer_pages: 64,
            },
            DurabilityConfig::NO_SYNC,
        )
        .unwrap();
        concurrent_history(&primary);
        let live = visible_walk(&primary);
        assert!(
            live.iter().any(|(_, chain, _)| *chain),
            "labels opened chains"
        );
        let replica = || {
            let eng = StorageEngine::in_memory();
            eng.txns()
                .reserve_local_ids(crate::mvcc::REPLICA_LOCAL_TXN_BASE);
            eng
        };

        // A replica fed from seq 1, and one fed the same records writer by
        // writer.
        let streamed = replica();
        pump(&primary, &streamed, &mut ReplicaApplier::new());
        assert_eq!(visible_walk(&streamed), live, "streamed from seq 1");
        let records = primary.wal().read_replication_batch(1, usize::MAX).records;
        let reordered = replica();
        ReplicaApplier::new()
            .apply_batch(&reordered, 1, &regrouped(&records))
            .unwrap();
        assert_eq!(visible_walk(&reordered), live, "log order ≠ heap order");

        // Recovery redoes aborted inserts too, and checkpoints nothing.
        drop(primary);
        let recovered = StorageEngine::open(&dir, 64, DurabilityConfig::NO_SYNC).unwrap();
        assert_eq!(visible_walk(&recovered), live, "recovered with open");
        assert_eq!(recovered.stats().checkpoints, 0);

        // A replica bootstrapped from a checkpoint image.
        recovered.checkpoint().unwrap();
        let imaged = replica();
        let mut applier = ReplicaApplier::new();
        pump(&recovered, &imaged, &mut applier);
        assert_eq!(applier.resets(), 1, "bootstrapped from the image");
        assert_eq!(visible_walk(&imaged), live, "from a checkpoint image");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stream_apply_mirrors_primary_and_resumes() {
        let dir = std::env::temp_dir().join(format!("ifdb-replica-apply-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let primary = primary_with_rows(&dir, 10);
        let replica = StorageEngine::in_memory();
        replica
            .txns()
            .reserve_local_ids(crate::mvcc::REPLICA_LOCAL_TXN_BASE);
        let mut applier = ReplicaApplier::new();
        pump(&primary, &replica, &mut applier);
        assert_eq!(visible_count(&replica, "t"), 10);
        assert_eq!(
            replica
                .index_names(replica.table_by_name("t").unwrap().id())
                .unwrap()
                .len(),
            1
        );

        // More writes (including a delete) resume from the watermark.
        let t = primary.table_by_name("t").unwrap();
        let txn = primary.begin().unwrap();
        let snap = primary.snapshot(txn);
        let mut victim = None;
        primary
            .scan_visible(&snap, t.id(), |row, v| {
                if v.data[0] == Datum::Int(3) {
                    victim = Some(row);
                }
                true
            })
            .unwrap();
        primary.delete(txn, t.id(), victim.unwrap()).unwrap();
        primary
            .insert(txn, t.id(), vec![7], vec![Datum::Int(100)])
            .unwrap();
        primary.commit(txn).unwrap();
        let before = applier.records_applied();
        pump(&primary, &replica, &mut applier);
        assert!(applier.records_applied() > before);
        assert_eq!(visible_count(&replica, "t"), 10, "one delete, one insert");
        assert_eq!(applier.resets(), 0, "no reset on a contiguous stream");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn uncommitted_stream_records_stay_invisible() {
        let dir =
            std::env::temp_dir().join(format!("ifdb-replica-uncommitted-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let primary = primary_with_rows(&dir, 2);
        let replica = StorageEngine::in_memory();
        replica
            .txns()
            .reserve_local_ids(crate::mvcc::REPLICA_LOCAL_TXN_BASE);
        let mut applier = ReplicaApplier::new();
        pump(&primary, &replica, &mut applier);
        // An in-flight transaction on the primary: its Begin+Insert stream
        // over (durable via a later committer's fsync) but must not be
        // visible on the replica until its Commit arrives.
        let inflight = primary.begin().unwrap();
        let t = primary.table_by_name("t").unwrap();
        primary
            .insert(inflight, t.id(), vec![], vec![Datum::Int(999)])
            .unwrap();
        // A different committed transaction makes the tail durable.
        let other = primary.begin().unwrap();
        primary
            .insert(other, t.id(), vec![], vec![Datum::Int(50)])
            .unwrap();
        primary.commit(other).unwrap();
        pump(&primary, &replica, &mut applier);
        assert_eq!(visible_count(&replica, "t"), 3, "in-flight insert hidden");
        primary.commit(inflight).unwrap();
        pump(&primary, &replica, &mut applier);
        assert_eq!(visible_count(&replica, "t"), 4, "commit makes it visible");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn promotion_aborts_a_streamed_transaction_with_no_outcome() {
        // Regression: a primary killed mid-transaction ships a `Begin` (and
        // effects) whose `Commit` never arrives. That transaction can never
        // resolve on the replica's timeline; it aborts at promotion, and
        // its effects must stay invisible after the switch (invariant: no
        // un-acked effect resurrects).
        let dir = std::env::temp_dir().join(format!("ifdb-replica-orphan-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let primary = primary_with_rows(&dir, 2);
        let replica = StorageEngine::in_memory();
        replica
            .txns()
            .reserve_local_ids(crate::mvcc::REPLICA_LOCAL_TXN_BASE);
        let mut applier = ReplicaApplier::new();
        pump(&primary, &replica, &mut applier);
        // An in-flight transaction streams over (made durable by a later
        // committer's fsync), then the primary "dies" before its commit.
        let inflight = primary.begin().unwrap();
        let t = primary.table_by_name("t").unwrap();
        primary
            .insert(inflight, t.id(), vec![], vec![Datum::Int(999)])
            .unwrap();
        let other = primary.begin().unwrap();
        primary
            .insert(other, t.id(), vec![], vec![Datum::Int(50)])
            .unwrap();
        primary.commit(other).unwrap();
        pump(&primary, &replica, &mut applier);
        assert_eq!(replica.txns().active_count(), 1, "orphan is in progress");
        assert_eq!(replica.wal().len(), 0, "a replica logs nothing of its own");
        let count = replica.promote_to_primary(2).unwrap();
        assert!(count > 0, "image re-anchors the live rows");
        assert_eq!(replica.wal().len(), count, "the log is the image");
        assert_eq!(replica.txns().active_count(), 0, "orphan aborted");
        assert_eq!(visible_count(&replica, "t"), 3, "orphan stays invisible");
        let image = replica.wal().read_replication_batch(1, usize::MAX).records;
        assert!(
            !image.contains(&LogRecord::Begin { txn: inflight }),
            "the orphan is not among the image's running transactions"
        );
        // The promoted node serves writes on the new timeline.
        let txn = replica.begin().unwrap();
        let t = replica.table_by_name("t").unwrap();
        replica
            .insert(txn, t.id(), vec![], vec![Datum::Int(4)])
            .unwrap();
        replica.commit(txn).unwrap();
        assert_eq!(visible_count(&replica, "t"), 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_promoted_prepared_update_shows_one_version_live_and_after_open() {
        // A prepared transaction that inserted a row and then updated it
        // rides into the promotion image as both versions. A logged insert
        // carries no `xmax`, so the superseded one takes its own Delete.
        let base =
            std::env::temp_dir().join(format!("ifdb-replica-2pc-upd-{}", std::process::id()));
        std::fs::remove_dir_all(&base).ok();
        let primary = primary_with_rows(&base.join("primary"), 2);
        let replica_dir = base.join("replica");
        let replica = StorageEngine::with_config(
            StorageKind::OnDisk {
                dir: replica_dir.clone(),
                buffer_pages: 32,
            },
            DurabilityConfig::SYNC_EACH,
        )
        .unwrap();
        replica
            .txns()
            .reserve_local_ids(crate::mvcc::REPLICA_LOCAL_TXN_BASE);
        let t = primary.table_by_name("t").unwrap().id();
        let txn = primary.begin().unwrap();
        let row = primary
            .insert(txn, t, vec![7], vec![Datum::Int(10)])
            .unwrap();
        primary
            .update(txn, t, row, vec![7], vec![Datum::Int(11)])
            .unwrap();
        primary.prepare_commit(txn, 9).unwrap();
        let mut applier = ReplicaApplier::new();
        pump(&primary, &replica, &mut applier);
        replica.promote_to_primary(2).unwrap();
        assert!(replica.decide(9, true).unwrap());
        let ids = |eng: &StorageEngine| {
            let t = eng.table_by_name("t").unwrap();
            let snap = eng.snapshot(eng.begin().unwrap());
            let mut ids = Vec::new();
            eng.scan_visible(&snap, t.id(), |_, v| {
                ids.push(v.data[0].as_int().unwrap());
                true
            })
            .unwrap();
            ids.sort();
            ids
        };
        assert_eq!(ids(&replica), [0, 1, 11]);
        drop(replica);
        let reopened = StorageEngine::open(&replica_dir, 32, DurabilityConfig::SYNC_EACH).unwrap();
        assert_eq!(ids(&reopened), [0, 1, 11]);
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn promotion_does_not_wait_for_an_open_local_reader() {
        let dir = std::env::temp_dir().join(format!("ifdb-replica-reader-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let primary = primary_with_rows(&dir, 3);
        let replica = StorageEngine::in_memory();
        replica
            .txns()
            .reserve_local_ids(crate::mvcc::REPLICA_LOCAL_TXN_BASE);
        let mut applier = ReplicaApplier::new();
        pump(&primary, &replica, &mut applier);
        let reader = replica.begin().unwrap();
        let snap = replica.snapshot(reader);
        replica.promote_to_primary(2).unwrap();
        assert_eq!(replica.stats().checkpoints, 1);
        // The promoted node takes writes from new transactions at once...
        let t = replica.table_by_name("t").unwrap().id();
        let writer = replica.begin().unwrap();
        replica
            .insert(writer, t, vec![], vec![Datum::Int(10)])
            .unwrap();
        replica.commit(writer).unwrap();
        assert_eq!(visible_count(&replica, "t"), 4);
        // ...while the reader keeps its view. It may not write: its id
        // lies above every snapshot horizon of the new timeline.
        let mut seen = 0;
        replica
            .scan_visible(&snap, t, |_, _| {
                seen += 1;
                true
            })
            .unwrap();
        assert_eq!(seen, 3);
        assert_eq!(
            replica.insert(reader, t, vec![], vec![Datum::Int(11)]),
            Err(StorageError::InvalidTransaction(reader.0))
        );
        replica.commit(reader).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_while_replica_lags_forces_reset() {
        let dir = std::env::temp_dir().join(format!("ifdb-replica-reset-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let primary = primary_with_rows(&dir, 5);
        let replica = StorageEngine::in_memory();
        replica
            .txns()
            .reserve_local_ids(crate::mvcc::REPLICA_LOCAL_TXN_BASE);
        let mut applier = ReplicaApplier::new();
        // Apply only the first 3 records, then let the primary write more
        // and checkpoint, compacting away the records the replica missed.
        let batch = primary.wal().read_replication_batch(1, 3);
        applier
            .apply_batch(&replica, batch.first_seq, &batch.records)
            .unwrap();
        let t = primary.table_by_name("t").unwrap();
        let txn = primary.begin().unwrap();
        primary
            .insert(txn, t.id(), vec![], vec![Datum::Int(77)])
            .unwrap();
        primary.commit(txn).unwrap();
        primary.checkpoint().unwrap();
        pump(&primary, &replica, &mut applier);
        assert_eq!(applier.resets(), 1, "lagging replica re-bootstraps");
        assert_eq!(visible_count(&replica, "t"), 6);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_reset_drops_the_pages_of_the_state_it_discards() {
        let dir = std::env::temp_dir().join(format!("ifdb-replica-rereset-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let primary = primary_with_rows(&dir, 5);
        primary.checkpoint().unwrap();
        let replica = StorageEngine::in_memory();
        replica
            .txns()
            .reserve_local_ids(crate::mvcc::REPLICA_LOCAL_TXN_BASE);
        let mut applier = ReplicaApplier::new();
        pump(&primary, &replica, &mut applier);
        assert_eq!(visible_count(&replica, "t"), 5);
        assert_eq!(applier.resets(), 1, "bootstrapped from the image");
        // The replica misses a commit that a second checkpoint compacts
        // away, so it re-bootstraps from an image of the same table.
        let t = primary.table_by_name("t").unwrap();
        let txn = primary.begin().unwrap();
        primary
            .insert(txn, t.id(), vec![], vec![Datum::Int(77)])
            .unwrap();
        primary.commit(txn).unwrap();
        primary.checkpoint().unwrap();
        pump(&primary, &replica, &mut applier);
        assert_eq!(applier.resets(), 2);
        assert_eq!(visible_count(&replica, "t"), 6);
        assert_eq!(replica.labels().to_vec(), primary.labels().to_vec());
        // Following another primary, whose one label is not the first's, the
        // replica's dictionary holds what that primary's log defines and
        // nothing the discarded state did.
        let other_dir = dir.with_extension("other");
        std::fs::remove_dir_all(&other_dir).ok();
        let other = primary_with_rows(&other_dir, 0);
        let t = other.table_by_name("t").unwrap();
        let txn = other.begin().unwrap();
        other
            .insert(txn, t.id(), vec![9, 10], vec![Datum::Int(1)])
            .unwrap();
        other.commit(txn).unwrap();
        let discarded = replica.labels();
        pump(&other, &replica, &mut applier);
        assert_eq!(applier.resets(), 3);
        assert_eq!(replica.labels().to_vec(), vec![vec![], vec![9, 10]]);
        // A statement that took the discarded dictionary, to read the
        // discarded heap, still resolves that heap's ids as written.
        assert_eq!(discarded.to_vec(), primary.labels().to_vec());
        assert_eq!(visible_count(&replica, "t"), 1);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&other_dir).ok();
    }

    #[test]
    fn a_conflicting_label_definition_or_an_undefined_label_is_corruption() {
        let txn = crate::mvcc::TxnId(1);
        let insert = |label| LogRecord::Insert {
            txn,
            table: 1,
            row: RowId { page: 0, slot: 0 },
            chain: false,
            body: encode(txn, label, &[Datum::Int(1)])[MVCC_HEADER_LEN..].to_vec(),
        };
        let prefix = [
            LogRecord::CreateTable {
                id: 1,
                schema: TableSchema::new("t", vec![ColumnDef::new("id", DataType::Int)]),
            },
            LogRecord::Label {
                id: 1,
                tags: vec![4],
            },
            LogRecord::Begin { txn },
        ];
        let conflicting = LogRecord::Label {
            id: 1,
            tags: vec![5],
        };
        let cases = [
            (vec![insert(2)], "an insert names label 2, never defined"),
            (vec![conflicting], "label 1 redefined with other tags"),
            (
                vec![LogRecord::Label {
                    id: 3,
                    tags: vec![6],
                }],
                "label 3 defined before label 2",
            ),
        ];
        for (tail, what) in cases {
            let records: Vec<LogRecord> = prefix.iter().cloned().chain(tail).collect();
            // Streamed to a replica...
            let streamed =
                ReplicaApplier::new().apply_batch(&StorageEngine::in_memory(), 1, &records);
            assert!(
                matches!(streamed, Err(StorageError::Corruption { .. })),
                "{what}: {streamed:?}"
            );
            // ...and redone by recovery.
            let dir =
                std::env::temp_dir().join(format!("ifdb-replica-labels-{}", std::process::id()));
            std::fs::remove_dir_all(&dir).ok();
            std::fs::create_dir_all(&dir).unwrap();
            let wal = Wal::create(&dir.join("wal.log"), DurabilityConfig::NO_SYNC).unwrap();
            for r in &records {
                wal.append(r.clone()).unwrap();
            }
            drop(wal);
            let recovered = StorageEngine::open(&dir, 8, DurabilityConfig::NO_SYNC);
            assert!(
                matches!(recovered, Err(StorageError::Corruption { .. })),
                "{what}: {:?}",
                recovered.err()
            );
            std::fs::remove_dir_all(&dir).ok();
        }
        // The same definition twice, and an insert naming it, redo cleanly.
        let records: Vec<LogRecord> = prefix
            .iter()
            .cloned()
            .chain([prefix[1].clone(), insert(1), LogRecord::Commit { txn }])
            .collect();
        let replica = StorageEngine::in_memory();
        ReplicaApplier::new()
            .apply_batch(&replica, 1, &records)
            .unwrap();
        assert_eq!(replica.labels().to_vec(), vec![vec![], vec![4]]);
        assert_eq!(visible_count(&replica, "t"), 1);
    }

    #[test]
    fn caught_up_replica_skips_checkpoint_image() {
        let dir = std::env::temp_dir().join(format!("ifdb-replica-skip-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let primary = primary_with_rows(&dir, 4);
        let replica = StorageEngine::in_memory();
        replica
            .txns()
            .reserve_local_ids(crate::mvcc::REPLICA_LOCAL_TXN_BASE);
        let mut applier = ReplicaApplier::new();
        pump(&primary, &replica, &mut applier);
        let applied_before = applier.records_applied();
        primary.checkpoint().unwrap();
        pump(&primary, &replica, &mut applier);
        assert_eq!(applier.resets(), 0, "caught-up replica never resets");
        assert_eq!(
            applier.records_applied(),
            applied_before,
            "the image is skipped entirely"
        );
        assert_eq!(visible_count(&replica, "t"), 4);
        // Post-checkpoint writes still stream through.
        let t = primary.table_by_name("t").unwrap();
        let txn = primary.begin().unwrap();
        primary
            .insert(txn, t.id(), vec![], vec![Datum::Int(5)])
            .unwrap();
        primary.commit(txn).unwrap();
        pump(&primary, &replica, &mut applier);
        assert_eq!(visible_count(&replica, "t"), 5);
        std::fs::remove_dir_all(&dir).ok();
    }
}
