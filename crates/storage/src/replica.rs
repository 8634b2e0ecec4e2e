//! Continuous-apply machinery for log-shipping read replicas.
//!
//! A replica receives the primary's logical log as a resumable stream of
//! `(seq, record)` batches (produced by
//! [`Wal::read_replication_batch`](crate::wal::Wal::read_replication_batch))
//! and applies them incrementally to a local [`StorageEngine`] via
//! [`StorageEngine::apply_replicated`](crate::engine::StorageEngine::apply_replicated).
//! The [`ReplicaApplier`] owns the two pieces of state that must persist
//! across batches:
//!
//! * the **row-id map** — the primary logs its own heap slots, the replica
//!   allocates fresh ones, and streamed `Delete` records resolve through the
//!   map (the same remapping that batch recovery replay performs);
//! * the **applied-seq watermark** — the highest sequence number applied so
//!   far, which the replica reports to clients (bounded-staleness reads) and
//!   sends back to the primary to resume after a reconnect.
//!
//! A **reset** (the primary compacted history past our watermark, or
//! restarted into a new log epoch) discards the engine's tables and the
//! applier's state; the next batch then starts with the primary's
//! checkpoint image, whose replay rebuilds the full live state.

use std::collections::HashMap;

use crate::engine::StorageEngine;
use crate::error::StorageResult;
use crate::heap::RowId;
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

/// Cross-record state of one replication stream, threaded through
/// [`StorageEngine::apply_replicated`]:
///
/// * `row_map` — the primary's logged row ids to locally allocated ones.
///   Entries are pruned when the transaction that deleted the row
///   *commits*: from then on nothing can reference the row again (a
///   further delete would have hit a write conflict on the primary), so
///   the map is bounded by live rows plus in-flight churn rather than
///   growing with every insert ever streamed.
/// * `deletes_in_flight` — rows deleted by transactions whose commit has
///   not streamed yet. On `Commit` their map entries are dropped; on
///   `Abort` they are kept (an aborted delete's row can legitimately be
///   deleted again by a later transaction).
/// * `inserts_in_flight` — rows inserted by transactions whose outcome has
///   not streamed yet. On `Abort` their map entries are dropped (an
///   aborted insert's row is invisible forever and nothing can reference
///   it again); on `Commit` they are kept until a committed delete seals
///   them.
#[derive(Debug, Default)]
pub struct ReplicaApplyState {
    pub(crate) row_map: HashMap<(u32, RowId), RowId>,
    pub(crate) deletes_in_flight: HashMap<crate::mvcc::TxnId, Vec<(u32, RowId)>>,
    pub(crate) inserts_in_flight: HashMap<crate::mvcc::TxnId, Vec<(u32, RowId)>>,
}

impl ReplicaApplyState {
    fn clear(&mut self) {
        self.row_map.clear();
        self.deletes_in_flight.clear();
        self.inserts_in_flight.clear();
    }
}

/// Incremental applier for one replication stream.
#[derive(Debug, Default)]
pub struct ReplicaApplier {
    state: ReplicaApplyState,
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
            engine.apply_replicated(record, &mut self.state)?;
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
    /// and transaction statuses are cleared, the row map emptied, and the
    /// watermark rewound to 0 so the next batch (the primary's checkpoint
    /// image) applies from scratch.
    pub fn reset(&mut self, engine: &StorageEngine) {
        engine.reset_replica_state();
        self.state.clear();
        self.applied_seq = 0;
        self.resets += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{StorageEngine, StorageKind};
    use crate::schema::{ColumnDef, TableSchema};
    use crate::value::{DataType, Datum};
    use crate::wal::DurabilityConfig;

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

    #[test]
    fn delete_commit_prunes_the_row_map() {
        // Regression: the row map must not grow with every insert ever
        // streamed — committed deletes prune their entries, aborted
        // deleters keep them (the row can be deleted again).
        let dir = std::env::temp_dir().join(format!("ifdb-replica-prune-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let primary = primary_with_rows(&dir, 4);
        let replica = StorageEngine::in_memory();
        replica
            .txns()
            .reserve_local_ids(crate::mvcc::REPLICA_LOCAL_TXN_BASE);
        let mut applier = ReplicaApplier::new();
        pump(&primary, &replica, &mut applier);
        assert_eq!(applier.state.row_map.len(), 4);

        let t = primary.table_by_name("t").unwrap();
        // An aborted delete keeps the mapping...
        let aborter = primary.begin().unwrap();
        let snap = primary.snapshot(aborter);
        let mut victim = None;
        primary
            .scan_visible(&snap, t.id(), |row, v| {
                if v.data[0] == Datum::Int(2) {
                    victim = Some(row);
                }
                true
            })
            .unwrap();
        primary.delete(aborter, t.id(), victim.unwrap()).unwrap();
        primary.abort(aborter).unwrap();
        pump(&primary, &replica, &mut applier);
        assert_eq!(applier.state.row_map.len(), 4, "aborted delete keeps entry");
        assert!(applier.state.deletes_in_flight.is_empty());

        // ...so the row can be deleted again, and the commit prunes it.
        let deleter = primary.begin().unwrap();
        primary.delete(deleter, t.id(), victim.unwrap()).unwrap();
        primary.commit(deleter).unwrap();
        pump(&primary, &replica, &mut applier);
        assert_eq!(applier.state.row_map.len(), 3, "committed delete prunes");
        assert!(applier.state.deletes_in_flight.is_empty());
        assert_eq!(visible_count(&replica, "t"), 3);

        // An aborted insert's mapping is dropped too: the row is invisible
        // forever and nothing can reference it again.
        let ghost = primary.begin().unwrap();
        primary
            .insert(ghost, t.id(), vec![], vec![Datum::Int(777)])
            .unwrap();
        primary.abort(ghost).unwrap();
        pump(&primary, &replica, &mut applier);
        assert_eq!(applier.state.row_map.len(), 3, "aborted insert pruned");
        assert!(applier.state.inserts_in_flight.is_empty());
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
        // resolve on the replica's timeline; it must not hold promotion
        // "busy" forever, and its effects must stay invisible after the
        // switch (invariant: no un-acked effect resurrects).
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
        let count = replica.promote_to_primary(2).expect("promotion quiesces");
        assert!(count > 0, "image re-anchors the live rows");
        assert_eq!(replica.txns().active_count(), 0, "orphan aborted");
        assert_eq!(visible_count(&replica, "t"), 3, "orphan stays invisible");
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
        std::fs::remove_dir_all(&dir).ok();
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
