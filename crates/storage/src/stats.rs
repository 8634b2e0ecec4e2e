//! Engine-wide statistics.

use serde::{Deserialize, Serialize};

use crate::buffer::BufferStats;

/// A snapshot of the storage engine's counters, combined across subsystems.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineStats {
    /// Buffer pool hits.
    pub buffer_hits: u64,
    /// Buffer pool misses (physical page reads).
    pub buffer_misses: u64,
    /// Dirty pages written back.
    pub writebacks: u64,
    /// Pages evicted from the pool.
    pub evictions: u64,
    /// Tuple versions inserted.
    pub tuples_inserted: u64,
    /// Tuple versions deleted or superseded.
    pub tuples_deleted: u64,
    /// Tuple versions examined by scans: the live slots of the heap pages
    /// they read.
    pub tuples_scanned: u64,
    /// Heap pages scans left unread, decided from their summaries: chain
    /// pages whose label the reader cannot read, and pages whose value
    /// ranges the scan's filter cannot match.
    pub pages_skipped: u64,
    /// Columns of heap pages decoded into the pages' column views
    /// ([`crate::page`]): one per page for its slots' label ids, and one per
    /// page and `Int` column a full scan bounds. A resident page's view is
    /// decoded once and kept until a slot is added to or removed from the
    /// page, so a repeated scan decodes nothing.
    pub pages_decoded: u64,
    /// Slots full scans walked and their labels admitted, then rejected on
    /// the `Int` bounds their filters place on columns, tested on the
    /// page's column view before the slot is parsed and whether or not its
    /// version is visible.
    pub rows_rejected_by_bounds: u64,
    /// Full-table visible scans started (`scan_visible` calls).
    pub full_table_scans: u64,
    /// Index point lookups served.
    pub index_point_lookups: u64,
    /// Index range and prefix scans served.
    pub index_range_scans: u64,
    /// Row ids an index handed out whose heap slots lookups then read,
    /// visible or not ([`crate::engine::StorageEngine::visit_rows`]).
    pub index_rows_fetched: u64,
    /// Index entries lookups removed because their versions were dead to
    /// every snapshot ([`crate::mvcc::DeadVersions`]); vacuum's removals of
    /// the versions it reclaims are not counted here.
    pub index_entries_dropped: u64,
    /// Tuples whose label a scan decided one by one: those on shared heap
    /// pages and those reached through an index.
    pub label_checks: u64,
    /// Single-label heap pages whose label a scan decided once for all
    /// their tuples, before reading them. A page skipped on its value
    /// ranges takes no label decision.
    pub label_page_checks: u64,
    /// Transactions started on this engine (replicated transactions are
    /// the primary's and are not counted).
    pub txns_started: u64,
    /// Of the settled transactions, those that wrote nothing: they appended
    /// no log record and left no entry in the transaction table.
    pub txns_read_only: u64,
    /// Transactions currently in progress (replicated in-flight ones
    /// included). A snapshot costs O(this).
    pub txns_active: u64,
    /// Entries the transaction table holds: active transactions plus one
    /// commit stamp per settled transaction that committed writes. Read-only
    /// transactions never add to it.
    pub txn_table_entries: u64,
    /// Bytes appended to the write-ahead log.
    pub wal_bytes: u64,
    /// `fsync` calls issued by the write-ahead log. Under group commit this
    /// grows much more slowly than `txns_started`.
    pub wal_fsyncs: u64,
    /// Commits whose durability was provided by another committer's fsync
    /// (group-commit followers).
    pub commits_batched: u64,
    /// Log records replayed when this engine was opened from an existing
    /// directory ([`crate::engine::StorageEngine::open`]); zero for a fresh
    /// engine.
    pub recovery_replayed_records: u64,
    /// Checkpoints taken (log rewrites that compacted history into a
    /// snapshot image).
    pub checkpoints: u64,
    /// Vacuum passes run (manual or via the periodic
    /// [`crate::wal::DurabilityConfig::with_vacuum_every`] policy).
    pub vacuums: u64,
    /// Log records applied from a primary's replication stream
    /// ([`crate::engine::StorageEngine::apply_replicated`]); zero unless
    /// this engine is a replica.
    pub replica_records_applied: u64,
    /// Physical page reads performed by page stores.
    pub store_reads: u64,
    /// Physical page writes performed by page stores.
    pub store_writes: u64,
    /// Links in the tamper-evident audit chain held by this engine
    /// (appended live, recovered, or replicated — see [`crate::audit`]).
    pub audit_records: u64,
}

impl EngineStats {
    /// Incorporates buffer-pool counters.
    pub fn with_buffer(mut self, b: BufferStats) -> Self {
        self.buffer_hits = b.hits;
        self.buffer_misses = b.misses;
        self.writebacks = b.writebacks;
        self.evictions = b.evictions;
        self
    }

    /// Buffer hit ratio in `[0, 1]`; 1.0 when there has been no traffic.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.buffer_hits + self.buffer_misses;
        if total == 0 {
            1.0
        } else {
            self.buffer_hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_ratio_handles_zero_traffic() {
        assert_eq!(EngineStats::default().hit_ratio(), 1.0);
        let s = EngineStats {
            buffer_hits: 3,
            buffer_misses: 1,
            ..Default::default()
        };
        assert!((s.hit_ratio() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn with_buffer_copies_counters() {
        let s = EngineStats::default().with_buffer(BufferStats {
            hits: 5,
            misses: 2,
            writebacks: 1,
            evictions: 1,
        });
        assert_eq!(s.buffer_hits, 5);
        assert_eq!(s.buffer_misses, 2);
    }
}
