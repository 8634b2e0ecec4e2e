//! Write-ahead log: logical records, crash recovery, group commit.
//!
//! Every mutation — DDL included — is appended to the log before it is
//! considered done, so a restart can rebuild the engine by replaying the log
//! from the top ([`crate::engine::StorageEngine::open`]). The log is
//! deliberately *logical* (create-table / insert / delete records, not page
//! images) because the paper's evaluation depends on the cost of logging
//! label-bearing tuples — bigger tuples mean more log bytes and slower
//! commits (Section 8.3) — rather than on sophisticated physical recovery.
//!
//! Three durability levels are supported, selected by [`DurabilityConfig`]:
//!
//! * **no sync** — records are buffered and written by the OS at its leisure;
//!   a crash may lose recent transactions (the seed behaviour).
//! * **sync per commit** — every commit flushes and fsyncs the log before
//!   returning. Durable, but each committer pays a full device flush.
//! * **group commit** — committers enqueue; one of them becomes the *leader*,
//!   performs a single flush+fsync covering every record appended so far, and
//!   wakes the others. N concurrent committers share one fsync, which is
//!   where the ≥2× commit-throughput win of `bench_pr3` comes from.
//!
//! # Replication stream
//!
//! Every record carries an implicit, monotonically increasing **sequence
//! number** that survives checkpoint rewrites: the first record ever
//! appended is seq 1, and a checkpoint image's records continue the
//! numbering where the replaced history left off. [`Wal::read_replication_batch`]
//! serves the log as a resumable stream for log-shipping replicas:
//!
//! * a replica that has applied through seq `S` polls with `from_seq = S+1`
//!   and receives the records it is missing;
//! * if the requested records were compacted away by a checkpoint, the
//!   reply demands a **reset**: the replica discards its state and
//!   re-bootstraps from the checkpoint image at the head of the log (the
//!   "checkpoint-anchored snapshot");
//! * a replica that was exactly caught up when the primary checkpointed
//!   skips the image silently — the image describes state it already has;
//! * on engines with `sync_on_commit`, records past the last fsync are
//!   withheld, so a replica can never apply a commit the primary could
//!   still lose to a crash;
//! * a poll that finds nothing to ship parks in [`Wal::wait_shippable`],
//!   which wakes when that horizon ([`Wal::shippable_seq`]) moves.
//!
//! [`Wal::epoch`] identifies one incarnation of the log; a primary restart
//! starts a new epoch (sequence numbers restart), which tells replicas to
//! re-bootstrap rather than trust stale watermarks.
//!
//! # Example
//!
//! ```
//! use ifdb_storage::wal::{LogRecord, Wal};
//! use ifdb_storage::{RowId, TxnId};
//!
//! let dir = std::env::temp_dir().join(format!("wal-doc-{}", std::process::id()));
//! std::fs::create_dir_all(&dir).unwrap();
//! let path = dir.join("wal.log");
//!
//! // Write a tiny committed transaction and flush it out.
//! let wal = Wal::file_backed(&path, true).unwrap();
//! wal.append(LogRecord::Begin { txn: TxnId(1) }).unwrap();
//! wal.append(LogRecord::Insert {
//!     txn: TxnId(1),
//!     table: 7,
//!     row: RowId { page: 0, slot: 0 },
//!     bytes: vec![1, 2, 3],
//! })
//! .unwrap();
//! wal.append(LogRecord::Commit { txn: TxnId(1) }).unwrap();
//! drop(wal);
//!
//! // A later process reads the log back for replay.
//! let replayed = Wal::replay_file(&path).unwrap();
//! assert_eq!(replayed.len(), 3);
//! assert!(matches!(replayed[2], LogRecord::Commit { txn: TxnId(1) }));
//! std::fs::remove_dir_all(&dir).ok();
//! ```

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex as StdMutex};
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::error::{StorageError, StorageResult};
use crate::heap::RowId;
use crate::mvcc::TxnId;
use crate::schema::{ColumnDef, TableSchema};
use crate::value::DataType;

/// How commits are made durable. See the [module docs](self) for the three
/// levels; `checkpoint_every_commits` is the periodic-checkpoint policy hook
/// consumed by [`crate::engine::StorageEngine::commit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurabilityConfig {
    /// Whether a commit must reach the device before returning.
    pub sync_on_commit: bool,
    /// Whether concurrent committers share fsyncs through the group-commit
    /// leader/follower protocol. Only meaningful with `sync_on_commit`.
    pub group_commit: bool,
    /// If set, the engine checkpoints automatically after this many commits.
    pub checkpoint_every_commits: Option<u64>,
    /// If set, the engine vacuums automatically after this many commits
    /// (reclaiming tuple versions no snapshot can see), so long-running
    /// servers do not accumulate dead versions until an operator intervenes.
    pub vacuum_every_commits: Option<u64>,
    /// Extra latency added to every commit-path fsync, emulating a slower
    /// stable medium. The log holds the sink lock for the extra time, exactly
    /// as it would be held by a device whose stable write takes that long, so
    /// serialization and group-commit batching behave as on real hardware.
    /// Benchmarks use this on hosts whose virtualized disks acknowledge
    /// `fdatasync` from a volatile cache in ~0.1 ms — faster than any durable
    /// medium — which would otherwise hide the durability-latency effects
    /// under measurement. `Duration::ZERO` (the default) adds nothing.
    pub sync_latency: Duration,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        Self::NO_SYNC
    }
}

impl DurabilityConfig {
    /// Buffered writes only; a crash may lose recent transactions.
    pub const NO_SYNC: DurabilityConfig = DurabilityConfig {
        sync_on_commit: false,
        group_commit: false,
        checkpoint_every_commits: None,
        vacuum_every_commits: None,
        sync_latency: Duration::ZERO,
    };

    /// Every commit pays its own flush+fsync.
    pub const SYNC_EACH: DurabilityConfig = DurabilityConfig {
        sync_on_commit: true,
        group_commit: false,
        checkpoint_every_commits: None,
        vacuum_every_commits: None,
        sync_latency: Duration::ZERO,
    };

    /// Commits are durable and concurrent committers share fsyncs.
    pub const GROUP_COMMIT: DurabilityConfig = DurabilityConfig {
        sync_on_commit: true,
        group_commit: true,
        checkpoint_every_commits: None,
        vacuum_every_commits: None,
        sync_latency: Duration::ZERO,
    };

    /// Adds a periodic-checkpoint policy: the engine checkpoints after every
    /// `commits` commits (skipped when transactions are still active).
    pub fn with_checkpoint_every(mut self, commits: u64) -> Self {
        self.checkpoint_every_commits = Some(commits);
        self
    }

    /// Adds a periodic-vacuum policy: the engine vacuums after every
    /// `commits` commits, from the same settle path that serves deferred
    /// checkpoints, so dead versions (aborted inserts, superseded updates)
    /// are reclaimed without an operator calling
    /// [`crate::engine::StorageEngine::vacuum`] manually.
    pub fn with_vacuum_every(mut self, commits: u64) -> Self {
        self.vacuum_every_commits = Some(commits);
        self
    }

    /// Emulates a stable medium whose durable write takes `latency` on top
    /// of the real fsync (see [`DurabilityConfig::sync_latency`]).
    pub const fn with_sync_latency(mut self, latency: Duration) -> Self {
        self.sync_latency = latency;
        self
    }
}

/// A logical log record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LogRecord {
    /// A transaction is about to write: appended lazily, directly ahead of
    /// its first `Insert`/`Delete`/`Prepare`. A transaction that never
    /// writes has no records at all.
    Begin {
        /// The transaction.
        txn: TxnId,
    },
    /// A transaction committed.
    Commit {
        /// The transaction.
        txn: TxnId,
    },
    /// A transaction aborted.
    Abort {
        /// The transaction.
        txn: TxnId,
    },
    /// A tuple version was inserted.
    Insert {
        /// The writing transaction.
        txn: TxnId,
        /// The table.
        table: u32,
        /// Where the version was placed.
        row: RowId,
        /// The encoded tuple version.
        bytes: Vec<u8>,
    },
    /// A tuple version's `xmax` was set (delete or supersede).
    Delete {
        /// The writing transaction.
        txn: TxnId,
        /// The table.
        table: u32,
        /// The affected version.
        row: RowId,
    },
    /// A checkpoint marker: everything before it is the checkpoint image,
    /// written by [`Wal::rewrite_with`].
    Checkpoint,
    /// A table was created. Logged so schema survives restart.
    CreateTable {
        /// The table id assigned by the engine.
        id: u32,
        /// The full schema.
        schema: TableSchema,
    },
    /// An index was created on a table.
    CreateIndex {
        /// The owning table.
        table: u32,
        /// Index name (unique per table).
        name: String,
        /// Indexed column offsets, in key order.
        columns: Vec<u16>,
    },
    /// Phase one of two-phase commit: the transaction's effects are complete
    /// and durable, and this participant has voted yes. A prepared
    /// transaction survives a crash in-doubt and may only be resolved by a
    /// [`LogRecord::Decide`] carrying the coordinator's verdict.
    Prepare {
        /// The local transaction.
        txn: TxnId,
        /// The coordinator-assigned global transaction id.
        gid: u64,
    },
    /// Phase two of two-phase commit: the coordinator's verdict for a
    /// previously prepared transaction.
    Decide {
        /// The local transaction.
        txn: TxnId,
        /// True to commit, false to abort (presumed abort: this direction
        /// need not be durable before acting on it).
        commit: bool,
    },
    /// A promotion marker: this log's owner became primary of generation
    /// `generation`. Written into the promotion checkpoint image so the
    /// fencing counter survives restarts; replicated so followers (and,
    /// through them, a fenced ex-primary) learn the new generation.
    Epoch {
        /// The monotonic promotion counter (1 for a never-failed-over
        /// primary; each promotion takes the successor to
        /// `old generation + 1`).
        generation: u64,
    },
    /// One link of the tamper-evident audit chain: a security-relevant event
    /// (declassify, delegate/revoke, label raise, commit-label refusal,
    /// budget kill) serialized by the layer above. The payload is opaque to
    /// the storage engine; `seq`/`prev`/`hash` form a hash chain
    /// (`hash = H(prev ‖ seq ‖ bytes)`, see [`crate::audit::chain_hash`]) so
    /// any record dropped, reordered or altered after the fact breaks
    /// verification. Carried in the log — and in checkpoint images — so the
    /// chain is ordered, durable, replicated, and survives compaction.
    Audit {
        /// Position in the chain, starting at 1.
        seq: u64,
        /// Hash of the previous link (0 for the first).
        prev: u64,
        /// This link's hash.
        hash: u64,
        /// The serialized audit event (opaque here).
        bytes: Vec<u8>,
    },
}

/// What [`Wal::read_log`] found in a log file.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecovery {
    /// The records that parsed cleanly, in log order.
    pub records: Vec<LogRecord>,
    /// Byte offset of the end of the last clean record.
    pub clean_bytes: u64,
    /// Bytes past `clean_bytes` that could not be parsed (a torn tail from a
    /// crash mid-append). Zero for a clean log.
    pub torn_bytes: u64,
}

/// What [`Wal::open_existing`] recovered — counts only. The parsed records
/// themselves are *moved* into the returned log (read them through the
/// `Wal`), not cloned, so recovery holds a single copy of the tuple
/// payloads no matter how large the log is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenRecovery {
    /// Number of cleanly parsed records now held by the log.
    pub record_count: usize,
    /// Byte offset of the end of the last clean record.
    pub clean_bytes: u64,
    /// Torn-tail bytes truncated from the file. Zero for a clean log.
    pub torn_bytes: u64,
}

/// Where the log keeps its records.
enum Sink {
    Memory,
    File {
        w: BufWriter<File>,
        /// Records appended to the file so far (monotonic, survives
        /// checkpoint rewrites).
        appended_seq: u64,
    },
}

/// Group-commit coordination state, protected by a std mutex so committers
/// can block on the condvar while the leader fsyncs.
struct GroupState {
    /// Highest `appended_seq` known to be on the device.
    durable_seq: u64,
    /// Whether a leader is currently flushing.
    flushing: bool,
}

/// The in-memory record mirror, with replication sequence numbering.
///
/// Record `records[i]` has sequence number `base_seq + i`; the numbering is
/// monotonic across checkpoint rewrites (the image's records continue where
/// the replaced history stopped), so a replica's applied-seq watermark stays
/// meaningful across primary checkpoints.
pub(crate) struct Mirror {
    pub(crate) records: Vec<LogRecord>,
    /// Sequence number of `records[0]`. Starts at 1; jumps forward on every
    /// checkpoint rewrite.
    base_seq: u64,
    /// How many records at the head of the mirror form a checkpoint image
    /// (0 when the log has never been rewritten in this incarnation).
    image_len: usize,
}

/// One batch of the replication stream, served by
/// [`Wal::read_replication_batch`].
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicationBatch {
    /// `true` when the requested position was compacted away (or never
    /// existed in this log incarnation): the replica must discard its state
    /// and re-apply from scratch, starting with this batch — the checkpoint
    /// image at the head of the log.
    pub reset: bool,
    /// Sequence number of `records[0]`.
    pub first_seq: u64,
    /// Highest sequence number currently served by this log (`0` when
    /// empty). The replica's lag is `end_seq - applied_seq`.
    pub end_seq: u64,
    /// The records, in sequence order. Empty when the replica is caught up.
    pub records: Vec<LogRecord>,
}

/// The write-ahead log.
pub struct Wal {
    mirror: Mutex<Mirror>,
    sink: Mutex<Sink>,
    path: Option<PathBuf>,
    bytes_written: AtomicU64,
    sync_on_commit: bool,
    group_commit: bool,
    sync_latency: Duration,
    group: StdMutex<GroupState>,
    group_cvar: Condvar,
    /// Threads parked in [`Wal::wait_shippable`]; signalled through
    /// `ship_cvar` whenever the shippable horizon may have moved. Signallers
    /// take this lock only after releasing `mirror` and `group`, so a waiter
    /// may read the horizon (which takes those two) while holding it.
    ship_waiters: StdMutex<usize>,
    ship_cvar: Condvar,
    /// Serializes commit-path flushes when `sync_latency` emulates a slow
    /// device: flushes queue on the device's one flush channel while
    /// buffered appends proceed, as on real hardware. Unused (never
    /// contended) at zero latency.
    sync_gate: StdMutex<()>,
    fsyncs: AtomicU64,
    commits_batched: AtomicU64,
    /// Identifies this incarnation of the log for replication: a replica
    /// that sees the epoch change knows the sequence numbering restarted
    /// (primary restart) and re-bootstraps instead of trusting its
    /// watermark.
    epoch: u64,
    /// The monotonic promotion counter ("primary generation"). Unlike
    /// `epoch` — a random incarnation id that only supports an equality
    /// check — generations are ordered: a node presenting a *higher*
    /// generation is a legitimate successor and fences this one; a node
    /// presenting a lower generation is a fenced predecessor whose batches
    /// must be refused. Durable via [`LogRecord::Epoch`] records.
    generation: AtomicU64,
    /// When set, appends are dropped entirely. A read replica's engine is
    /// fed by the *primary's* log; its own log is never read for recovery
    /// or replication, so whatever the replica's setup code logs locally
    /// (re-run DDL) must not pile up in the in-memory mirror. Replica-local
    /// read transactions log nothing to begin with.
    discard: AtomicBool,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("records", &self.mirror.lock().records.len())
            .field("bytes_written", &self.bytes_written.load(Ordering::Relaxed))
            .field("fsyncs", &self.fsyncs.load(Ordering::Relaxed))
            .finish()
    }
}

/// A unique-enough id for one log incarnation: wall-clock nanoseconds mixed
/// with a per-process counter, so two logs created in the same nanosecond
/// (or on a clock that went backwards) still differ.
fn new_epoch() -> u64 {
    use std::time::{SystemTime, UNIX_EPOCH};
    static COUNTER: AtomicU64 = AtomicU64::new(0x9E37_79B9);
    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let salt = COUNTER.fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed);
    // Never 0: 0 is the "no epoch yet" sentinel on the replica side.
    (nanos ^ salt.rotate_left(17)) | 1
}

impl Wal {
    fn with_sink(
        sink: Sink,
        path: Option<PathBuf>,
        durability: DurabilityConfig,
        records: Vec<LogRecord>,
        bytes: u64,
    ) -> Self {
        // Records loaded from an existing file are durable by definition.
        let durable = records.len() as u64;
        // A log that has lived through promotions carries Epoch records;
        // the last one names the generation this node last served as.
        let generation = records
            .iter()
            .rev()
            .find_map(|r| match r {
                LogRecord::Epoch { generation } => Some(*generation),
                _ => None,
            })
            .unwrap_or(1);
        Wal {
            mirror: Mutex::new(Mirror {
                records,
                base_seq: 1,
                image_len: 0,
            }),
            sink: Mutex::new(sink),
            path,
            bytes_written: AtomicU64::new(bytes),
            sync_on_commit: durability.sync_on_commit,
            group_commit: durability.group_commit,
            sync_latency: durability.sync_latency,
            group: StdMutex::new(GroupState {
                durable_seq: durable,
                flushing: false,
            }),
            group_cvar: Condvar::new(),
            ship_waiters: StdMutex::new(0),
            ship_cvar: Condvar::new(),
            sync_gate: StdMutex::new(()),
            fsyncs: AtomicU64::new(0),
            commits_batched: AtomicU64::new(0),
            epoch: new_epoch(),
            generation: AtomicU64::new(generation),
            discard: AtomicBool::new(false),
        }
    }

    /// Turns the log into a sink that drops every append. Only sensible for
    /// an engine whose log is never read back — a read replica, whose state
    /// is a cache of its *primary's* log (see the field docs on `discard`).
    pub fn set_discard(&self, on: bool) {
        self.discard.store(on, Ordering::Release);
    }

    /// Creates an in-memory log (no file backing).
    pub fn in_memory() -> Self {
        Self::with_sink(Sink::Memory, None, DurabilityConfig::NO_SYNC, Vec::new(), 0)
    }

    /// Creates (or truncates) a file-backed log at `path`. Kept for
    /// compatibility; equivalent to [`Wal::create`] with `sync_on_commit`
    /// mapped onto [`DurabilityConfig::SYNC_EACH`] / `NO_SYNC`.
    pub fn file_backed(path: &Path, sync_on_commit: bool) -> StorageResult<Self> {
        let durability = if sync_on_commit {
            DurabilityConfig::SYNC_EACH
        } else {
            DurabilityConfig::NO_SYNC
        };
        Self::create(path, durability)
    }

    /// Creates (or truncates) a file-backed log at `path` with the given
    /// durability configuration.
    pub fn create(path: &Path, durability: DurabilityConfig) -> StorageResult<Self> {
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)?;
        // Make the directory entry durable too, so the log file itself
        // survives a power failure that follows the first durable commit.
        fsync_dir(path)?;
        Ok(Self::with_sink(
            Sink::File {
                w: BufWriter::new(file),
                appended_seq: 0,
            },
            Some(path.to_path_buf()),
            durability,
            Vec::new(),
            0,
        ))
    }

    /// Opens an existing file-backed log for recovery: parses every record,
    /// truncates a torn tail (warning on stderr rather than failing the whole
    /// recovery), and returns the log positioned to append after the last
    /// clean record. The parsed records are held by the returned log — read
    /// them with [`Wal::records`] for replay.
    ///
    /// A missing file is treated as an empty log, so first-boot and restart
    /// go through the same path.
    pub fn open_existing(
        path: &Path,
        durability: DurabilityConfig,
    ) -> StorageResult<(Self, OpenRecovery)> {
        let recovery = match Self::read_log(path) {
            Ok(r) => r,
            Err(StorageError::Io { .. }) if !path.exists() => WalRecovery {
                records: Vec::new(),
                clean_bytes: 0,
                torn_bytes: 0,
            },
            Err(e) => return Err(e),
        };
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(false)
            .open(path)?;
        if recovery.torn_bytes > 0 {
            eprintln!(
                "wal: truncating torn tail of {} ({} bytes after offset {})",
                path.display(),
                recovery.torn_bytes,
                recovery.clean_bytes
            );
            file.set_len(recovery.clean_bytes)?;
        }
        let mut file = file;
        use std::io::Seek;
        file.seek(std::io::SeekFrom::Start(recovery.clean_bytes))?;
        let info = OpenRecovery {
            record_count: recovery.records.len(),
            clean_bytes: recovery.clean_bytes,
            torn_bytes: recovery.torn_bytes,
        };
        let wal = Self::with_sink(
            Sink::File {
                w: BufWriter::new(file),
                appended_seq: recovery.records.len() as u64,
            },
            Some(path.to_path_buf()),
            durability,
            recovery.records,
            recovery.clean_bytes,
        );
        Ok((wal, info))
    }

    /// Appends a record. For `Commit` records the call also enforces the
    /// configured durability level: with `sync_on_commit` it returns only
    /// once the commit record is on the device, either via its own fsync or
    /// via a group-commit leader's.
    pub fn append(&self, record: LogRecord) -> StorageResult<()> {
        if self.discard.load(Ordering::Acquire) {
            return Ok(());
        }
        let encoded = Self::encode(&record);
        self.bytes_written
            .fetch_add(encoded.len() as u64 + 8, Ordering::Relaxed);
        // Prepare is a durability point too: a participant must not vote yes
        // until the prepare record is on the device. Decide-commit makes the
        // outcome durable before the coordinator is acked; decide-abort is
        // presumed-abort and needs no fsync.
        let is_commit = matches!(
            record,
            LogRecord::Commit { .. }
                | LogRecord::Prepare { .. }
                | LogRecord::Decide { commit: true, .. }
        );
        let mut my_seq = 0u64;
        let mut synced_seq = 0u64;
        let mut gated_sync = false;
        {
            // The mirror is pushed while the sink lock is still held so the
            // replication stream's record order always matches the file's
            // (lock order sink → mirror, same as rewrite_with).
            let mut sink = self.sink.lock();
            if let Sink::File { w, appended_seq } = &mut *sink {
                write_frame(w, &encoded)?;
                *appended_seq += 1;
                my_seq = *appended_seq;
                if is_commit && self.sync_on_commit && !self.group_commit {
                    if self.sync_latency.is_zero() {
                        // Sync-per-commit: pay the flush while holding the
                        // sink lock, fully serializing committers.
                        w.flush()?;
                        w.get_ref().sync_data()?;
                        self.fsyncs.fetch_add(1, Ordering::Relaxed);
                        synced_seq = my_seq;
                    } else {
                        // Emulated slow device: flush outside the sink lock
                        // behind the flush gate, so commits serialize on the
                        // device's flush channel while other sessions'
                        // buffered appends proceed — a sleeping committer
                        // must not convoy every append the way no real disk
                        // would.
                        gated_sync = true;
                    }
                }
            }
            self.mirror.lock().records.push(record);
        }
        if synced_seq > 0 {
            self.note_durable(synced_seq);
        } else if !self.capped() {
            // Without a durability cap the record ships as soon as it is in
            // the mirror.
            self.signal_shippable();
        }
        if gated_sync && my_seq > 0 {
            // Every sync-each commit pays its own stable write, queued on
            // the emulated device's flush channel.
            let _gate = self.sync_gate.lock().expect("sync gate poisoned");
            self.flush_and_sync()?;
        }
        if is_commit && self.sync_on_commit && self.group_commit && my_seq > 0 {
            self.group_commit_wait(my_seq)?;
        }
        Ok(())
    }

    /// Sleeps out the configured [`DurabilityConfig::sync_latency`], called
    /// with the sink lock held right after a real fsync so the emulated slow
    /// medium serializes committers exactly as a real one would.
    fn emulate_sync_latency(&self) {
        if !self.sync_latency.is_zero() {
            std::thread::sleep(self.sync_latency);
        }
    }

    /// Records that every sequence number up to `seq` has reached the
    /// device. The replication stream of a `sync_on_commit` log only serves
    /// records at or below this point.
    fn note_durable(&self, seq: u64) {
        {
            let mut state = self.group.lock().expect("group lock poisoned");
            state.durable_seq = state.durable_seq.max(seq);
        }
        self.signal_shippable();
    }

    /// Wakes every thread parked in [`Wal::wait_shippable`] to re-read the
    /// horizon. Called with neither `mirror` nor `group` held.
    fn signal_shippable(&self) {
        let waiters = self.ship_waiters.lock().expect("ship lock poisoned");
        if *waiters > 0 {
            self.ship_cvar.notify_all();
        }
    }

    /// Blocks until [`Wal::shippable_seq`] passes `after` or `timeout`
    /// elapses; returns whether it did. The horizon is signalled wherever
    /// it moves: an fsync that records durability (the group-commit leader,
    /// sync-per-commit, a checkpoint or promotion rewrite, [`Wal::sync`])
    /// and, on a log without a durability cap, every append. A replication
    /// poll that finds nothing to ship parks here, so a replica learns of a
    /// commit when it becomes shippable instead of on its next poll tick.
    pub fn wait_shippable(&self, after: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut waiters = self.ship_waiters.lock().expect("ship lock poisoned");
        loop {
            if self.shippable_seq() > after {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            *waiters += 1;
            let (guard, _) = self
                .ship_cvar
                .wait_timeout(waiters, deadline - now)
                .expect("ship lock poisoned");
            waiters = guard;
            *waiters -= 1;
        }
    }

    /// Leader/follower group commit: wait until `seq` is durable, electing
    /// ourselves leader (one flush+fsync covering every appended record) if
    /// nobody is flushing.
    fn group_commit_wait(&self, seq: u64) -> StorageResult<()> {
        let mut state = self.group.lock().expect("group lock poisoned");
        loop {
            if state.durable_seq >= seq {
                // A leader's fsync covered us: this commit shared an fsync.
                self.commits_batched.fetch_add(1, Ordering::Relaxed);
                return Ok(());
            }
            if !state.flushing {
                state.flushing = true;
                drop(state);
                let flushed = self.flush_and_sync();
                let mut state = self.group.lock().expect("group lock poisoned");
                state.flushing = false;
                let covered = match flushed {
                    Ok(covered) => covered,
                    Err(e) => {
                        self.group_cvar.notify_all();
                        return Err(e);
                    }
                };
                state.durable_seq = state.durable_seq.max(covered);
                self.group_cvar.notify_all();
                debug_assert!(state.durable_seq >= seq, "leader flush covers own record");
                return Ok(());
            }
            state = self.group_cvar.wait(state).expect("group lock poisoned");
        }
    }

    /// Flushes the buffered writer and fsyncs the file, returning the highest
    /// sequence number the flush covered.
    fn flush_and_sync(&self) -> StorageResult<u64> {
        let covered = {
            let mut sink = self.sink.lock();
            if let Sink::File { w, appended_seq } = &mut *sink {
                let covered = *appended_seq;
                w.flush()?;
                w.get_ref().sync_data()?;
                self.fsyncs.fetch_add(1, Ordering::Relaxed);
                covered
            } else {
                0
            }
        };
        // The emulated stable write completes (and the records only count
        // as durable) after the device's latency elapses; the sink lock is
        // already released, so appends proceed meanwhile.
        self.emulate_sync_latency();
        if covered > 0 {
            self.note_durable(covered);
        }
        Ok(covered)
    }

    /// Atomically replaces the log contents with the records produced by
    /// `image`, holding the append lock throughout so no record can slip in
    /// between building the image and installing it. Used by checkpointing:
    /// `image` serializes a consistent snapshot of the engine, and the
    /// replaced log makes replay O(live data + delta) instead of O(history).
    ///
    /// The replacement is crash-atomic for file-backed logs: the image is
    /// written to a temporary file, fsynced, then renamed over the log.
    pub fn rewrite_with(
        &self,
        image: impl FnOnce() -> StorageResult<Vec<LogRecord>>,
    ) -> StorageResult<usize> {
        let mut sink = self.sink.lock();
        let records = image()?;
        let count = records.len();
        // The image's records continue the sequence numbering where the
        // replaced history stopped: replicas that were caught up keep their
        // watermarks, replicas that were behind are told to re-bootstrap.
        let install_mirror = |records: Vec<LogRecord>| {
            let mut mirror = self.mirror.lock();
            mirror.base_seq += mirror.records.len() as u64;
            mirror.image_len = records.len();
            mirror.records = records;
        };
        match &mut *sink {
            Sink::Memory => {
                install_mirror(records);
                self.signal_shippable();
            }
            Sink::File { w, appended_seq } => {
                let path = self.path.as_ref().expect("file sink always has a path");
                // Make sure nothing buffered is lost if the rename fails.
                w.flush()?;
                let tmp = path.with_extension("log.tmp");
                let mut bytes = 0u64;
                {
                    let mut tw = BufWriter::new(File::create(&tmp)?);
                    for r in &records {
                        let encoded = Self::encode(r);
                        write_frame(&mut tw, &encoded)?;
                        bytes += encoded.len() as u64 + 8;
                    }
                    tw.flush()?;
                    tw.get_ref().sync_data()?;
                }
                std::fs::rename(&tmp, path)?;
                // The rename is only durable once the directory entry is:
                // without this, a power failure could resurrect the old
                // inode and lose every post-checkpoint commit.
                fsync_dir(path)?;
                self.fsyncs.fetch_add(1, Ordering::Relaxed);
                let mut file = OpenOptions::new().write(true).open(path)?;
                use std::io::Seek;
                file.seek(std::io::SeekFrom::End(0))?;
                // appended_seq stays monotonic across rewrites so group-commit
                // waiters from before the rewrite remain satisfied.
                *appended_seq += count as u64;
                let durable_through = *appended_seq;
                *w = BufWriter::new(file);
                self.bytes_written.fetch_add(bytes, Ordering::Relaxed);
                install_mirror(records);
                // The image was fsynced and renamed: everything it contains
                // is durable, so the replication stream may serve it.
                self.note_durable(durable_through);
            }
        }
        Ok(count)
    }

    /// Identifies this incarnation of the log. Sequence numbers are only
    /// comparable within one epoch; see the [module docs](self).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The monotonic promotion counter this log's owner serves under. A
    /// never-failed-over primary reports 1; each promotion bumps the
    /// successor past every generation it has seen.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Installs a new primary generation (promotion, or a replica learning
    /// its primary's generation from the stream). Monotonic: a lower value
    /// never overwrites a higher one.
    pub fn set_generation(&self, generation: u64) {
        self.generation.fetch_max(generation, Ordering::AcqRel);
    }

    /// Sequence number of the last record appended in this incarnation
    /// (0 when nothing has been logged yet). Monotonic across checkpoint
    /// rewrites.
    pub fn last_seq(&self) -> u64 {
        let mirror = self.mirror.lock();
        mirror.base_seq + mirror.records.len() as u64 - 1
    }

    /// The highest sequence number the replication stream serves right now:
    /// [`Wal::last_seq`], capped on a `sync_on_commit` log at the last fsync.
    /// Nothing past it can reach a replica until some committer flushes.
    pub fn shippable_seq(&self) -> u64 {
        self.shippable(self.last_seq())
    }

    fn shippable(&self, last: u64) -> u64 {
        if self.capped() {
            last.min(self.group.lock().expect("group lock poisoned").durable_seq)
        } else {
            last
        }
    }

    /// Whether the stream is capped at the last fsync. Only file-backed
    /// `sync_on_commit` logs are: an in-memory log has no device, so
    /// `durable_seq` never advances and capping on it would withhold the
    /// entire stream forever.
    fn capped(&self) -> bool {
        self.sync_on_commit && self.path.is_some()
    }

    /// Serves one batch of the replication stream starting at `from_seq`
    /// (1-based; a fresh replica passes 0 or 1), with at most `max` records.
    ///
    /// The reply's `reset` flag is the snapshot-bootstrap signal: it is set
    /// when `from_seq` refers to records this log no longer holds (compacted
    /// by a checkpoint, or from a different incarnation), and the batch then
    /// starts at the head of the log — the checkpoint image, whose replay
    /// rebuilds the full state. A replica that was exactly caught up when a
    /// checkpoint rewrote the log does *not* reset: the image describes
    /// state it already has, so the stream resumes past it.
    ///
    /// On a `sync_on_commit` log, records past the last fsync are withheld:
    /// a replica never applies a commit the primary could still lose.
    pub fn read_replication_batch(&self, from_seq: u64, max: usize) -> ReplicationBatch {
        let mirror = self.mirror.lock();
        let base = mirror.base_seq;
        let next = base + mirror.records.len() as u64;
        let end = self.shippable(next - 1);
        let from = from_seq.max(1);
        let (reset, start) = if from < base || from > next {
            // The position was compacted away (or never existed here):
            // bootstrap from the image at the head of the log.
            (true, base)
        } else if from == base && base > 1 && mirror.image_len > 0 {
            // Caught up through base-1: the image at [base, base+image_len)
            // re-describes state the replica already has — skip it. Only
            // valid when there *was* something before the image: on a log
            // re-anchored at seq 1 (promotion), "applied through 0" means
            // the replica has nothing of this epoch and needs the image.
            (false, base + mirror.image_len as u64)
        } else {
            (false, from)
        };
        let lo = (start - base) as usize;
        let hi = mirror
            .records
            .len()
            .min(lo.saturating_add(max))
            .min((end + 1).saturating_sub(base) as usize)
            .max(lo);
        ReplicationBatch {
            reset,
            first_seq: start,
            end_seq: end,
            records: mirror.records[lo..hi].to_vec(),
        }
    }

    /// Encodes one record into the byte form used both in log frames and on
    /// the replication wire. The inverse of [`Wal::decode_record`].
    pub fn encode_record(record: &LogRecord) -> Vec<u8> {
        Self::encode(record)
    }

    /// Decodes a record encoded by [`Wal::encode_record`]; `None` when the
    /// bytes are not a valid record.
    pub fn decode_record(buf: &[u8]) -> Option<LogRecord> {
        Self::decode(buf)
    }

    fn encode(record: &LogRecord) -> Vec<u8> {
        fn put_str(out: &mut Vec<u8>, s: &str) {
            debug_assert!(s.len() <= u16::MAX as usize);
            out.extend_from_slice(&(s.len() as u16).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        let mut out = Vec::new();
        match record {
            LogRecord::Begin { txn } => {
                out.push(1);
                out.extend_from_slice(&txn.0.to_le_bytes());
            }
            LogRecord::Commit { txn } => {
                out.push(2);
                out.extend_from_slice(&txn.0.to_le_bytes());
            }
            LogRecord::Abort { txn } => {
                out.push(3);
                out.extend_from_slice(&txn.0.to_le_bytes());
            }
            LogRecord::Insert {
                txn,
                table,
                row,
                bytes,
            } => {
                out.push(4);
                out.extend_from_slice(&txn.0.to_le_bytes());
                out.extend_from_slice(&table.to_le_bytes());
                out.extend_from_slice(&row.page.to_le_bytes());
                out.extend_from_slice(&row.slot.to_le_bytes());
                out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
                out.extend_from_slice(bytes);
            }
            LogRecord::Delete { txn, table, row } => {
                out.push(5);
                out.extend_from_slice(&txn.0.to_le_bytes());
                out.extend_from_slice(&table.to_le_bytes());
                out.extend_from_slice(&row.page.to_le_bytes());
                out.extend_from_slice(&row.slot.to_le_bytes());
            }
            LogRecord::Checkpoint => out.push(6),
            LogRecord::CreateTable { id, schema } => {
                out.push(7);
                out.extend_from_slice(&id.to_le_bytes());
                put_str(&mut out, &schema.name);
                debug_assert!(schema.columns.len() <= u16::MAX as usize);
                out.extend_from_slice(&(schema.columns.len() as u16).to_le_bytes());
                for c in &schema.columns {
                    put_str(&mut out, &c.name);
                    out.push(datatype_code(c.ty));
                    out.push(c.nullable as u8);
                }
            }
            LogRecord::CreateIndex {
                table,
                name,
                columns,
            } => {
                out.push(8);
                out.extend_from_slice(&table.to_le_bytes());
                put_str(&mut out, name);
                out.extend_from_slice(&(columns.len() as u16).to_le_bytes());
                for c in columns {
                    out.extend_from_slice(&c.to_le_bytes());
                }
            }
            LogRecord::Prepare { txn, gid } => {
                out.push(9);
                out.extend_from_slice(&txn.0.to_le_bytes());
                out.extend_from_slice(&gid.to_le_bytes());
            }
            LogRecord::Decide { txn, commit } => {
                out.push(10);
                out.extend_from_slice(&txn.0.to_le_bytes());
                out.push(*commit as u8);
            }
            LogRecord::Epoch { generation } => {
                out.push(11);
                out.extend_from_slice(&generation.to_le_bytes());
            }
            LogRecord::Audit {
                seq,
                prev,
                hash,
                bytes,
            } => {
                out.push(12);
                out.extend_from_slice(&seq.to_le_bytes());
                out.extend_from_slice(&prev.to_le_bytes());
                out.extend_from_slice(&hash.to_le_bytes());
                out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
                out.extend_from_slice(bytes);
            }
        }
        out
    }

    fn decode(buf: &[u8]) -> Option<LogRecord> {
        let kind = *buf.first()?;
        let u64_at = |o: usize| -> Option<u64> {
            buf.get(o..o + 8)
                .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
        };
        let u32_at = |o: usize| -> Option<u32> {
            buf.get(o..o + 4)
                .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
        };
        let u16_at = |o: usize| -> Option<u16> {
            buf.get(o..o + 2)
                .map(|b| u16::from_le_bytes(b.try_into().unwrap()))
        };
        let str_at = |o: usize| -> Option<(String, usize)> {
            let len = u16_at(o)? as usize;
            let s = std::str::from_utf8(buf.get(o + 2..o + 2 + len)?).ok()?;
            Some((s.to_string(), o + 2 + len))
        };
        match kind {
            1 => Some(LogRecord::Begin {
                txn: TxnId(u64_at(1)?),
            }),
            2 => Some(LogRecord::Commit {
                txn: TxnId(u64_at(1)?),
            }),
            3 => Some(LogRecord::Abort {
                txn: TxnId(u64_at(1)?),
            }),
            4 => {
                let txn = TxnId(u64_at(1)?);
                let table = u32_at(9)?;
                let page = u32_at(13)?;
                let slot = u16_at(17)?;
                let len = u32_at(19)? as usize;
                let bytes = buf.get(23..23 + len)?.to_vec();
                Some(LogRecord::Insert {
                    txn,
                    table,
                    row: RowId { page, slot },
                    bytes,
                })
            }
            5 => Some(LogRecord::Delete {
                txn: TxnId(u64_at(1)?),
                table: u32_at(9)?,
                row: RowId {
                    page: u32_at(13)?,
                    slot: u16_at(17)?,
                },
            }),
            6 => Some(LogRecord::Checkpoint),
            7 => {
                let id = u32_at(1)?;
                let (name, mut pos) = str_at(5)?;
                let ncols = u16_at(pos)? as usize;
                pos += 2;
                let mut columns = Vec::with_capacity(ncols);
                for _ in 0..ncols {
                    let (cname, next) = str_at(pos)?;
                    let ty = datatype_from_code(*buf.get(next)?)?;
                    let nullable = *buf.get(next + 1)? != 0;
                    columns.push(ColumnDef {
                        name: cname,
                        ty,
                        nullable,
                    });
                    pos = next + 2;
                }
                Some(LogRecord::CreateTable {
                    id,
                    schema: TableSchema { name, columns },
                })
            }
            8 => {
                let table = u32_at(1)?;
                let (name, mut pos) = str_at(5)?;
                let ncols = u16_at(pos)? as usize;
                pos += 2;
                let mut columns = Vec::with_capacity(ncols);
                for _ in 0..ncols {
                    columns.push(u16_at(pos)?);
                    pos += 2;
                }
                Some(LogRecord::CreateIndex {
                    table,
                    name,
                    columns,
                })
            }
            9 => Some(LogRecord::Prepare {
                txn: TxnId(u64_at(1)?),
                gid: u64_at(9)?,
            }),
            10 => Some(LogRecord::Decide {
                txn: TxnId(u64_at(1)?),
                commit: *buf.get(9)? != 0,
            }),
            11 => Some(LogRecord::Epoch {
                generation: u64_at(1)?,
            }),
            12 => {
                let len = u32_at(25)? as usize;
                Some(LogRecord::Audit {
                    seq: u64_at(1)?,
                    prev: u64_at(9)?,
                    hash: u64_at(17)?,
                    bytes: buf.get(29..29 + len)?.to_vec(),
                })
            }
            _ => None,
        }
    }

    /// Parses a log file without opening it for writing.
    ///
    /// Every frame carries a checksum over its payload, so a record that was
    /// only partially written (or corrupted) cannot decode "by luck".
    /// Parsing stops at the first frame that is incomplete, fails its
    /// checksum, or fails to decode; everything from that point on is
    /// reported as the torn tail. This is the standard end-of-log rule
    /// (sequential appends mean nothing valid can follow the first bad
    /// frame); genuine mid-log media corruption is indistinguishable from a
    /// torn tail without a backup and is handled the same way, with the
    /// loss surfaced by [`WalRecovery::torn_bytes`].
    pub fn read_log(path: &Path) -> StorageResult<WalRecovery> {
        let mut file = File::open(path)?;
        let mut data = Vec::new();
        file.read_to_end(&mut data)?;
        let mut out = Vec::new();
        let mut pos = 0usize;
        let mut clean = 0usize;
        while pos + 8 <= data.len() {
            let len = u32::from_le_bytes(data[pos..pos + 4].try_into().unwrap()) as usize;
            let crc = u32::from_le_bytes(data[pos + 4..pos + 8].try_into().unwrap());
            if pos + 8 + len > data.len() {
                break;
            }
            let payload = &data[pos + 8..pos + 8 + len];
            if frame_checksum(payload) != crc {
                break;
            }
            match Self::decode(payload) {
                Some(r) => out.push(r),
                None => break,
            }
            pos += 8 + len;
            clean = pos;
        }
        Ok(WalRecovery {
            records: out,
            clean_bytes: clean as u64,
            torn_bytes: (data.len() - clean) as u64,
        })
    }

    /// Reads back every cleanly parseable record from a file-backed log,
    /// warning on stderr (instead of erroring the recovery) when a torn tail
    /// is skipped.
    pub fn replay_file(path: &Path) -> StorageResult<Vec<LogRecord>> {
        let recovery = Self::read_log(path)?;
        if recovery.torn_bytes > 0 {
            eprintln!(
                "wal: ignoring torn tail of {} ({} bytes)",
                path.display(),
                recovery.torn_bytes
            );
        }
        Ok(recovery.records)
    }

    /// Records appended so far (in-memory copy; reset by checkpoint
    /// rewrites).
    pub fn records(&self) -> Vec<LogRecord> {
        self.mirror.lock().records.clone()
    }

    /// Locked view of the in-memory record mirror — no clone. Used by
    /// recovery replay, which reads a potentially huge record list exactly
    /// once. Nothing may append to the log while the guard is held.
    pub(crate) fn records_locked(&self) -> parking_lot::MutexGuard<'_, Mirror> {
        self.mirror.lock()
    }

    /// Number of records in the current log.
    pub fn len(&self) -> usize {
        self.mirror.lock().records.len()
    }

    /// Returns `true` if nothing has been logged.
    pub fn is_empty(&self) -> bool {
        self.mirror.lock().records.is_empty()
    }

    /// Total log volume in bytes ever appended, frames included (the
    /// quantity that grows with label size). Monotonic across checkpoints.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written.load(Ordering::Relaxed)
    }

    /// Number of `fsync` (`sync_data`) calls issued so far.
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs.load(Ordering::Relaxed)
    }

    /// Commits whose durability was provided by another committer's fsync
    /// (group-commit followers). `commits - commits_batched` approximates the
    /// number of leader flushes commits actually paid for.
    pub fn commits_batched(&self) -> u64 {
        self.commits_batched.load(Ordering::Relaxed)
    }

    /// Flushes the file sink, if any (no fsync).
    pub fn flush(&self) -> StorageResult<()> {
        if let Sink::File { w, .. } = &mut *self.sink.lock() {
            w.flush()?;
        }
        Ok(())
    }

    /// Flushes and fsyncs the file sink, if any. Used on clean shutdown and
    /// by `no-sync` engines that want a durability point without a
    /// checkpoint.
    pub fn sync(&self) -> StorageResult<()> {
        self.flush_and_sync()?;
        Ok(())
    }
}

/// Writes one checksummed frame: `len u32 | crc u32 | payload`.
fn write_frame(w: &mut BufWriter<File>, payload: &[u8]) -> StorageResult<()> {
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(&frame_checksum(payload).to_le_bytes())?;
    w.write_all(payload)?;
    Ok(())
}

/// FNV-1a over the frame payload — cheap, and plenty to reject torn or
/// bit-flipped records during replay.
fn frame_checksum(payload: &[u8]) -> u32 {
    let mut h: u32 = 0x811C_9DC5;
    for &b in payload {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// fsyncs the directory containing `path`, making renames/creates durable.
fn fsync_dir(path: &Path) -> StorageResult<()> {
    if let Some(parent) = path.parent() {
        if let Ok(dir) = File::open(parent) {
            dir.sync_all()?;
        }
    }
    Ok(())
}

fn datatype_code(ty: DataType) -> u8 {
    match ty {
        DataType::Int => 0,
        DataType::Float => 1,
        DataType::Text => 2,
        DataType::Bool => 3,
        DataType::Timestamp => 4,
        DataType::IntArray => 5,
    }
}

fn datatype_from_code(code: u8) -> Option<DataType> {
    Some(match code {
        0 => DataType::Int,
        1 => DataType::Float,
        2 => DataType::Text,
        3 => DataType::Bool,
        4 => DataType::Timestamp,
        5 => DataType::IntArray,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnDef;
    use crate::value::DataType;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ifdb-wal-test-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn all_record_kinds() -> Vec<LogRecord> {
        vec![
            LogRecord::Begin { txn: TxnId(5) },
            LogRecord::CreateTable {
                id: 9,
                schema: TableSchema::new(
                    "t",
                    vec![
                        ColumnDef::new("id", DataType::Int),
                        ColumnDef::nullable("note", DataType::Text),
                        ColumnDef::new("ok", DataType::Bool),
                    ],
                ),
            },
            LogRecord::CreateIndex {
                table: 9,
                name: "t_pkey".into(),
                columns: vec![0, 2],
            },
            LogRecord::Insert {
                txn: TxnId(5),
                table: 9,
                row: RowId { page: 1, slot: 2 },
                bytes: vec![9, 9, 9, 9],
            },
            LogRecord::Delete {
                txn: TxnId(5),
                table: 9,
                row: RowId { page: 1, slot: 1 },
            },
            LogRecord::Commit { txn: TxnId(5) },
            LogRecord::Abort { txn: TxnId(6) },
            LogRecord::Checkpoint,
            LogRecord::Prepare {
                txn: TxnId(7),
                gid: 42,
            },
            LogRecord::Decide {
                txn: TxnId(7),
                commit: true,
            },
            LogRecord::Decide {
                txn: TxnId(8),
                commit: false,
            },
            LogRecord::Epoch { generation: 3 },
            LogRecord::Audit {
                seq: 1,
                prev: 0,
                hash: 0xDEAD_BEEF,
                bytes: vec![7, 7, 7],
            },
        ]
    }

    #[test]
    fn in_memory_append_and_read() {
        let wal = Wal::in_memory();
        wal.append(LogRecord::Begin { txn: TxnId(1) }).unwrap();
        wal.append(LogRecord::Insert {
            txn: TxnId(1),
            table: 2,
            row: RowId { page: 0, slot: 3 },
            bytes: vec![1, 2, 3],
        })
        .unwrap();
        wal.append(LogRecord::Commit { txn: TxnId(1) }).unwrap();
        assert_eq!(wal.len(), 3);
        assert!(wal.bytes_written() > 0);
        assert!(matches!(wal.records()[2], LogRecord::Commit { .. }));
    }

    #[test]
    fn file_backed_replay_round_trip() {
        let dir = temp_dir("roundtrip");
        let path = dir.join("wal.log");
        let wal = Wal::file_backed(&path, true).unwrap();
        let records = all_record_kinds();
        for r in &records {
            wal.append(r.clone()).unwrap();
        }
        wal.flush().unwrap();
        let replayed = Wal::replay_file(&path).unwrap();
        assert_eq!(replayed, records);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn larger_tuples_produce_more_log_bytes() {
        let wal = Wal::in_memory();
        wal.append(LogRecord::Insert {
            txn: TxnId(1),
            table: 1,
            row: RowId { page: 0, slot: 0 },
            bytes: vec![0; 100],
        })
        .unwrap();
        let small = wal.bytes_written();
        wal.append(LogRecord::Insert {
            txn: TxnId(1),
            table: 1,
            row: RowId { page: 0, slot: 1 },
            bytes: vec![0; 200],
        })
        .unwrap();
        assert!(wal.bytes_written() - small > small / 2);
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let dir = temp_dir("torn");
        let path = dir.join("wal.log");
        let wal = Wal::file_backed(&path, true).unwrap();
        let records = all_record_kinds();
        for r in &records {
            wal.append(r.clone()).unwrap();
        }
        wal.flush().unwrap();
        drop(wal);
        // Simulate a crash mid-append: tack on half a frame.
        let clean_len = std::fs::metadata(&path).unwrap().len();
        {
            use std::io::Write;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[200, 1, 0, 0, 4, 4]).unwrap(); // claims 456 bytes, has 2
        }
        let parsed = Wal::read_log(&path).unwrap();
        assert_eq!(parsed.records, records);
        assert_eq!(parsed.clean_bytes, clean_len);
        assert_eq!(parsed.torn_bytes, 6);

        // Opening for recovery truncates the tail and appends cleanly after.
        let (wal, recovery) = Wal::open_existing(&path, DurabilityConfig::SYNC_EACH).unwrap();
        assert_eq!(recovery.record_count, records.len());
        assert_eq!(wal.records(), records);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), clean_len);
        wal.append(LogRecord::Begin { txn: TxnId(77) }).unwrap();
        wal.append(LogRecord::Commit { txn: TxnId(77) }).unwrap();
        drop(wal);
        let reparsed = Wal::read_log(&path).unwrap();
        assert_eq!(reparsed.torn_bytes, 0);
        assert_eq!(reparsed.records.len(), records.len() + 2);
        assert!(matches!(
            reparsed.records.last(),
            Some(LogRecord::Commit { txn: TxnId(77) })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_byte_mid_tail_stops_cleanly() {
        let dir = temp_dir("corrupt");
        let path = dir.join("wal.log");
        let wal = Wal::file_backed(&path, true).unwrap();
        for r in all_record_kinds() {
            wal.append(r).unwrap();
        }
        wal.flush().unwrap();
        drop(wal);
        // Flip the kind byte of the final record to an unknown kind.
        let mut data = std::fs::read(&path).unwrap();
        let last = data.len() - 1;
        data[last] = 0xFF; // Checkpoint is 1 byte; its kind is the last byte
        std::fs::write(&path, &data).unwrap();
        let parsed = Wal::read_log(&path).unwrap();
        assert_eq!(parsed.records.len(), all_record_kinds().len() - 1);
        assert!(parsed.torn_bytes > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_opens_as_empty_log() {
        let dir = temp_dir("missing");
        let path = dir.join("wal.log");
        let (wal, recovery) = Wal::open_existing(&path, DurabilityConfig::GROUP_COMMIT).unwrap();
        assert_eq!(recovery.record_count, 0);
        assert_eq!(recovery.torn_bytes, 0);
        wal.append(LogRecord::Begin { txn: TxnId(1) }).unwrap();
        wal.append(LogRecord::Commit { txn: TxnId(1) }).unwrap();
        assert!(wal.fsyncs() >= 1, "group commit still fsyncs when alone");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn group_commit_batches_concurrent_committers() {
        let dir = temp_dir("group");
        let path = dir.join("wal.log");
        let wal = std::sync::Arc::new(Wal::create(&path, DurabilityConfig::GROUP_COMMIT).unwrap());
        let threads = 8;
        let commits_per_thread = 25u64;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let wal = wal.clone();
                scope.spawn(move || {
                    for i in 0..commits_per_thread {
                        let txn = TxnId(1 + t * 1000 + i);
                        wal.append(LogRecord::Begin { txn }).unwrap();
                        wal.append(LogRecord::Commit { txn }).unwrap();
                    }
                });
            }
        });
        let total = threads * commits_per_thread;
        // Every commit is durable, and all records are intact on disk.
        let parsed = Wal::read_log(&path).unwrap();
        let commits = parsed
            .records
            .iter()
            .filter(|r| matches!(r, LogRecord::Commit { .. }))
            .count() as u64;
        assert_eq!(commits, total);
        assert!(wal.fsyncs() <= total, "never more fsyncs than commits");
        assert_eq!(
            wal.fsyncs() + wal.commits_batched(),
            total,
            "each commit either led a flush or rode one"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rewrite_with_replaces_log_atomically() {
        let dir = temp_dir("rewrite");
        let path = dir.join("wal.log");
        let wal = Wal::create(&path, DurabilityConfig::SYNC_EACH).unwrap();
        for r in all_record_kinds() {
            wal.append(r).unwrap();
        }
        let image = vec![
            LogRecord::CreateTable {
                id: 1,
                schema: TableSchema::new("compact", vec![ColumnDef::new("k", DataType::Int)]),
            },
            LogRecord::Checkpoint,
        ];
        let n = wal.rewrite_with(|| Ok(image.clone())).unwrap();
        assert_eq!(n, 2);
        assert_eq!(wal.records(), image);
        // Appends after the rewrite land after the image on disk.
        wal.append(LogRecord::Begin { txn: TxnId(9) }).unwrap();
        wal.append(LogRecord::Commit { txn: TxnId(9) }).unwrap();
        drop(wal);
        let parsed = Wal::read_log(&path).unwrap();
        assert_eq!(parsed.records.len(), 4);
        assert_eq!(parsed.records[..2], image[..]);
        assert_eq!(parsed.torn_bytes, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Runs `advance` once a thread is parked in `wait_shippable(after)`,
    /// and returns what the parked call answered.
    fn parked_wait_then(wal: &Wal, after: u64, advance: impl FnOnce()) -> bool {
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| wal.wait_shippable(after, Duration::from_secs(30)));
            while *wal.ship_waiters.lock().unwrap() == 0 {
                std::thread::yield_now();
            }
            advance();
            waiter.join().unwrap()
        })
    }

    #[test]
    fn wait_shippable_wakes_on_an_uncapped_append_and_times_out_without_one() {
        let wal = Wal::in_memory();
        let started = std::time::Instant::now();
        assert!(!wal.wait_shippable(0, Duration::from_millis(30)));
        assert!(started.elapsed() >= Duration::from_millis(30));
        assert!(parked_wait_then(&wal, 0, || {
            wal.append(LogRecord::Begin { txn: TxnId(1) }).unwrap();
        }));
        // Already past: no wait at all.
        assert!(wal.wait_shippable(0, Duration::ZERO));
    }

    #[test]
    fn wait_shippable_on_a_durable_log_wakes_on_the_fsync_not_the_append() {
        let dir = temp_dir("ship");
        let wal = Wal::create(&dir.join("wal.log"), DurabilityConfig::GROUP_COMMIT).unwrap();
        wal.append(LogRecord::Begin { txn: TxnId(1) }).unwrap();
        assert!(
            !wal.wait_shippable(0, Duration::from_millis(30)),
            "an unsynced record is not shippable"
        );
        assert!(parked_wait_then(&wal, 0, || {
            wal.append(LogRecord::Commit { txn: TxnId(1) }).unwrap();
        }));
        assert_eq!(wal.shippable_seq(), 2);
        // A checkpoint rewrite's fsync moves the horizon too.
        assert!(parked_wait_then(&wal, 2, || {
            wal.rewrite_with(|| Ok(vec![LogRecord::Checkpoint]))
                .unwrap();
        }));
        assert_eq!(wal.shippable_seq(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }
}
