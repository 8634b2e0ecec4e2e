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
//!   wakes the others. N concurrent committers share one fsync instead of
//!   paying one each. The leader flushes under the append lock and syncs
//!   after releasing it, so appends — every `Begin`, `Insert` and `Delete`,
//!   and every replication read — never wait out a device flush; a commit
//!   appended while a sync is in flight waits for the next leader's, and a
//!   sync publishes as durable only the records flushed before it began.
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
//! The stream is read back out of the log's own frames: positional reads of
//! the log file, or slices of an in-memory log's one buffer. The log keeps
//! no decoded record; its only per-record state in RAM is where each frame
//! starts, 4 bytes a record (at most 8 with the index's spare capacity) until
//! the next checkpoint rewrite. [`Wal::read_replication_frames`] ships the
//! frame payloads as they are; [`Wal::read_replication_batch`] decodes them.
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
//!     chain: false,
//!     body: vec![1, 2, 3],
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

use std::borrow::Cow;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::error::{corrupt, StorageError, StorageResult};
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
    };

    /// Every commit pays its own flush+fsync.
    pub const SYNC_EACH: DurabilityConfig = DurabilityConfig {
        sync_on_commit: true,
        group_commit: false,
        checkpoint_every_commits: None,
        vacuum_every_commits: None,
    };

    /// Commits are durable and concurrent committers share fsyncs.
    pub const GROUP_COMMIT: DurabilityConfig = DurabilityConfig {
        sync_on_commit: true,
        group_commit: true,
        checkpoint_every_commits: None,
        vacuum_every_commits: None,
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
    ///
    /// The record is the version's body and where it went; the version's
    /// MVCC header is implied, `xmin` being `txn` and `xmax` empty. Its
    /// payload in a frame, little-endian:
    ///
    /// | bytes | field                                        |
    /// |-------|----------------------------------------------|
    /// | 1     | kind: 14 on the shared tail, 15 on a chain   |
    /// | 8     | `txn`                                        |
    /// | 4     | `table`                                      |
    /// | 4     | `row.page`                                   |
    /// | 2     | `row.slot`                                   |
    /// | rest  | `body`, up to the frame's end                |
    Insert {
        /// The writing transaction, which is also the version's `xmin`.
        txn: TxnId,
        /// The table.
        table: u32,
        /// Where the version was placed.
        row: RowId,
        /// Whether `row`'s page is on the chain of the version's label
        /// rather than the heap's shared tail (see [`crate::heap`]). Redo
        /// puts the page back on the same list. Carried in the record's kind
        /// byte, so it costs no log bytes.
        chain: bool,
        /// The version's body: its page bytes past the MVCC header
        /// ([`crate::tuple::MVCC_HEADER_LEN`] bytes; see [`crate::tuple`]).
        body: Vec<u8>,
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
    /// A label was added to the database's label dictionary
    /// ([`crate::labels`]): tuples name it by `id` from here on. Like DDL it
    /// is part of no transaction; it precedes, in log order, every record
    /// whose tuple names `id`, and a checkpoint image lists every label
    /// after the DDL and before the rows. Its payload in a frame,
    /// little-endian:
    ///
    /// | bytes     | field                      |
    /// |-----------|----------------------------|
    /// | 1         | kind: 16                   |
    /// | 4         | `id` (never 0, the empty label) |
    /// | 4         | tag count                  |
    /// | 8 per tag | the tag ids, sorted        |
    Label {
        /// The label's id.
        id: u32,
        /// The label's tag ids.
        tags: Vec<u64>,
    },
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

/// What [`Wal::read_log`] found in a log file, and what
/// [`Wal::open_existing`] recovered.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecovery {
    /// The records that parsed cleanly, in log order.
    pub records: Vec<LogRecord>,
    /// Byte offset of the end of the last clean record.
    pub clean_bytes: u64,
    /// Bytes past `clean_bytes` in a frame that is incomplete or fails its
    /// checksum, and after it (a torn tail from a crash mid-append). Zero
    /// for a clean log.
    pub torn_bytes: u64,
}

/// Where the log keeps its frames.
enum Sink {
    /// An in-memory log's frames, back to back: this buffer is the log.
    Memory(Vec<u8>),
    File {
        w: BufWriter<File>,
        /// Records appended to the file so far (monotonic, survives
        /// checkpoint rewrites).
        appended_seq: u64,
        /// A second handle on `w`'s file, which a group-commit leader syncs
        /// after releasing the append lock; swapped with `w` by a rewrite.
        sync: Arc<File>,
    },
}

impl Sink {
    fn writer(&mut self) -> &mut dyn Write {
        match self {
            Sink::Memory(buf) => buf,
            Sink::File { w, .. } => w,
        }
    }
}

/// Group-commit coordination state, protected by a std mutex so committers
/// can block on the condvar while the leader fsyncs.
struct GroupState {
    /// Highest `appended_seq` known to be on the device.
    durable_seq: u64,
    /// Whether a leader is currently flushing.
    flushing: bool,
}

/// Byte offsets of a log's frames, one per record, 4 bytes each: an offset
/// is stored relative to the latest base at or before its record, and a new
/// base starts wherever that would not fit in 32 bits (once per 4 GiB of
/// log).
#[derive(Default)]
struct Offsets {
    /// `(first record, byte offset)` of each base, in record order.
    bases: Vec<(usize, u64)>,
    relative: Vec<u32>,
}

impl Offsets {
    fn push(&mut self, at: u64) {
        let relative = match self.bases.last() {
            Some(&(_, base)) => u32::try_from(at - base).ok(),
            None => None,
        };
        let relative = relative.unwrap_or_else(|| {
            self.bases.push((self.relative.len(), at));
            0
        });
        self.relative.push(relative);
    }

    fn get(&self, i: usize) -> u64 {
        let base = self.bases.partition_point(|&(first, _)| first <= i) - 1;
        self.bases[base].1 + u64::from(self.relative[i])
    }

    fn len(&self) -> usize {
        self.relative.len()
    }
}

/// Where each record's frame starts, with replication sequence numbering:
/// the log's only per-record state in RAM.
///
/// Record `base_seq + i` is frame `i` of the log's current bytes (the file,
/// or the in-memory sink's buffer). The numbering is monotonic across
/// checkpoint rewrites (the image's records continue where the replaced
/// history stopped), so a replica's applied-seq watermark stays meaningful
/// across primary checkpoints.
struct FrameIndex {
    offsets: Offsets,
    /// Byte offset one past the last frame.
    end: u64,
    /// Sequence number of frame 0. Starts at 1; jumps forward on every
    /// checkpoint rewrite.
    base_seq: u64,
    /// How many frames at the head of the log form a checkpoint image
    /// (0 when the log has never been rewritten in this incarnation).
    image_len: usize,
    /// The log file, for positional reads of its frames (`None` in memory).
    /// A rewrite replaces it along with the offsets; a reader that cloned
    /// the old handle reads the frames it looked up from the old file, which
    /// nothing writes to any more.
    file: Option<Arc<File>>,
}

impl FrameIndex {
    fn new(offsets: Offsets, end: u64, file: Option<Arc<File>>) -> Self {
        FrameIndex {
            offsets,
            end,
            base_seq: 1,
            image_len: 0,
            file,
        }
    }

    /// Indexes a frame of `frame_len` bytes written at the end of the log.
    fn push(&mut self, frame_len: u64) {
        self.offsets.push(self.end);
        self.end += frame_len;
    }

    fn len(&self) -> usize {
        self.offsets.len()
    }

    /// Where frame `i` starts; `end` for `i == len()`.
    fn offset(&self, i: usize) -> u64 {
        if i == self.len() {
            self.end
        } else {
            self.offsets.get(i)
        }
    }
}

/// One batch of the replication stream, served by
/// [`Wal::read_replication_batch`] (decoded records) and
/// [`Wal::read_replication_frames`] (frame payloads, `R = Vec<u8>`).
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicationBatch<R = LogRecord> {
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
    pub records: Vec<R>,
}

/// The write-ahead log.
pub struct Wal {
    index: Mutex<FrameIndex>,
    sink: Mutex<Sink>,
    path: Option<PathBuf>,
    bytes_written: AtomicU64,
    sync_on_commit: bool,
    group_commit: bool,
    group: StdMutex<GroupState>,
    group_cvar: Condvar,
    /// Threads parked in [`Wal::wait_shippable`]; signalled through
    /// `ship_cvar` whenever the shippable horizon may have moved. Signallers
    /// take this lock only after releasing `index` and `group`, so a waiter
    /// may read the horizon (which takes those two) while holding it.
    ship_waiters: StdMutex<usize>,
    ship_cvar: Condvar,
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
    /// Where a test parks the next sync, outside the append lock: the sync
    /// signals the first sender on arrival and waits on the receiver.
    #[cfg(test)]
    park_next_sync: StdMutex<Option<(std::sync::mpsc::Sender<()>, std::sync::mpsc::Receiver<()>)>>,
    /// While set, the sink refuses every write, as a full device would.
    #[cfg(test)]
    pub(crate) refuse_writes: std::sync::atomic::AtomicBool,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("records", &self.len())
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
        index: FrameIndex,
        recovered: &[LogRecord],
    ) -> Self {
        // Records loaded from an existing file are durable by definition.
        let durable = recovered.len() as u64;
        // A log that has lived through promotions carries Epoch records;
        // the last one names the generation this node last served as.
        let generation = recovered
            .iter()
            .rev()
            .find_map(|r| match r {
                LogRecord::Epoch { generation } => Some(*generation),
                _ => None,
            })
            .unwrap_or(1);
        Wal {
            bytes_written: AtomicU64::new(index.end),
            index: Mutex::new(index),
            sink: Mutex::new(sink),
            path,
            sync_on_commit: durability.sync_on_commit,
            group_commit: durability.group_commit,
            group: StdMutex::new(GroupState {
                durable_seq: durable,
                flushing: false,
            }),
            group_cvar: Condvar::new(),
            ship_waiters: StdMutex::new(0),
            ship_cvar: Condvar::new(),
            fsyncs: AtomicU64::new(0),
            commits_batched: AtomicU64::new(0),
            epoch: new_epoch(),
            generation: AtomicU64::new(generation),
            #[cfg(test)]
            park_next_sync: StdMutex::new(None),
            #[cfg(test)]
            refuse_writes: std::sync::atomic::AtomicBool::new(false),
        }
    }

    /// Creates an in-memory log (no file backing).
    pub fn in_memory() -> Self {
        Self::with_sink(
            Sink::Memory(Vec::new()),
            None,
            DurabilityConfig::NO_SYNC,
            FrameIndex::new(Offsets::default(), 0, None),
            &[],
        )
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
            .read(true)
            .write(true)
            .truncate(true)
            .open(path)?;
        // Make the directory entry durable too, so the log file itself
        // survives a power failure that follows the first durable commit.
        fsync_dir(path)?;
        let index = FrameIndex::new(Offsets::default(), 0, Some(Arc::new(file.try_clone()?)));
        Ok(Self::with_sink(
            Sink::File {
                sync: Arc::new(file.try_clone()?),
                w: BufWriter::new(file),
                appended_seq: 0,
            },
            Some(path.to_path_buf()),
            durability,
            index,
            &[],
        ))
    }

    /// Opens an existing file-backed log for recovery: parses every record,
    /// truncates a torn tail (warning on stderr rather than failing the whole
    /// recovery), and returns the log positioned to append after the last
    /// clean record, with the parsed records for replay. The log itself
    /// keeps only their frames' offsets: drop the records once replayed.
    ///
    /// A missing file is treated as an empty log, so first-boot and restart
    /// go through the same path.
    pub fn open_existing(
        path: &Path,
        durability: DurabilityConfig,
    ) -> StorageResult<(Self, WalRecovery)> {
        let (recovery, offsets) = match Self::scan_log(path) {
            Ok(r) => r,
            Err(StorageError::Io { .. }) if !path.exists() => (
                WalRecovery {
                    records: Vec::new(),
                    clean_bytes: 0,
                    torn_bytes: 0,
                },
                Offsets::default(),
            ),
            Err(e) => return Err(e),
        };
        let mut file = OpenOptions::new()
            .create(true)
            .read(true)
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
        file.seek(SeekFrom::Start(recovery.clean_bytes))?;
        let index = FrameIndex::new(
            offsets,
            recovery.clean_bytes,
            Some(Arc::new(file.try_clone()?)),
        );
        let wal = Self::with_sink(
            Sink::File {
                sync: Arc::new(file.try_clone()?),
                w: BufWriter::new(file),
                appended_seq: recovery.records.len() as u64,
            },
            Some(path.to_path_buf()),
            durability,
            index,
            &recovery.records,
        );
        Ok((wal, recovery))
    }

    /// Appends a record. For `Commit` records the call also enforces the
    /// configured durability level: with `sync_on_commit` it returns only
    /// once the commit record is on the device, either via its own fsync or
    /// via a group-commit leader's.
    pub fn append(&self, record: LogRecord) -> StorageResult<()> {
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
        {
            // The frame is indexed while the sink lock is still held, so
            // the index always describes the sink's bytes (lock order
            // sink → index, same as rewrite_with and the read path).
            let mut sink = self.sink.lock();
            #[cfg(test)]
            if self.refuse_writes.load(Ordering::Relaxed) {
                return Err(StorageError::Io {
                    detail: "the sink refuses writes".into(),
                });
            }
            write_frame(sink.writer(), &encoded)?;
            if let Sink::File {
                w, appended_seq, ..
            } = &mut *sink
            {
                *appended_seq += 1;
                my_seq = *appended_seq;
                if is_commit && self.sync_on_commit && !self.group_commit {
                    // Sync-per-commit: pay the flush while holding the sink
                    // lock, fully serializing committers.
                    w.flush()?;
                    w.get_ref().sync_data()?;
                    self.fsyncs.fetch_add(1, Ordering::Relaxed);
                    synced_seq = my_seq;
                }
            }
            self.index.lock().push(encoded.len() as u64 + 8);
        }
        if synced_seq > 0 {
            self.note_durable(synced_seq);
        } else if !self.capped() {
            // Without a durability cap the record ships as soon as it is
            // indexed.
            self.signal_shippable();
        }
        if is_commit && self.sync_on_commit && self.group_commit && my_seq > 0 {
            self.group_commit_wait(my_seq)?;
        }
        Ok(())
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
    /// horizon. Called with neither `index` nor `group` held.
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

    /// Flushes the buffered writer under the append lock, then fsyncs the
    /// file after releasing it, returning the highest sequence number the
    /// flush covered: only records flushed before the sync began are
    /// published as durable. Appends go on meanwhile.
    ///
    /// A rewrite swaps the file only under the engine's write gate held
    /// exclusively, and every committer holds the gate shared until its
    /// group-commit wait returns, so a leader's sync never outlives the
    /// file it flushed to.
    fn flush_and_sync(&self) -> StorageResult<u64> {
        let (covered, file) = {
            let mut sink = self.sink.lock();
            let Sink::File {
                w,
                appended_seq,
                sync,
            } = &mut *sink
            else {
                return Ok(0);
            };
            w.flush()?;
            (*appended_seq, Arc::clone(sync))
        };
        #[cfg(test)]
        if let Some((arrived, release)) = self.park_next_sync.lock().expect("park lock").take() {
            arrived.send(()).expect("the test waits for the sync");
            release.recv().expect("the test releases the sync");
        }
        file.sync_data()?;
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        if covered > 0 {
            self.note_durable(covered);
        }
        Ok(covered)
    }

    /// Atomically replaces the log contents with the records `image` emits,
    /// holding the append lock throughout so no record can slip in between
    /// building the image and installing it. Used by checkpointing: `image`
    /// serializes a consistent snapshot of the engine, record by record
    /// through the emitter it is given, and the replaced log makes replay
    /// O(live data + delta) instead of O(history). Each record is framed as
    /// it is emitted, so the image is never held decoded.
    ///
    /// If `image` fails, the log is left as it was. The replacement is
    /// crash-atomic for file-backed logs: the image is written to a
    /// temporary file, fsynced, then renamed over the log.
    pub fn rewrite_with(
        &self,
        image: impl FnOnce(&mut dyn FnMut(LogRecord) -> StorageResult<()>) -> StorageResult<()>,
    ) -> StorageResult<usize> {
        let mut sink = self.sink.lock();
        let mut fresh = FrameIndex::new(Offsets::default(), 0, None);
        let write_image = |out: &mut dyn Write| {
            image(&mut |record| {
                let encoded = Self::encode(&record);
                write_frame(out, &encoded)?;
                fresh.push(encoded.len() as u64 + 8);
                Ok(())
            })
        };
        let count = match &mut *sink {
            Sink::Memory(buf) => {
                let mut bytes = Vec::new();
                write_image(&mut bytes)?;
                *buf = bytes;
                let count = self.install(fresh);
                self.signal_shippable();
                count
            }
            Sink::File {
                w,
                appended_seq,
                sync,
            } => {
                let path = self.path.as_ref().expect("file sink always has a path");
                // Make sure nothing buffered is lost if the rename fails.
                w.flush()?;
                let tmp = path.with_extension("log.tmp");
                let written = File::create(&tmp)
                    .map_err(StorageError::from)
                    .and_then(|f| {
                        let mut tw = BufWriter::new(f);
                        write_image(&mut tw)?;
                        tw.flush()?;
                        tw.get_ref().sync_data()?;
                        Ok(())
                    });
                if let Err(e) = written {
                    let _ = std::fs::remove_file(&tmp);
                    return Err(e);
                }
                std::fs::rename(&tmp, path)?;
                // The rename is only durable once the directory entry is:
                // without this, a power failure could resurrect the old
                // inode and lose every post-checkpoint commit.
                fsync_dir(path)?;
                self.fsyncs.fetch_add(1, Ordering::Relaxed);
                let mut file = OpenOptions::new().read(true).write(true).open(path)?;
                file.seek(SeekFrom::End(0))?;
                fresh.file = Some(Arc::new(file.try_clone()?));
                let fresh_sync = Arc::new(file.try_clone()?);
                // appended_seq stays monotonic across rewrites so group-commit
                // waiters from before the rewrite remain satisfied.
                *appended_seq += fresh.len() as u64;
                let durable_through = *appended_seq;
                *w = BufWriter::new(file);
                *sync = fresh_sync;
                self.bytes_written.fetch_add(fresh.end, Ordering::Relaxed);
                let count = self.install(fresh);
                // The image was fsynced and renamed: everything it contains
                // is durable, so the replication stream may serve it.
                self.note_durable(durable_through);
                count
            }
        };
        Ok(count)
    }

    /// Makes `fresh`, the index of a just-written checkpoint image, the
    /// log's index, and returns the image's record count. The image's
    /// records continue the sequence numbering where the replaced history
    /// stopped: replicas that were caught up keep their watermarks, replicas
    /// that were behind are told to re-bootstrap.
    fn install(&self, mut fresh: FrameIndex) -> usize {
        let mut index = self.index.lock();
        fresh.base_seq = index.base_seq + index.len() as u64;
        fresh.image_len = fresh.len();
        *index = fresh;
        index.image_len
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
        let index = self.index.lock();
        index.base_seq + index.len() as u64 - 1
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
    ///
    /// This decodes [`Wal::read_replication_frames`]'s batch.
    ///
    /// # Panics
    ///
    /// If the log cannot read back or decode its own frames (an I/O error
    /// on the log file, or a file changed behind the log's back).
    pub fn read_replication_batch(&self, from_seq: u64, max: usize) -> ReplicationBatch {
        let frames = self
            .read_replication_frames(from_seq, max)
            .expect("the log reads back its own frames");
        ReplicationBatch {
            reset: frames.reset,
            first_seq: frames.first_seq,
            end_seq: frames.end_seq,
            records: frames
                .records
                .iter()
                .map(|payload| Self::decode(payload).expect("the log decodes its own frames"))
                .collect(),
        }
    }

    /// [`Wal::read_replication_batch`] without the decoding: the records
    /// are the frame payloads exactly as the log holds them, which are the
    /// bytes [`Wal::encode_record`] produces. This is what a primary ships.
    ///
    /// A log capped at its last fsync reads from the log file alone; any
    /// other log reads under the append lock, because what it ships may
    /// still sit in the file sink's buffer (flushed first) or is the
    /// in-memory sink's buffer.
    pub fn read_replication_frames(
        &self,
        from_seq: u64,
        max: usize,
    ) -> StorageResult<ReplicationBatch<Vec<u8>>> {
        let mut sink = (!self.capped()).then(|| self.sink.lock());
        if let Some(Sink::File { w, .. }) = sink.as_deref_mut() {
            w.flush()?;
        }
        let index = self.index.lock();
        let base = index.base_seq;
        let next = base + index.len() as u64;
        let end = self.shippable(next - 1);
        let from = from_seq.max(1);
        let (reset, start) = if from < base || from > next {
            // The position was compacted away (or never existed here):
            // bootstrap from the image at the head of the log.
            (true, base)
        } else if from == base && base > 1 && index.image_len > 0 {
            // Caught up through base-1: the image at [base, base+image_len)
            // re-describes state the replica already has — skip it. Only
            // valid when there *was* something before the image: on a log
            // re-anchored at seq 1 (promotion), "applied through 0" means
            // the replica has nothing of this epoch and needs the image.
            (false, base + index.image_len as u64)
        } else {
            (false, from)
        };
        let lo = (start - base) as usize;
        let hi = index
            .len()
            .min(lo.saturating_add(max))
            .min((end + 1).saturating_sub(base) as usize)
            .max(lo);
        let (at, to) = (index.offset(lo), index.offset(hi));
        let file = index.file.clone();
        drop(index);
        let bytes = match sink.as_deref() {
            Some(Sink::Memory(buf)) => Cow::Borrowed(&buf[at as usize..to as usize]),
            _ => {
                let file = file.expect("a file log keeps a read handle");
                let mut buf = vec![0; (to - at) as usize];
                file.read_exact_at(&mut buf, at)?;
                Cow::Owned(buf)
            }
        };
        Ok(ReplicationBatch {
            reset,
            first_seq: start,
            end_seq: end,
            records: split_frames(&bytes, hi - lo)?,
        })
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
                chain,
                body,
            } => {
                out.push(if *chain { 15 } else { 14 });
                out.extend_from_slice(&txn.0.to_le_bytes());
                out.extend_from_slice(&table.to_le_bytes());
                out.extend_from_slice(&row.page.to_le_bytes());
                out.extend_from_slice(&row.slot.to_le_bytes());
                out.extend_from_slice(body);
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
            LogRecord::Label { id, tags } => {
                out.push(16);
                out.extend_from_slice(&id.to_le_bytes());
                out.extend_from_slice(&(tags.len() as u32).to_le_bytes());
                for tag in tags {
                    out.extend_from_slice(&tag.to_le_bytes());
                }
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
            14 | 15 => Some(LogRecord::Insert {
                txn: TxnId(u64_at(1)?),
                table: u32_at(9)?,
                row: RowId {
                    page: u32_at(13)?,
                    slot: u16_at(17)?,
                },
                chain: kind == 15,
                body: buf.get(19..)?.to_vec(),
            }),
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
            16 => {
                let count = u32_at(5)? as usize;
                let words = buf.get(9..9 + count.checked_mul(8)?)?;
                Some(LogRecord::Label {
                    id: u32_at(1)?,
                    tags: words
                        .chunks_exact(8)
                        .map(|w| u64::from_le_bytes(w.try_into().unwrap()))
                        .collect(),
                })
            }
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
    /// Parsing stops at the first frame that is incomplete or fails its
    /// checksum; everything from that point on is reported as the torn
    /// tail. This is the standard end-of-log rule (sequential appends mean
    /// nothing valid can follow the first bad frame); genuine mid-log media
    /// corruption is indistinguishable from a torn tail without a backup and
    /// is handled the same way, with the loss surfaced by
    /// [`WalRecovery::torn_bytes`].
    ///
    /// A frame that passes its checksum but does not decode was written
    /// whole: it is a format or decoder mismatch (a log of an older record
    /// layout, say), not a torn tail. It is [`StorageError::Corruption`]
    /// naming the frame's offset, so no committed record after it is cut
    /// off.
    pub fn read_log(path: &Path) -> StorageResult<WalRecovery> {
        Ok(Self::scan_log(path)?.0)
    }

    /// [`Wal::read_log`], with the offset of every clean record's frame.
    fn scan_log(path: &Path) -> StorageResult<(WalRecovery, Offsets)> {
        let mut file = File::open(path)?;
        let mut data = Vec::new();
        file.read_to_end(&mut data)?;
        let mut out = Vec::new();
        let mut offsets = Offsets::default();
        let mut pos = 0usize;
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
            let Some(record) = Self::decode(payload) else {
                let at = path.display();
                return Err(corrupt(&format!(
                    "the log frame at offset {pos} of {at} passes its checksum but is no record"
                )));
            };
            out.push(record);
            offsets.push(pos as u64);
            pos += 8 + len;
        }
        let recovery = WalRecovery {
            records: out,
            clean_bytes: pos as u64,
            torn_bytes: (data.len() - pos) as u64,
        };
        Ok((recovery, offsets))
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

    /// Number of records in the current log.
    pub fn len(&self) -> usize {
        self.index.lock().len()
    }

    /// Returns `true` if nothing has been logged.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Heap bytes the log holds per record it indexes.
    #[cfg(test)]
    pub(crate) fn index_bytes_per_record(&self) -> f64 {
        let index = self.index.lock();
        let offsets = &index.offsets;
        let bytes = offsets.relative.capacity() * std::mem::size_of::<u32>()
            + offsets.bases.capacity() * std::mem::size_of::<(usize, u64)>();
        bytes as f64 / index.len().max(1) as f64
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

/// Writes one checksummed frame: `len u32 | fnv1a u32 | payload`, the
/// checksum being [`frame_checksum`] of the payload.
fn write_frame(w: &mut dyn Write, payload: &[u8]) -> StorageResult<()> {
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(&frame_checksum(payload).to_le_bytes())?;
    w.write_all(payload)?;
    Ok(())
}

/// The payloads of the `count` frames that `bytes` holds back to back. The
/// frames were indexed when written, so anything else is corruption.
fn split_frames(mut bytes: &[u8], count: usize) -> StorageResult<Vec<Vec<u8>>> {
    let mut payloads = Vec::with_capacity(count);
    while let Some(header) = bytes.get(..8) {
        let len = u32::from_le_bytes(header[..4].try_into().unwrap()) as usize;
        let payload = bytes
            .get(8..8 + len)
            .ok_or_else(|| corrupt("a log frame runs past its indexed end"))?;
        payloads.push(payload.to_vec());
        bytes = &bytes[8 + len..];
    }
    if !bytes.is_empty() || payloads.len() != count {
        return Err(corrupt("the log's frames do not match its index"));
    }
    Ok(payloads)
}

/// FNV-1a over a frame's payload — cheap, and plenty to reject torn or
/// bit-flipped records during replay. The wire protocol checksums its frames
/// with the same function.
pub fn frame_checksum(payload: &[u8]) -> u32 {
    let mut h: u32 = 0x811C_9DC5;
    for &b in payload {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// fsyncs the directory containing `path`, making renames/creates durable.
/// A path with no directory part is in the working directory.
fn fsync_dir(path: &Path) -> StorageResult<()> {
    let dir = match path.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => parent,
        _ => Path::new("."),
    };
    File::open(dir)?.sync_all()?;
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
                chain: false,
                body: vec![9, 9, 9, 9],
            },
            LogRecord::Insert {
                txn: TxnId(5),
                table: 9,
                row: RowId { page: 3, slot: 0 },
                chain: true,
                body: vec![8, 8],
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
            LogRecord::Label {
                id: 1,
                tags: vec![4, 9],
            },
            LogRecord::Label {
                id: 2,
                tags: (1..=300).collect(),
            },
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
            chain: false,
            body: vec![1, 2, 3],
        })
        .unwrap();
        wal.append(LogRecord::Commit { txn: TxnId(1) }).unwrap();
        assert_eq!(wal.len(), 3);
        assert!(wal.bytes_written() > 0);
        let records = wal.read_replication_batch(1, usize::MAX).records;
        assert!(matches!(records[2], LogRecord::Commit { .. }));
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
            chain: false,
            body: vec![0; 100],
        })
        .unwrap();
        let small = wal.bytes_written();
        wal.append(LogRecord::Insert {
            txn: TxnId(1),
            table: 1,
            row: RowId { page: 0, slot: 1 },
            chain: false,
            body: vec![0; 200],
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
        assert_eq!(recovery.records, records);
        assert_eq!(recovery.torn_bytes, 6);
        assert_eq!(wal.read_replication_batch(1, usize::MAX).records, records);
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
        // Flip the final record's last byte.
        let clean = std::fs::read(&path).unwrap();
        let mut data = clean.clone();
        let last = data.len() - 1;
        data[last] = 0xFF;
        std::fs::write(&path, &data).unwrap();
        let parsed = Wal::read_log(&path).unwrap();
        assert_eq!(parsed.records.len(), all_record_kinds().len() - 1);
        assert!(parsed.torn_bytes > 0);
        // Turning either Insert kind into the other fails the checksum too:
        // a page never changes lists by a flipped kind byte. Nor does a
        // label definition turn into a row, or a row into one.
        let records = all_record_kinds();
        let mut at = 0;
        for (i, r) in records.iter().enumerate() {
            let flipped = match r {
                LogRecord::Insert { chain: true, .. } => Some(14),
                LogRecord::Insert { chain: false, .. } => Some(16),
                LogRecord::Label { .. } => Some(15),
                _ => None,
            };
            if let Some(kind) = flipped {
                let mut data = clean.clone();
                data[at + 8] = kind;
                std::fs::write(&path, &data).unwrap();
                assert_eq!(Wal::read_log(&path).unwrap().records, records[..i]);
            }
            at += 8 + Wal::encode_record(r).len();
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_whole_frame_that_does_not_decode_is_refused_not_truncated() {
        let dir = temp_dir("undecodable");
        let path = dir.join("wal.log");
        let wal = Wal::file_backed(&path, true).unwrap();
        wal.append(LogRecord::Begin { txn: TxnId(1) }).unwrap();
        wal.flush().unwrap();
        drop(wal);
        // A frame whose checksum holds but whose kind no record has (the
        // kind of an insert in an older layout), then a committed record.
        let good_len = std::fs::metadata(&path).unwrap().len();
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        write_frame(&mut f, &[4, 1, 0, 0, 0, 0, 0, 0, 0]).unwrap();
        write_frame(
            &mut f,
            &Wal::encode_record(&LogRecord::Commit { txn: TxnId(1) }),
        )
        .unwrap();
        drop(f);
        let len = std::fs::metadata(&path).unwrap().len();
        let err = Wal::open_existing(&path, DurabilityConfig::SYNC_EACH).unwrap_err();
        assert!(
            matches!(&err, StorageError::Corruption { detail } if detail.contains(&format!("offset {good_len}"))),
            "{err}"
        );
        assert!(Wal::read_log(&path).is_err());
        // Nothing was cut: the Commit after the frame is still in the file.
        assert_eq!(std::fs::metadata(&path).unwrap().len(), len);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fsync_dir_syncs_the_working_directory_for_a_bare_file_name() {
        // `Path::new("wal.log").parent()` is `Some("")`, which names no
        // directory to open.
        fsync_dir(Path::new("wal.log")).unwrap();
        let dir = temp_dir("fsync-dir");
        fsync_dir(&dir.join("wal.log")).unwrap();
        // A directory that cannot be opened is an error, not a skipped sync.
        assert!(fsync_dir(&dir.join("missing").join("wal.log")).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_opens_as_empty_log() {
        let dir = temp_dir("missing");
        let path = dir.join("wal.log");
        let (wal, recovery) = Wal::open_existing(&path, DurabilityConfig::GROUP_COMMIT).unwrap();
        assert!(recovery.records.is_empty());
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

    /// The frame checksum is FNV-1a: pinned on a fixed payload, so neither
    /// the log's bytes nor the wire's can change under it.
    #[test]
    fn frame_checksum_is_fnv1a() {
        assert_eq!(frame_checksum(b""), 0x811C_9DC5);
        assert_eq!(frame_checksum(b"a"), 0xE40C_292C);
        assert_eq!(frame_checksum(b"ifdb frame"), 0x0609_EEC1);
    }

    /// A group-commit leader syncs outside the append lock: while its sync
    /// is parked, another thread's appends go through, and that thread's
    /// commit returns only once a sync of its own covers it.
    #[test]
    fn appends_go_on_while_a_commit_syncs() {
        use std::sync::atomic::AtomicBool;
        use std::sync::mpsc::channel;
        use std::time::Duration;

        let dir = temp_dir("sync-outside-lock");
        let path = dir.join("wal.log");
        let wal = Wal::create(&path, DurabilityConfig::GROUP_COMMIT).unwrap();
        let (arrived_tx, arrived) = channel();
        let (release, release_rx) = channel();
        *wal.park_next_sync.lock().unwrap() = Some((arrived_tx, release_rx));
        let committed_b = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let a = scope.spawn(|| {
                wal.append(LogRecord::Begin { txn: TxnId(1) }).unwrap();
                wal.append(LogRecord::Commit { txn: TxnId(1) }).unwrap();
            });
            arrived.recv().unwrap();
            // A's sync is parked, with the append lock released.
            let (appended_tx, appended) = channel();
            let (wal, committed_b) = (&wal, &committed_b);
            let b = scope.spawn(move || {
                wal.append(LogRecord::Begin { txn: TxnId(2) }).unwrap();
                appended_tx.send(()).unwrap();
                wal.append(LogRecord::Commit { txn: TxnId(2) }).unwrap();
                committed_b.store(true, Ordering::SeqCst);
            });
            let in_time = appended.recv_timeout(Duration::from_secs(5)).is_ok();
            if !in_time {
                // Let A's sync finish, so that the scope can end.
                release.send(()).unwrap();
            }
            assert!(in_time, "an append waited out another thread's sync");
            std::thread::sleep(Duration::from_millis(100));
            assert!(
                !committed_b.load(Ordering::SeqCst),
                "a commit returned before any sync covered it"
            );
            assert_eq!(wal.fsyncs(), 0);
            release.send(()).unwrap();
            a.join().unwrap();
            b.join().unwrap();
        });
        // A's sync covered A's records only; B's commit led a sync of its own.
        assert_eq!(wal.fsyncs(), 2);
        assert_eq!(wal.commits_batched(), 0);
        let parsed = Wal::read_log(&path).unwrap();
        assert_eq!(parsed.records.len(), 4);
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
        let n = wal
            .rewrite_with(|emit| image.iter().cloned().try_for_each(emit))
            .unwrap();
        assert_eq!(n, 2);
        let batch = wal.read_replication_batch(1, usize::MAX);
        assert!(batch.reset);
        assert_eq!(batch.records, image);
        // An image that fails leaves the log, and its file, as they were.
        let failed = wal.rewrite_with(|emit| {
            emit(LogRecord::Checkpoint)?;
            Err(StorageError::Io {
                detail: "disk full".into(),
            })
        });
        assert!(failed.is_err());
        assert_eq!(wal.read_replication_batch(1, usize::MAX), batch);
        assert!(!path.with_extension("log.tmp").exists());
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

    #[test]
    fn a_file_log_keeps_at_most_8_bytes_of_ram_per_record() {
        let dir = temp_dir("footprint");
        let wal = Wal::create(&dir.join("wal.log"), DurabilityConfig::NO_SYNC).unwrap();
        let n = 100_000u64;
        for i in 0..n {
            wal.append(LogRecord::Insert {
                txn: TxnId(i),
                table: 1,
                row: RowId {
                    page: (i / 64) as u32,
                    slot: (i % 64) as u16,
                },
                chain: i % 2 == 1,
                body: vec![i as u8; 40],
            })
            .unwrap();
        }
        let per_record = wal.index_bytes_per_record();
        assert!(per_record <= 8.0, "{per_record} bytes of RAM per record");
        let batch = wal.read_replication_batch(1, usize::MAX);
        assert_eq!((batch.reset, batch.first_seq, batch.end_seq), (false, 1, n));
        assert_eq!(batch.records.len(), n as usize);
        for (i, r) in batch.records.iter().enumerate() {
            assert!(matches!(r, LogRecord::Insert { txn, .. } if txn.0 == i as u64));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn offsets_past_4_gib_start_a_new_base() {
        let at = [
            0,
            10,
            u32::MAX as u64,
            u32::MAX as u64 + 1,
            5 << 32,
            (5 << 32) + 7,
        ];
        let mut offsets = Offsets::default();
        for a in at {
            offsets.push(a);
        }
        let read: Vec<u64> = (0..at.len()).map(|i| offsets.get(i)).collect();
        assert_eq!(read, at);
        assert_eq!(offsets.bases.len(), 3);
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
            wal.rewrite_with(|emit| emit(LogRecord::Checkpoint))
                .unwrap();
        }));
        assert_eq!(wal.shippable_seq(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }
}
