//! The storage engine facade: tables, transactions, indexes, WAL, vacuum.
//!
//! [`StorageEngine`] is what the `ifdb` crate (and, transitively, the SQL
//! front end, application platform and benchmarks) builds on. It corresponds
//! to the unmodified parts of PostgreSQL in the paper's architecture: it has
//! no notion of labels beyond storing them in tuple headers — the label
//! *semantics* (Query by Label, Write Rule, polyinstantiation, the Foreign
//! Key Rule) are implemented by the layer above.

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};

use crate::audit::{AuditChain, AuditChainRecord};
use crate::buffer::BufferPool;
use crate::error::{StorageError, StorageResult};
use crate::heap::{RowId, TableHeap};
use crate::index::{IndexKey, OrderedIndex};
use crate::mvcc::{Snapshot, TransactionManager, TxnId, TxnStatus, BOOTSTRAP_TXN};
use crate::schema::TableSchema;
use crate::stats::EngineStats;
use crate::store::{FilePageStore, MemPageStore, PageStore};
use crate::tuple::{TupleHeader, TupleRef, TupleVersion};
use crate::value::Datum;
use crate::wal::{DurabilityConfig, LogRecord, Wal};

/// Identifier of a table within the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TableId(pub u32);

/// Where tables keep their pages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageKind {
    /// All pages in memory; the buffer pool is effectively a formality.
    InMemory,
    /// Pages live in heap files under the given directory and are cached by a
    /// buffer pool of `buffer_pages` pages. Used for the disk-bound
    /// configuration of Figure 6.
    OnDisk {
        /// Directory for heap files and the WAL.
        dir: PathBuf,
        /// Buffer pool capacity in pages.
        buffer_pages: usize,
    },
}

/// An index registered on a table.
struct IndexEntry {
    name: String,
    columns: Vec<usize>,
    index: OrderedIndex,
}

/// A table: schema, heap, and secondary indexes.
pub struct Table {
    id: TableId,
    schema: TableSchema,
    heap: TableHeap,
    indexes: RwLock<Vec<IndexEntry>>,
}

impl Table {
    /// The table's id.
    pub fn id(&self) -> TableId {
        self.id
    }

    /// The table's schema.
    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    /// The underlying heap (exposed for statistics and tests).
    pub fn heap(&self) -> &TableHeap {
        &self.heap
    }

    fn index_key(&self, columns: &[usize], values: &[Datum]) -> IndexKey {
        columns.iter().map(|c| values[*c].clone()).collect()
    }
}

/// The storage engine.
pub struct StorageEngine {
    kind: StorageKind,
    durability: DurabilityConfig,
    buffer: Arc<BufferPool>,
    txns: TransactionManager,
    wal: Wal,
    tables: RwLock<HashMap<TableId, Arc<Table>>>,
    by_name: RwLock<HashMap<String, TableId>>,
    stores: RwLock<HashMap<TableId, Arc<dyn PageStore>>>,
    next_table: AtomicU64,
    tuples_inserted: AtomicU64,
    tuples_deleted: AtomicU64,
    tuples_scanned: AtomicU64,
    full_table_scans: AtomicU64,
    index_point_lookups: AtomicU64,
    index_range_scans: AtomicU64,
    label_checks: AtomicU64,
    label_page_checks: AtomicU64,
    recovery_replayed_records: AtomicU64,
    checkpoints: AtomicU64,
    commits_since_checkpoint: AtomicU64,
    /// Deferred-checkpoint coordination ([`StorageEngine::checkpoint_soon`]):
    /// `true` when a checkpoint was requested while transactions were still
    /// active. While set, [`StorageEngine::begin`] briefly quiesces admission
    /// and the transaction that drains the engine performs the checkpoint.
    checkpoint_pending: StdMutex<bool>,
    checkpoint_cvar: Condvar,
    checkpoints_deferred: AtomicU64,
    vacuums: AtomicU64,
    commits_since_vacuum: AtomicU64,
    replica_records_applied: AtomicU64,
    /// The tamper-evident audit chain ([`crate::audit`]): every link is also
    /// a [`LogRecord::Audit`] in the WAL, so the chain is durable, survives
    /// checkpoint compaction (images re-log it) and ships to replicas.
    ///
    /// Lock order: the chain lock is taken *before* the log's append lock
    /// ([`StorageEngine::append_audit`] holds it across the WAL append so
    /// chain order always matches log order), and checkpoints take it before
    /// `rewrite_with` for the same reason. Never acquire it the other way.
    audit: Mutex<AuditChain>,
}

impl std::fmt::Debug for StorageEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StorageEngine")
            .field("kind", &self.kind)
            .field("tables", &self.tables.read().len())
            .finish()
    }
}

impl StorageEngine {
    /// Creates an in-memory engine with a large buffer pool.
    pub fn in_memory() -> Self {
        Self::with_kind(StorageKind::InMemory).expect("in-memory engine creation cannot fail")
    }

    /// Creates an engine with the given storage kind and default (no-sync)
    /// durability. An on-disk engine created this way starts from a **fresh**
    /// log — use [`StorageEngine::open`] to recover an existing directory.
    pub fn with_kind(kind: StorageKind) -> StorageResult<Self> {
        Self::with_config(kind, DurabilityConfig::default())
    }

    /// Creates an engine with the given storage kind and durability
    /// configuration. Like [`StorageEngine::with_kind`], this truncates any
    /// existing log at the target directory. Fails if the log file cannot be
    /// created — durability is this constructor's contract, so a `SYNC_EACH`
    /// or `GROUP_COMMIT` engine must never silently degrade to a
    /// memory-only log.
    pub fn with_config(kind: StorageKind, durability: DurabilityConfig) -> StorageResult<Self> {
        let (buffer, wal) = match &kind {
            StorageKind::InMemory => (BufferPool::new(1 << 20), Wal::in_memory()),
            StorageKind::OnDisk { dir, buffer_pages } => {
                std::fs::create_dir_all(dir)?;
                let wal = Wal::create(&dir.join("wal.log"), durability)?;
                (BufferPool::new(*buffer_pages), wal)
            }
        };
        Ok(Self::from_parts(kind, durability, buffer, wal))
    }

    fn from_parts(
        kind: StorageKind,
        durability: DurabilityConfig,
        buffer: Arc<BufferPool>,
        wal: Wal,
    ) -> Self {
        StorageEngine {
            kind,
            durability,
            buffer,
            txns: TransactionManager::new(),
            wal,
            tables: RwLock::new(HashMap::new()),
            by_name: RwLock::new(HashMap::new()),
            stores: RwLock::new(HashMap::new()),
            next_table: AtomicU64::new(1),
            tuples_inserted: AtomicU64::new(0),
            tuples_deleted: AtomicU64::new(0),
            tuples_scanned: AtomicU64::new(0),
            full_table_scans: AtomicU64::new(0),
            index_point_lookups: AtomicU64::new(0),
            index_range_scans: AtomicU64::new(0),
            label_checks: AtomicU64::new(0),
            label_page_checks: AtomicU64::new(0),
            recovery_replayed_records: AtomicU64::new(0),
            checkpoints: AtomicU64::new(0),
            commits_since_checkpoint: AtomicU64::new(0),
            checkpoint_pending: StdMutex::new(false),
            checkpoint_cvar: Condvar::new(),
            checkpoints_deferred: AtomicU64::new(0),
            vacuums: AtomicU64::new(0),
            commits_since_vacuum: AtomicU64::new(0),
            replica_records_applied: AtomicU64::new(0),
            audit: Mutex::new(AuditChain::new()),
        }
    }

    /// Opens (recovers) a file-backed engine from `dir`, replaying the
    /// write-ahead log into a live engine: tables and indexes are recreated
    /// from the logged DDL, committed tuple versions are re-inserted (and
    /// committed deletes re-applied), transaction-manager watermarks are
    /// restored, and in-flight transactions are dropped. A torn tail left by
    /// a crash mid-append is truncated with a warning rather than failing
    /// the recovery.
    ///
    /// A directory with no log opens as an empty engine, so first boot and
    /// restart share this path.
    ///
    /// When replay had to skip uncommitted inserts — shifting recovered rows
    /// to different heap slots than the log recorded — the log is
    /// immediately re-anchored with a checkpoint, so deletes logged after
    /// recovery stay consistent across any number of further recoveries.
    ///
    /// # Example
    ///
    /// ```
    /// use ifdb_storage::engine::{StorageEngine, StorageKind};
    /// use ifdb_storage::wal::DurabilityConfig;
    /// use ifdb_storage::{ColumnDef, DataType, Datum, TableSchema};
    ///
    /// let dir = std::env::temp_dir().join(format!("open-doc-{}", std::process::id()));
    /// // First incarnation: create a table, commit a row durably, "crash"
    /// // (drop without flushing heap pages — the log is the source of truth).
    /// {
    ///     let eng = StorageEngine::with_config(
    ///         StorageKind::OnDisk { dir: dir.clone(), buffer_pages: 64 },
    ///         DurabilityConfig::SYNC_EACH,
    ///     )
    ///     .unwrap();
    ///     let t = eng
    ///         .create_table(TableSchema::new("kv", vec![ColumnDef::new("k", DataType::Int)]))
    ///         .unwrap();
    ///     let txn = eng.begin().unwrap();
    ///     eng.insert(txn, t, vec![], vec![Datum::Int(42)]).unwrap();
    ///     eng.commit(txn).unwrap();
    /// }
    /// // Second incarnation: replay the log.
    /// let eng = StorageEngine::open(&dir, 64, DurabilityConfig::SYNC_EACH).unwrap();
    /// let t = eng.table_by_name("kv").unwrap();
    /// let snap = eng.snapshot(eng.begin().unwrap());
    /// let mut rows = 0;
    /// eng.scan_visible(&snap, t.id(), |_, v| {
    ///     assert_eq!(v.data[0], Datum::Int(42));
    ///     rows += 1;
    ///     true
    /// })
    /// .unwrap();
    /// assert_eq!(rows, 1);
    /// std::fs::remove_dir_all(&dir).ok();
    /// ```
    pub fn open(
        dir: &Path,
        buffer_pages: usize,
        durability: DurabilityConfig,
    ) -> StorageResult<Self> {
        std::fs::create_dir_all(dir)?;
        let (wal, recovery) = Wal::open_existing(&dir.join("wal.log"), durability)?;
        let engine = Self::from_parts(
            StorageKind::OnDisk {
                dir: dir.to_path_buf(),
                buffer_pages,
            },
            durability,
            BufferPool::new(buffer_pages),
            wal,
        );
        let remapped = {
            // Replay straight out of the log's record mirror (no clone):
            // nothing appends while the engine is being recovered.
            let mirror = engine.wal.records_locked();
            engine.replay(&mirror.records)?
        };
        engine
            .recovery_replayed_records
            .store(recovery.record_count as u64, Ordering::Relaxed);
        if remapped {
            // Replay skipped uncommitted inserts, so at least one recovered
            // row lives at a different heap slot than its logged id. A
            // delete logged from here on would carry the *new* id, which a
            // second recovery — replaying the old Insert records — could
            // resolve to the wrong row or not at all. Re-anchor the log to
            // the live heap while the engine is still quiescent: the
            // checkpoint image's Insert records carry the live RowIds, so
            // later Delete records are consistent across any number of
            // recoveries.
            engine.checkpoint()?;
        }
        Ok(engine)
    }

    /// Applies parsed log records to this (empty) engine: pass 1 collects the
    /// committed-transaction set and the id high-water mark; pass 2 applies
    /// DDL and the effects of committed transactions in log order, remapping
    /// logged row ids to the freshly allocated ones. Returns whether any
    /// replayed insert landed at a different row id than the log recorded —
    /// the condition under which [`StorageEngine::open`] must re-anchor the
    /// log with a checkpoint.
    fn replay(&self, records: &[LogRecord]) -> StorageResult<bool> {
        let mut committed: HashSet<TxnId> = HashSet::new();
        // 2PC participants that voted yes with no decision later in the log:
        // recovered in-doubt. Their effects are replayed (invisibly — the
        // transaction is re-registered `InProgress`) so a post-recovery
        // decide-commit makes them appear without re-reading the log.
        let mut prepared: HashMap<u64, TxnId> = HashMap::new();
        // Decisions found in the log (gid → committed?): re-registered so a
        // recovering coordinator can still ask this node what was decided.
        let mut decided: HashMap<u64, bool> = HashMap::new();
        let mut max_txn = BOOTSTRAP_TXN;
        for r in records {
            let txn = match r {
                LogRecord::Begin { txn }
                | LogRecord::Commit { txn }
                | LogRecord::Abort { txn }
                | LogRecord::Insert { txn, .. }
                | LogRecord::Delete { txn, .. }
                | LogRecord::Prepare { txn, .. }
                | LogRecord::Decide { txn, .. } => Some(*txn),
                _ => None,
            };
            if let Some(t) = txn {
                max_txn = max_txn.max(t);
            }
            match r {
                LogRecord::Commit { txn } => {
                    committed.insert(*txn);
                }
                // Abort overrides an earlier Commit: commit() logs a
                // superseding Abort when its Commit record could not be
                // made durable but may already sit in the log. (In every
                // other path Commit and Abort are mutually exclusive.)
                // It likewise supersedes a Prepare whose record hit the log
                // but could not be made durable.
                LogRecord::Abort { txn } => {
                    committed.remove(txn);
                    prepared.retain(|gid, t| {
                        if t == txn {
                            decided.insert(*gid, false);
                        }
                        t != txn
                    });
                }
                LogRecord::Prepare { txn, gid } => {
                    prepared.insert(*gid, *txn);
                }
                LogRecord::Decide { txn, commit } => {
                    prepared.retain(|gid, t| {
                        if t == txn {
                            decided.insert(*gid, *commit);
                        }
                        t != txn
                    });
                    if *commit {
                        committed.insert(*txn);
                    }
                }
                _ => {}
            }
        }
        let in_doubt: HashSet<TxnId> = prepared.values().copied().collect();
        let mut row_map: HashMap<(u32, RowId), RowId> = HashMap::new();
        let mut remapped = false;
        for r in records {
            match r {
                LogRecord::CreateTable { id, schema } => {
                    self.next_table.fetch_max(*id as u64 + 1, Ordering::SeqCst);
                    // DDL replay is idempotent: a checkpoint racing the DDL
                    // append can leave the same definition both in the
                    // image and as a trailing record, and re-installing
                    // would discard rows already replayed into the heap.
                    if self.tables.read().contains_key(&TableId(*id)) {
                        continue;
                    }
                    self.install_table(TableId(*id), schema.clone())?;
                }
                LogRecord::CreateIndex {
                    table,
                    name,
                    columns,
                } => {
                    let t = self.table(TableId(*table))?;
                    let col_idx = columns.iter().map(|c| *c as usize).collect();
                    match self.install_index(&t, name, col_idx) {
                        Ok(()) | Err(StorageError::DuplicateIndex(_)) => {}
                        Err(e) => return Err(e),
                    }
                }
                LogRecord::Insert {
                    txn,
                    table,
                    row,
                    bytes,
                } if *txn == BOOTSTRAP_TXN || committed.contains(txn) || in_doubt.contains(txn) => {
                    let t = self.table(TableId(*table))?;
                    let version = TupleVersion::decode(bytes)?;
                    let new_row = t.heap.insert(&version)?;
                    for entry in t.indexes.read().iter() {
                        let key = t.index_key(&entry.columns, &version.data);
                        entry.index.insert(key, new_row);
                    }
                    remapped |= new_row != *row;
                    row_map.insert((*table, *row), new_row);
                }
                LogRecord::Delete { txn, table, row }
                    if *txn == BOOTSTRAP_TXN
                        || committed.contains(txn)
                        || in_doubt.contains(txn) =>
                {
                    // A delete whose insert predates the log start cannot
                    // occur: every checkpoint image re-logs live rows, so the
                    // map covers everything a committed delete can touch.
                    if let Some(new_row) = row_map.get(&(*table, *row)) {
                        let t = self.table(TableId(*table))?;
                        t.heap.set_xmax(*new_row, Some(*txn))?;
                    }
                }
                LogRecord::Audit {
                    seq,
                    prev,
                    hash,
                    bytes,
                } => {
                    // The chain is rebuilt in log order; a link that does not
                    // extend the recovered head means the log was edited.
                    self.audit
                        .lock()
                        .accept(AuditChainRecord {
                            seq: *seq,
                            prev: *prev,
                            hash: *hash,
                            bytes: bytes.clone(),
                        })
                        .map_err(|b| StorageError::Corruption {
                            detail: format!("audit chain broken during replay: {}", b.reason),
                        })?;
                }
                _ => {}
            }
        }
        self.txns.recover(committed, max_txn);
        self.txns.recover_prepared(prepared);
        self.txns.recover_decided(decided);
        Ok(remapped)
    }

    /// The engine's storage kind.
    pub fn kind(&self) -> &StorageKind {
        &self.kind
    }

    /// The engine's durability configuration.
    pub fn durability(&self) -> DurabilityConfig {
        self.durability
    }

    /// The transaction manager.
    pub fn txns(&self) -> &TransactionManager {
        &self.txns
    }

    /// The write-ahead log.
    pub fn wal(&self) -> &Wal {
        &self.wal
    }

    // ------------------------------------------------------------------
    // DDL
    // ------------------------------------------------------------------

    /// Creates a table with the given schema. The DDL is logged, so the
    /// table (and everything later inserted into it) survives
    /// [`StorageEngine::open`].
    pub fn create_table(&self, schema: TableSchema) -> StorageResult<TableId> {
        let id = TableId(self.next_table.fetch_add(1, Ordering::SeqCst) as u32);
        {
            // Check-and-reserve under the write lock: re-creating an
            // existing name would shadow the old table (and orphan its
            // rows), and two racing creators must not both pass the check.
            let mut by_name = self.by_name.write();
            if by_name.contains_key(&schema.name) {
                return Err(StorageError::DuplicateTable(schema.name.clone()));
            }
            by_name.insert(schema.name.clone(), id);
        }
        if let Err(e) = self.install_table(id, schema.clone()) {
            self.by_name.write().remove(&schema.name);
            return Err(e);
        }
        self.wal
            .append(LogRecord::CreateTable { id: id.0, schema })?;
        Ok(id)
    }

    /// Registers a table under a fixed id without logging (shared by
    /// [`StorageEngine::create_table`] and replay).
    fn install_table(&self, id: TableId, schema: TableSchema) -> StorageResult<()> {
        let store: Arc<dyn PageStore> = match &self.kind {
            StorageKind::InMemory => Arc::new(MemPageStore::new()),
            StorageKind::OnDisk { dir, .. } => {
                let path = dir.join(format!("{}_{}.heap", schema.name, id.0));
                Arc::new(FilePageStore::create(&path)?)
            }
        };
        let heap = TableHeap::new(id.0, store.clone(), self.buffer.clone());
        let table = Arc::new(Table {
            id,
            schema: schema.clone(),
            heap,
            indexes: RwLock::new(Vec::new()),
        });
        self.tables.write().insert(id, table);
        self.by_name.write().insert(schema.name.clone(), id);
        self.stores.write().insert(id, store);
        Ok(())
    }

    /// Looks up a table by id.
    pub fn table(&self, id: TableId) -> StorageResult<Arc<Table>> {
        self.tables
            .read()
            .get(&id)
            .cloned()
            .ok_or(StorageError::UnknownTableId(id.0))
    }

    /// Looks up a table by name.
    pub fn table_by_name(&self, name: &str) -> StorageResult<Arc<Table>> {
        let id = *self
            .by_name
            .read()
            .get(name)
            .ok_or_else(|| StorageError::UnknownTable(name.to_string()))?;
        self.table(id)
    }

    /// Names of all tables.
    pub fn table_names(&self) -> Vec<String> {
        self.by_name.read().keys().cloned().collect()
    }

    /// Creates an ordered index named `name` over `columns` of `table`,
    /// back-filling it from the existing heap contents.
    ///
    /// The index list's write lock is held across the back-fill, so a
    /// concurrent insert either lands in the heap before the back-fill scan
    /// (and is picked up by it) or blocks on the lock and maintains the new
    /// index itself once registered; [`OrderedIndex::insert`] is idempotent
    /// per `(key, row)`, so a version observed by both paths is recorded
    /// once. Index names are unique per table.
    pub fn create_index(&self, table: TableId, name: &str, columns: &[&str]) -> StorageResult<()> {
        let t = self.table(table)?;
        let col_idx: Vec<usize> = columns
            .iter()
            .map(|c| t.schema.column_index(c))
            .collect::<StorageResult<_>>()?;
        self.install_index(&t, name, col_idx.clone())?;
        self.wal.append(LogRecord::CreateIndex {
            table: table.0,
            name: name.to_string(),
            columns: col_idx.iter().map(|c| *c as u16).collect(),
        })?;
        Ok(())
    }

    /// Builds and registers an index without logging (shared by
    /// [`StorageEngine::create_index`] and replay).
    fn install_index(&self, t: &Table, name: &str, col_idx: Vec<usize>) -> StorageResult<()> {
        let mut indexes = t.indexes.write();
        if indexes.iter().any(|e| e.name == name) {
            return Err(StorageError::DuplicateIndex(name.to_string()));
        }
        let index = OrderedIndex::new();
        t.heap.scan(|row, version| {
            let key = t.index_key(&col_idx, &version.data);
            index.insert(key, row);
            true
        })?;
        indexes.push(IndexEntry {
            name: name.to_string(),
            columns: col_idx,
            index,
        });
        Ok(())
    }

    /// The indexes on `table` as `(name, column offsets)` pairs, in creation
    /// order. Used by catalog reconstruction after recovery and by
    /// checkpointing.
    pub fn index_specs(&self, table: TableId) -> StorageResult<Vec<(String, Vec<usize>)>> {
        let t = self.table(table)?;
        let specs = t
            .indexes
            .read()
            .iter()
            .map(|e| (e.name.clone(), e.columns.clone()))
            .collect();
        Ok(specs)
    }

    // ------------------------------------------------------------------
    // Transactions
    // ------------------------------------------------------------------

    /// Starts a transaction. Nothing is logged yet: the `Begin` record is
    /// appended lazily, immediately before the transaction's first
    /// `Insert`/`Delete`/`Prepare` record, so a transaction that never
    /// writes never existed for the log, the mirror or a replica.
    pub fn begin(&self) -> StorageResult<TxnId> {
        self.quiesce_for_pending_checkpoint();
        Ok(self.txns.begin())
    }

    /// Appends `txn`'s `Begin` if this is its first log record. A
    /// transaction is driven by one session at a time, so the `Begin` lands
    /// directly ahead of the record the caller appends next.
    fn log_begin_once(&self, txn: TxnId) -> StorageResult<()> {
        if self.txns.note_first_write(txn) {
            self.wal.append(LogRecord::Begin { txn })?;
        }
        Ok(())
    }

    /// While a deferred checkpoint is pending, briefly holds back new
    /// transactions so the active set can drain to zero and the checkpoint
    /// can run. The wait is bounded: if the checkpoint has not fired within
    /// the quiesce window (another admission slipped in, or nothing is left
    /// to settle the pending request), this thread attempts it itself and
    /// then proceeds regardless — admission control here trades a short
    /// latency blip for checkpoint progress, never liveness.
    fn quiesce_for_pending_checkpoint(&self) {
        const QUIESCE_WINDOW: Duration = Duration::from_millis(50);
        {
            let mut pending = self.checkpoint_pending.lock().expect("checkpoint lock");
            if !*pending {
                return;
            }
            let start = Instant::now();
            while *pending {
                let waited = start.elapsed();
                if waited >= QUIESCE_WINDOW {
                    break;
                }
                let (guard, _) = self
                    .checkpoint_cvar
                    .wait_timeout(pending, QUIESCE_WINDOW - waited)
                    .expect("checkpoint lock");
                pending = guard;
            }
            if !*pending {
                return;
            }
        }
        // Still pending after the window: try to take it ourselves (the
        // request may have been left behind with no active transactions to
        // settle it). Errors are ignored here — begin() must stay infallible
        // with respect to checkpointing.
        let _ = self.run_pending_checkpoint_if_quiescent();
    }

    /// Marks a checkpoint as wanted; the next point at which the engine is
    /// quiescent will take it.
    fn request_checkpoint(&self) {
        let mut pending = self.checkpoint_pending.lock().expect("checkpoint lock");
        if !*pending {
            *pending = true;
            self.checkpoints_deferred.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// If a deferred checkpoint is pending and no transaction is active,
    /// takes it now and releases any quiesced [`StorageEngine::begin`]
    /// callers. Non-busy checkpoint errors drop the pending request (so a
    /// persistent I/O failure cannot wedge admission) and are returned.
    fn run_pending_checkpoint_if_quiescent(&self) -> StorageResult<()> {
        if !*self.checkpoint_pending.lock().expect("checkpoint lock") {
            return Ok(());
        }
        if self.txns.active_count() != 0 {
            return Ok(());
        }
        let result = self.checkpoint();
        match result {
            Ok(_) => {
                *self.checkpoint_pending.lock().expect("checkpoint lock") = false;
                self.checkpoint_cvar.notify_all();
                Ok(())
            }
            // Lost the race with a freshly admitted transaction: stay
            // pending, a later settle or quiesced begin() retries.
            Err(StorageError::CheckpointBusy { .. }) => Ok(()),
            Err(e) => {
                *self.checkpoint_pending.lock().expect("checkpoint lock") = false;
                self.checkpoint_cvar.notify_all();
                Err(e)
            }
        }
    }

    /// Checkpoints as soon as the engine allows it: immediately when
    /// quiescent, otherwise the request is recorded and the transaction that
    /// drains the active set performs it (new transactions briefly quiesce in
    /// [`StorageEngine::begin`] while a request is pending, so sustained load
    /// cannot starve checkpointing). Returns `true` if the checkpoint ran
    /// within this call, `false` if it was deferred.
    pub fn checkpoint_soon(&self) -> StorageResult<bool> {
        match self.checkpoint() {
            Ok(_) => Ok(true),
            Err(StorageError::CheckpointBusy { .. }) => {
                self.request_checkpoint();
                // The busy probe raced: if every active transaction settled
                // before the request became visible, run it here rather than
                // leaving it for a settle that may never come.
                self.run_pending_checkpoint_if_quiescent()?;
                Ok(!*self.checkpoint_pending.lock().expect("checkpoint lock"))
            }
            Err(e) => Err(e),
        }
    }

    /// Commits a transaction. With `sync_on_commit` durability the call
    /// returns only once the commit record is on the device — via the
    /// transaction's own fsync, or a shared one under group commit. When a
    /// periodic-checkpoint policy is configured
    /// ([`DurabilityConfig::with_checkpoint_every`]), the commit may also
    /// trigger a checkpoint once the engine is quiescent.
    ///
    /// A transaction that wrote nothing has no commit record: it appends
    /// nothing, never fsyncs, and does not count towards the periodic
    /// checkpoint/vacuum policies.
    pub fn commit(&self, txn: TxnId) -> StorageResult<()> {
        // The log record is the commit point: it must be durable *before*
        // the transaction is marked committed in memory, or a concurrent
        // reader could observe (and re-publish, via its own durable commit)
        // effects whose commit record never reaches the device. The
        // active→committing claim is atomic, so two racing commit() calls
        // cannot both append a durable Commit record.
        if !self.txns.begin_commit(txn)? {
            self.txns.finish_commit(txn)?;
            // A reader can be the settle that drains the engine.
            let _ = self.run_pending_checkpoint_if_quiescent();
            return Ok(());
        }
        if let Err(e) = self.wal.append(LogRecord::Commit { txn }) {
            // The Commit frame may already sit in the log (e.g. the write
            // succeeded and only the fsync failed), and a later committer's
            // flush could still make it durable — so the transaction must
            // not simply return to in-progress for the caller to abort, or
            // it would resurrect as committed at recovery. Append a
            // superseding Abort record (replay treats Abort as overriding
            // an earlier Commit) and sync it — only Commit appends fsync on
            // their own — then settle the transaction as aborted. If the
            // Abort cannot be made durable, the outcome is unknown: keep
            // the commit claim forever, so the transaction can never be
            // finished and its effects stay invisible to every snapshot in
            // this process.
            if self.wal.append(LogRecord::Abort { txn }).is_ok() && self.wal.sync().is_ok() {
                self.txns.cancel_commit(txn);
                let _ = self.txns.abort(txn);
            }
            return Err(e);
        }
        self.txns.finish_commit(txn)?;
        if let Some(every) = self.durability.checkpoint_every_commits {
            let n = self
                .commits_since_checkpoint
                .fetch_add(1, Ordering::Relaxed)
                + 1;
            if n >= every {
                // Cheap O(1) quiescence probe before the checkpoint takes
                // the log's append lock; racy, but checkpoint() re-checks
                // under it. Under sustained concurrent load the probe
                // essentially never passes, so the busy path records a
                // deferred request instead of dropping the checkpoint: new
                // transactions briefly quiesce and the commit/abort that
                // drains the active set takes it.
                if self.txns.active_count() == 0 {
                    match self.checkpoint() {
                        Ok(_) => {}
                        Err(StorageError::CheckpointBusy { .. }) => self.request_checkpoint(),
                        // The transaction is durably committed at this
                        // point: an auto-checkpoint failure must not turn a
                        // successful commit into an error (the caller would
                        // retry and double-apply). Surface it out of band.
                        Err(e) => {
                            eprintln!("wal: auto-checkpoint failed after commit: {e}");
                        }
                    }
                } else {
                    self.request_checkpoint();
                }
            }
        }
        if let Err(e) = self.run_pending_checkpoint_if_quiescent() {
            eprintln!("wal: deferred checkpoint failed after commit: {e}");
        }
        if let Some(every) = self.durability.vacuum_every_commits {
            let n = self.commits_since_vacuum.fetch_add(1, Ordering::Relaxed) + 1;
            // Auto-vacuum rides the commit settle path: the transaction is
            // already durably committed, so a vacuum failure is surfaced
            // out of band rather than turning a successful commit into an
            // error. Concurrent vacuum is *correct* (version retention is
            // commit-stamp based, and index fix-up holds the index write
            // lock), so the quiescence probe is purely a latency courtesy:
            // prefer a drained moment where no other transaction pays the
            // pause, but past 4× the period stop waiting — sustained load
            // must not defer reclamation forever.
            if n >= every && (self.txns.active_count() == 0 || n >= every.saturating_mul(4)) {
                self.commits_since_vacuum.store(0, Ordering::Relaxed);
                if let Err(e) = self.vacuum() {
                    eprintln!("vacuum: periodic vacuum failed after commit: {e}");
                }
            }
        }
        Ok(())
    }

    /// Aborts a transaction. The tuple versions it wrote remain in the heap
    /// but are never visible; vacuum reclaims them.
    pub fn abort(&self, txn: TxnId) -> StorageResult<()> {
        if self.txns.settle(txn, TxnStatus::Aborted)? {
            self.wal.append(LogRecord::Abort { txn })?;
        }
        // An abort can be the settle that drains the engine; a deferred
        // checkpoint must not miss it. Checkpoint failures are not abort
        // failures (the request is dropped and surfaced on a later commit).
        let _ = self.run_pending_checkpoint_if_quiescent();
        Ok(())
    }

    // ------------------------------------------------------------------
    // Two-phase commit (participant side)
    // ------------------------------------------------------------------

    /// Phase one of two-phase commit: durably prepares `txn` under the
    /// coordinator-assigned global id `gid` and votes yes. On return the
    /// transaction is in-doubt — invisible, immune to local commit/abort,
    /// surviving a crash — until [`StorageEngine::decide`] applies the
    /// coordinator's verdict. The Prepare record is fsynced before the call
    /// returns (the vote must not outrun its durability), mirroring the
    /// failure handling of [`StorageEngine::commit`]: if the record cannot
    /// be made durable a superseding Abort settles the transaction, and if
    /// even that fails the commit claim is held forever.
    pub fn prepare_commit(&self, txn: TxnId, gid: u64) -> StorageResult<()> {
        // A participant with an empty write set still votes durably: its
        // Prepare is its first record, so its Begin goes in ahead of it.
        self.log_begin_once(txn)?;
        self.txns.begin_commit(txn)?;
        if let Err(e) = self.wal.append(LogRecord::Prepare { txn, gid }) {
            if self.wal.append(LogRecord::Abort { txn }).is_ok() && self.wal.sync().is_ok() {
                self.txns.cancel_commit(txn);
                let _ = self.txns.abort(txn);
            }
            return Err(e);
        }
        if let Err(e) = self.txns.mark_prepared(txn, gid) {
            // The gid is already taken (coordinator bug or replayed
            // prepare). The Prepare record is durable, so settle with a
            // superseding Abort exactly as above.
            if self.wal.append(LogRecord::Abort { txn }).is_ok() && self.wal.sync().is_ok() {
                self.txns.cancel_commit(txn);
                let _ = self.txns.abort(txn);
            }
            return Err(e);
        }
        Ok(())
    }

    /// Phase two of two-phase commit: applies the coordinator's verdict to
    /// the transaction prepared under `gid`. Returns `Ok(true)` if a
    /// prepared transaction was resolved, `Ok(false)` if none is prepared
    /// under `gid` — the decision is idempotent, so a coordinator retrying
    /// after a crash gets a clean ack. A commit decision is fsynced before
    /// the in-memory state flips; an abort decision is presumed and needs no
    /// sync.
    pub fn decide(&self, gid: u64, commit: bool) -> StorageResult<bool> {
        let Some(txn) = self.txns.prepared_txn(gid) else {
            return Ok(false);
        };
        // Log the decision before flipping in-memory state (same ordering
        // rule as commit): if the append fails the transaction simply stays
        // prepared and the coordinator retries.
        self.wal.append(LogRecord::Decide { txn, commit })?;
        self.txns.finish_prepared(gid, commit);
        // A decide can be the settle that drains the engine (prepared
        // transactions count as active and block checkpoints).
        let _ = self.run_pending_checkpoint_if_quiescent();
        Ok(true)
    }

    /// Global ids of transactions prepared and awaiting a coordinator
    /// decision (in-doubt), in ascending order.
    pub fn in_doubt(&self) -> Vec<u64> {
        self.txns.in_doubt()
    }

    /// What this node knows about global transaction `gid`:
    /// `Some(committed?)` once a decision was applied here, `None` when the
    /// gid is unknown or still in-doubt here. See
    /// [`TransactionManager::outcome`].
    pub fn outcome(&self, gid: u64) -> Option<bool> {
        self.txns.outcome(gid)
    }

    /// Takes a snapshot for `txn`.
    pub fn snapshot(&self, txn: TxnId) -> Snapshot {
        self.txns.snapshot(txn)
    }

    // ------------------------------------------------------------------
    // Audit chain
    // ------------------------------------------------------------------

    /// Forges the next link of the tamper-evident audit chain over `bytes`
    /// (an event serialized by the layer above) and appends it to the
    /// write-ahead log. The chain lock is held across the log append so the
    /// chain's order and the log's order can never diverge. Returns the
    /// link's sequence number.
    ///
    /// The link is as durable as the surrounding history: it rides the next
    /// commit's fsync rather than paying its own, which keeps audit appends
    /// off the commit critical path while still guaranteeing that any
    /// committed transaction the event preceded in the log is only
    /// recoverable *with* the event.
    pub fn append_audit(&self, bytes: Vec<u8>) -> StorageResult<u64> {
        let mut chain = self.audit.lock();
        let record = chain.append(bytes);
        let seq = record.seq;
        self.wal.append(record.to_log_record())?;
        Ok(seq)
    }

    /// Snapshot of every audit chain link held by this engine (recovered,
    /// replicated, or appended live).
    pub fn audit_records(&self) -> Vec<AuditChainRecord> {
        self.audit.lock().records()
    }

    /// Number of links in the audit chain.
    pub fn audit_len(&self) -> usize {
        self.audit.lock().len()
    }

    /// Walks the whole chain verifying every link; `Err` names the first
    /// broken one. See [`crate::audit::verify_chain`].
    pub fn verify_audit_chain(&self) -> Result<(), crate::audit::AuditChainBreak> {
        self.audit.lock().verify()
    }

    // ------------------------------------------------------------------
    // DML
    // ------------------------------------------------------------------

    /// Inserts a tuple with the given label, returning its row id.
    pub fn insert(
        &self,
        txn: TxnId,
        table: TableId,
        label: Vec<u64>,
        values: Vec<Datum>,
    ) -> StorageResult<RowId> {
        let t = self.table(table)?;
        t.schema.check_tuple(&values)?;
        let version = TupleVersion::new(TupleHeader::new(txn, label), values);
        self.log_begin_once(txn)?;
        let row = t.heap.insert(&version)?;
        self.wal.append(LogRecord::Insert {
            txn,
            table: table.0,
            row,
            bytes: version.encode(),
        })?;
        for entry in t.indexes.read().iter() {
            let key = t.index_key(&entry.columns, &version.data);
            entry.index.insert(key, row);
        }
        self.tuples_inserted.fetch_add(1, Ordering::Relaxed);
        Ok(row)
    }

    /// Marks the version at `row` deleted by `txn`, enforcing
    /// first-updater-wins: if another transaction already deleted or
    /// superseded the version (and did not abort), the call fails with
    /// [`StorageError::WriteConflict`].
    ///
    /// The claim is a compare-and-set on the slot's `xmax`: read it in
    /// place, decide, then set it only if the slot still holds what was
    /// read, else decide again. Of two transactions racing for one version
    /// exactly one wins; the other sees the winner as the holder. The
    /// decision consults the transaction table, which is never locked under
    /// the pool mutex, so it happens between the two page accesses.
    pub fn delete(&self, txn: TxnId, table: TableId, row: RowId) -> StorageResult<()> {
        let t = self.table(table)?;
        loop {
            let seen = t.heap.read::<_, StorageError>(row, |v| Ok(v.xmax()))?;
            if let Some(holder) = seen {
                if holder == txn {
                    // Deleting twice in the same transaction is a no-op.
                    return Ok(());
                }
                if self.txns.status(holder) != TxnStatus::Aborted {
                    return Err(StorageError::WriteConflict {
                        txn: txn.0,
                        holder: holder.0,
                    });
                }
                // The previous deleter rolled back; its mark may go.
            }
            self.log_begin_once(txn)?;
            if t.heap.compare_and_set_xmax(row, seen, Some(txn))? {
                break;
            }
        }
        self.wal.append(LogRecord::Delete {
            txn,
            table: table.0,
            row,
        })?;
        self.tuples_deleted.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Updates the version at `row`: marks it superseded and inserts a new
    /// version with `values` and `label`. Returns the new row id.
    pub fn update(
        &self,
        txn: TxnId,
        table: TableId,
        row: RowId,
        label: Vec<u64>,
        values: Vec<Datum>,
    ) -> StorageResult<RowId> {
        self.delete(txn, table, row)?;
        self.insert(txn, table, label, values)
    }

    /// Fetches the version at `row` if it is visible to `snapshot`.
    pub fn fetch_visible(
        &self,
        snapshot: &Snapshot,
        table: TableId,
        row: RowId,
    ) -> StorageResult<Option<TupleVersion>> {
        let mut found = None;
        self.visit_rows::<StorageError>(snapshot, table, [row], |_, t| {
            found = Some(t.to_version()?);
            Ok(true)
        })?;
        Ok(found)
    }

    /// Scans every version visible to `snapshot`, invoking `f` for each.
    /// Returning `false` from `f` stops the scan.
    pub fn scan_visible(
        &self,
        snapshot: &Snapshot,
        table: TableId,
        mut f: impl FnMut(RowId, TupleVersion) -> bool,
    ) -> StorageResult<()> {
        self.visit_visible::<StorageError>(snapshot, table, |row, _, t| Ok(f(row, t.to_version()?)))
    }

    /// [`StorageEngine::scan_visible`] without building the versions: `f`
    /// reads each visible version in place ([`TupleRef`]) and materialises
    /// what it keeps; `Ok(false)` stops the scan. `f` also gets the label of
    /// the version's page when the page holds one label only
    /// ([`TableHeap::walk`]), so a caller can decide it once per page. Every
    /// version walked counts towards `tuples_scanned`, however the scan ends.
    pub fn visit_visible<E: From<StorageError>>(
        &self,
        snapshot: &Snapshot,
        table: TableId,
        mut f: impl FnMut(RowId, Option<&[u64]>, TupleRef<'_>) -> Result<bool, E>,
    ) -> Result<(), E> {
        /// Adds what a scan walked to the engine's counter when the scan
        /// ends, on the error paths too.
        struct Walked<'a> {
            tuples: u64,
            counter: &'a AtomicU64,
        }
        impl Drop for Walked<'_> {
            fn drop(&mut self) {
                self.counter.fetch_add(self.tuples, Ordering::Relaxed);
            }
        }
        let t = self.table(table)?;
        self.full_table_scans.fetch_add(1, Ordering::Relaxed);
        let mut walked = Walked {
            tuples: 0,
            counter: &self.tuples_scanned,
        };
        let mut visibility = self.txns.visibility(snapshot);
        t.heap.walk(|row, page_label, tuple| {
            walked.tuples += 1;
            if visibility.is_visible(tuple.xmin(), tuple.xmax()) {
                f(row, page_label, tuple)
            } else {
                Ok(true)
            }
        })
    }

    /// Fetches each of `rows` (row ids an index returned) and invokes `f`
    /// with those visible to `snapshot`, read in place; `Ok(false)` stops.
    pub fn visit_rows<E: From<StorageError>>(
        &self,
        snapshot: &Snapshot,
        table: TableId,
        rows: impl IntoIterator<Item = RowId>,
        mut f: impl FnMut(RowId, TupleRef<'_>) -> Result<bool, E>,
    ) -> Result<(), E> {
        let t = self.table(table)?;
        let mut visibility = self.txns.visibility(snapshot);
        for row in rows {
            let more = t.heap.read(row, |tuple| {
                if visibility.is_visible(tuple.xmin(), tuple.xmax()) {
                    f(row, tuple)
                } else {
                    Ok(true)
                }
            })?;
            if !more {
                break;
            }
        }
        Ok(())
    }

    /// Records what a scan's Query-by-Label decisions cost: `tuples` whose
    /// labels were decided one by one, and `pages` whose one label was
    /// decided for all their tuples. The engine stores labels but does not
    /// decide them; the layer that does reports here, so that both counts
    /// sit in [`EngineStats`] beside `tuples_scanned`.
    pub fn count_label_checks(&self, tuples: u64, pages: u64) {
        self.label_checks.fetch_add(tuples, Ordering::Relaxed);
        self.label_page_checks.fetch_add(pages, Ordering::Relaxed);
    }

    /// Point lookup through the named index: returns the row ids whose
    /// indexed columns equal `key`. Visibility is *not* applied here.
    pub fn index_lookup(
        &self,
        table: TableId,
        index: &str,
        key: &IndexKey,
    ) -> StorageResult<Vec<RowId>> {
        let t = self.table(table)?;
        self.index_point_lookups.fetch_add(1, Ordering::Relaxed);
        let indexes = t.indexes.read();
        let entry = indexes
            .iter()
            .find(|e| e.name == index)
            .ok_or_else(|| StorageError::UnknownIndex(index.to_string()))?;
        Ok(entry.index.get(key))
    }

    /// Range lookup through the named index (inclusive bounds).
    pub fn index_range(
        &self,
        table: TableId,
        index: &str,
        low: Option<&IndexKey>,
        high: Option<&IndexKey>,
    ) -> StorageResult<Vec<(IndexKey, RowId)>> {
        let t = self.table(table)?;
        self.index_range_scans.fetch_add(1, Ordering::Relaxed);
        let indexes = t.indexes.read();
        let entry = indexes
            .iter()
            .find(|e| e.name == index)
            .ok_or_else(|| StorageError::UnknownIndex(index.to_string()))?;
        Ok(entry.index.range(low, high))
    }

    /// Prefix lookup through the named index: row ids whose keys start with
    /// `prefix` (an equality on the leading index columns).
    pub fn index_prefix(
        &self,
        table: TableId,
        index: &str,
        prefix: &[Datum],
    ) -> StorageResult<Vec<(IndexKey, RowId)>> {
        let t = self.table(table)?;
        self.index_range_scans.fetch_add(1, Ordering::Relaxed);
        let indexes = t.indexes.read();
        let entry = indexes
            .iter()
            .find(|e| e.name == index)
            .ok_or_else(|| StorageError::UnknownIndex(index.to_string()))?;
        Ok(entry.index.prefix(prefix))
    }

    /// Names of the indexes on `table`.
    pub fn index_names(&self, table: TableId) -> StorageResult<Vec<String>> {
        let t = self.table(table)?;
        let names = t.indexes.read().iter().map(|e| e.name.clone()).collect();
        Ok(names)
    }

    // ------------------------------------------------------------------
    // Maintenance
    // ------------------------------------------------------------------

    /// Removes tuple versions that no snapshot can ever see again: versions
    /// written by aborted transactions, and versions deleted by transactions
    /// that committed before every active transaction. Index entries for the
    /// removed versions are dropped as well.
    pub fn vacuum(&self) -> StorageResult<usize> {
        let tables: Vec<Arc<Table>> = self.tables.read().values().cloned().collect();
        let mut removed_total = 0;
        for t in tables {
            let removed = t.heap.vacuum(|v| {
                let dead_insert = self.txns.status(v.header.xmin) == TxnStatus::Aborted;
                dead_insert || self.txns.is_dead_for_all(&v.header)
            })?;
            if removed > 0 {
                // Re-derive each index from the surviving heap contents.
                // Live entries are (re-)inserted before stale ones are
                // removed, so a concurrent reader never observes a live row
                // missing from an index — only the reverse (a stale entry
                // for a version its snapshot cannot see anyway). The *write*
                // lock is held across the fix-up: a concurrent inserter puts
                // its row in the heap first and then blocks here before
                // touching the index, so every index entry the removal loop
                // can see belongs to a row the heap scan above either saw
                // (in `live`) or that does not exist yet — a freshly
                // inserted row's entry can never be mistaken for stale and
                // deleted. That makes vacuum safe to run from the periodic
                // policy without quiescing the engine.
                let indexes = t.indexes.write();
                for entry in indexes.iter() {
                    let mut live: HashSet<(IndexKey, RowId)> = HashSet::new();
                    t.heap.scan(|row, version| {
                        let key = t.index_key(&entry.columns, &version.data);
                        entry.index.insert(key.clone(), row);
                        live.insert((key, row));
                        true
                    })?;
                    for (k, r) in entry.index.range(None, None) {
                        if !live.contains(&(k.clone(), r)) {
                            entry.index.remove(&k, r);
                        }
                    }
                }
            }
            removed_total += removed;
        }
        self.vacuums.fetch_add(1, Ordering::Relaxed);
        Ok(removed_total)
    }

    /// Serializes a consistent snapshot of the engine into the log and
    /// truncates the history before it, so that [`StorageEngine::open`]
    /// replays O(live data + post-checkpoint delta) records instead of the
    /// full history. The image consists of the DDL for every table and
    /// index followed by one `Insert` record (under the always-committed
    /// bootstrap transaction) per live tuple version, and is installed with
    /// a crash-atomic temp-file-and-rename rewrite.
    ///
    /// Checkpointing requires a quiescent engine: if any transaction is in
    /// progress the call fails with [`StorageError::CheckpointBusy`] and the
    /// log is left untouched. New transactions that try to start during the
    /// checkpoint block on their first log append until the rewrite is
    /// installed, so nothing can slip between the image and the new log
    /// tail.
    ///
    /// Returns the number of records in the installed image.
    pub fn checkpoint(&self) -> StorageResult<usize> {
        // Chain lock before the log's append lock (see the `audit` field
        // docs): holding it across the rewrite keeps a concurrent
        // `append_audit` from logging a link the image would then discard.
        let audit = self.audit.lock();
        let count = self.wal.rewrite_with(|| {
            let active = self.txns.active_count();
            if active > 0 {
                return Err(StorageError::CheckpointBusy { active });
            }
            let snap = self.txns.snapshot(BOOTSTRAP_TXN);
            let tables = self.tables.read();
            let mut ids: Vec<TableId> = tables.keys().copied().collect();
            ids.sort();
            let mut image = Vec::new();
            for id in &ids {
                let t = &tables[id];
                image.push(LogRecord::CreateTable {
                    id: id.0,
                    schema: t.schema.clone(),
                });
                for entry in t.indexes.read().iter() {
                    image.push(LogRecord::CreateIndex {
                        table: id.0,
                        name: entry.name.clone(),
                        columns: entry.columns.iter().map(|c| *c as u16).collect(),
                    });
                }
            }
            for id in &ids {
                let t = &tables[id];
                t.heap.scan(|row, version| {
                    if self.txns.is_visible(&snap, &version.header) {
                        let mut v = version;
                        // The image represents settled history: every row in
                        // it is committed before anything that can follow.
                        v.header.xmin = BOOTSTRAP_TXN;
                        v.header.xmax = None;
                        image.push(LogRecord::Insert {
                            txn: BOOTSTRAP_TXN,
                            table: id.0,
                            row,
                            bytes: v.encode(),
                        });
                    }
                    true
                })?;
            }
            // The audit chain survives compaction the same way live rows
            // do: every link is re-logged into the image.
            for r in audit.records() {
                image.push(r.to_log_record());
            }
            // Promotions survive checkpoint truncation: the image re-logs
            // the generation the same way it re-logs live rows.
            if self.wal.generation() > 1 {
                image.push(LogRecord::Epoch {
                    generation: self.wal.generation(),
                });
            }
            image.push(LogRecord::Checkpoint);
            Ok(image)
        })?;
        drop(audit);
        self.checkpoints.fetch_add(1, Ordering::Relaxed);
        self.commits_since_checkpoint.store(0, Ordering::Relaxed);
        Ok(count)
    }

    /// Turns this (replica) engine into a primary of `generation`: the log
    /// leaves discard mode, adopts the generation, and is re-anchored with a
    /// checkpoint image so the node's own log — empty until now — describes
    /// the full state it will serve and replicate from here on.
    ///
    /// Unlike [`StorageEngine::checkpoint`], in-doubt 2PC transactions do
    /// not block promotion (a participant crash is exactly when failover
    /// happens): each prepared transaction is carried into the image as
    /// `Begin` + its invisible effects + `Prepare`, so the successor — and
    /// anyone recovering from or replicating its log — can still resolve it
    /// when the coordinator's decision arrives. Any *other* active
    /// transaction fails the call with [`StorageError::CheckpointBusy`];
    /// callers retry while replica-local reads drain.
    pub fn promote_to_primary(&self, generation: u64) -> StorageResult<usize> {
        self.wal.set_discard(false);
        self.wal.set_generation(generation);
        // A primary killed mid-transaction leaves streamed `Begin`s whose
        // outcome will never arrive; they would hold the database "busy"
        // forever. They abort here — the crash-recovery rule applied to the
        // dead stream — so only replica-local reads can keep the call busy.
        self.txns.abort_orphaned_replicated();
        // Same lock order as checkpoint(): chain before the log's append
        // lock, held across the rewrite. The replicated chain continues
        // unbroken on the successor — its image re-logs every link, and
        // post-promotion events extend the same chain.
        let audit = self.audit.lock();
        let count = self.wal.rewrite_with(|| {
            let prepared = self.txns.prepared_entries();
            let active = self.txns.active_count();
            let blocking = active.saturating_sub(prepared.len() as u64);
            if blocking > 0 {
                return Err(StorageError::CheckpointBusy { active: blocking });
            }
            let snap = self.txns.snapshot(BOOTSTRAP_TXN);
            let tables = self.tables.read();
            let mut ids: Vec<TableId> = tables.keys().copied().collect();
            ids.sort();
            let mut image = Vec::new();
            for id in &ids {
                let t = &tables[id];
                image.push(LogRecord::CreateTable {
                    id: id.0,
                    schema: t.schema.clone(),
                });
                for entry in t.indexes.read().iter() {
                    image.push(LogRecord::CreateIndex {
                        table: id.0,
                        name: entry.name.clone(),
                        columns: entry.columns.iter().map(|c| *c as u16).collect(),
                    });
                }
            }
            for id in &ids {
                let t = &tables[id];
                t.heap.scan(|row, version| {
                    if self.txns.is_visible(&snap, &version.header) {
                        let mut v = version;
                        v.header.xmin = BOOTSTRAP_TXN;
                        v.header.xmax = None;
                        image.push(LogRecord::Insert {
                            txn: BOOTSTRAP_TXN,
                            table: id.0,
                            row,
                            bytes: v.encode(),
                        });
                    }
                    true
                })?;
            }
            // The in-doubt transactions ride along: their effects replay
            // invisible (the recovery and replication paths both re-register
            // a Prepare with no Decide as in-doubt) until a decision lands.
            for (gid, txn) in prepared {
                image.push(LogRecord::Begin { txn });
                for id in &ids {
                    let t = &tables[id];
                    t.heap.scan(|row, version| {
                        if version.header.xmin == txn {
                            image.push(LogRecord::Insert {
                                txn,
                                table: id.0,
                                row,
                                bytes: version.encode(),
                            });
                        } else if version.header.xmax == Some(txn) {
                            image.push(LogRecord::Delete {
                                txn,
                                table: id.0,
                                row,
                            });
                        }
                        true
                    })?;
                }
                image.push(LogRecord::Prepare { txn, gid });
            }
            for r in audit.records() {
                image.push(r.to_log_record());
            }
            image.push(LogRecord::Epoch { generation });
            image.push(LogRecord::Checkpoint);
            Ok(image)
        })?;
        drop(audit);
        // From here on this node's transactions are a primary's: they leave
        // the id range reserved for replica-local readers.
        self.txns.leave_replica_id_range();
        self.checkpoints.fetch_add(1, Ordering::Relaxed);
        self.commits_since_checkpoint.store(0, Ordering::Relaxed);
        Ok(count)
    }

    // ------------------------------------------------------------------
    // Replication (continuous apply)
    // ------------------------------------------------------------------

    /// Applies one record shipped from a primary's log to this engine — the
    /// incremental form of the recovery replay machinery behind
    /// [`StorageEngine::open`].
    ///
    /// Unlike batch replay, commit outcomes are not known in advance:
    /// inserts and deletes are applied as they arrive (with the primary's
    /// transaction ids preserved in tuple headers), and stay invisible to
    /// replica snapshots until the transaction's `Commit` record applies.
    /// `state` carries the row-id remapping (the primary's logged row ids
    /// to locally allocated ones, pruned as deletes commit) and must be the
    /// same state across every record of one stream (cleared on a stream
    /// reset); [`crate::replica::ReplicaApplier`] manages it.
    ///
    /// This bypasses the local write-ahead log: a replica's engine is a
    /// cache of the primary's log, exactly as heap files are a cache of the
    /// local one.
    pub fn apply_replicated(
        &self,
        record: &LogRecord,
        state: &mut crate::replica::ReplicaApplyState,
    ) -> StorageResult<()> {
        match record {
            LogRecord::CreateTable { id, schema } => {
                self.next_table.fetch_max(*id as u64 + 1, Ordering::SeqCst);
                // Idempotent, like DDL replay: a checkpoint image racing the
                // stream can re-deliver a definition.
                if !self.tables.read().contains_key(&TableId(*id)) {
                    self.install_table(TableId(*id), schema.clone())?;
                }
            }
            LogRecord::CreateIndex {
                table,
                name,
                columns,
            } => {
                let t = self.table(TableId(*table))?;
                let col_idx = columns.iter().map(|c| *c as usize).collect();
                match self.install_index(&t, name, col_idx) {
                    Ok(()) | Err(StorageError::DuplicateIndex(_)) => {}
                    Err(e) => return Err(e),
                }
            }
            LogRecord::Begin { txn } => self.txns.begin_replicated(*txn),
            LogRecord::Commit { txn } => {
                self.txns.commit_replicated(*txn);
                // The committed transaction's deletes are final: nothing
                // can reference those rows again (a further delete would
                // have hit a write conflict on the primary), so their
                // row-map entries are dead weight — prune them to keep the
                // map bounded by live rows on a long-running replica.
                if let Some(rows) = state.deletes_in_flight.remove(txn) {
                    for key in rows {
                        state.row_map.remove(&key);
                    }
                }
                state.inserts_in_flight.remove(txn);
            }
            LogRecord::Abort { txn } => {
                self.txns.abort_replicated(*txn);
                // An aborted delete's row stays live and may be deleted
                // again later; keep its mapping. An aborted *insert* is the
                // opposite: the row is invisible forever and no later
                // record can reference it, so its mapping is dropped.
                state.deletes_in_flight.remove(txn);
                if let Some(rows) = state.inserts_in_flight.remove(txn) {
                    for key in rows {
                        state.row_map.remove(&key);
                    }
                }
            }
            LogRecord::Insert {
                txn,
                table,
                row,
                bytes,
            } => {
                let t = self.table(TableId(*table))?;
                let version = TupleVersion::decode(bytes)?;
                let new_row = t.heap.insert(&version)?;
                for entry in t.indexes.read().iter() {
                    let key = t.index_key(&entry.columns, &version.data);
                    entry.index.insert(key, new_row);
                }
                state.row_map.insert((*table, *row), new_row);
                if *txn != BOOTSTRAP_TXN {
                    state
                        .inserts_in_flight
                        .entry(*txn)
                        .or_default()
                        .push((*table, *row));
                }
                self.tuples_inserted.fetch_add(1, Ordering::Relaxed);
            }
            LogRecord::Delete { txn, table, row } => {
                // Conflict resolution already happened on the primary; the
                // replica just mirrors the outcome. Every row a streamed
                // delete can touch was inserted through this same stream
                // (checkpoint images re-log live rows), so the map covers it.
                if let Some(new_row) = state.row_map.get(&(*table, *row)) {
                    let t = self.table(TableId(*table))?;
                    t.heap.set_xmax(*new_row, Some(*txn))?;
                    self.tuples_deleted.fetch_add(1, Ordering::Relaxed);
                    if *txn == BOOTSTRAP_TXN {
                        // Bootstrap effects are committed by definition.
                        state.row_map.remove(&(*table, *row));
                    } else {
                        state
                            .deletes_in_flight
                            .entry(*txn)
                            .or_default()
                            .push((*table, *row));
                    }
                }
            }
            LogRecord::Checkpoint => {}
            // The stream's Epoch record names the primary's generation; the
            // replica tracks it on its own (discarding) log so a later
            // promotion continues the fencing order.
            LogRecord::Epoch { generation } => self.wal.set_generation(*generation),
            // 2PC on the primary mirrors onto the replica as a real in-doubt
            // state: a Prepare registers the transaction under its gid (its
            // effects stay invisible), so a replica promoted to primary can
            // answer outcome queries and apply the coordinator's decision;
            // the Decide settles it like a Commit/Abort record would.
            LogRecord::Prepare { txn, gid } => self.txns.mark_prepared_replicated(*txn, *gid),
            LogRecord::Decide { txn, commit } => {
                self.txns.settle_prepared_replicated(*txn, *commit);
                if *commit {
                    self.txns.commit_replicated(*txn);
                    if let Some(rows) = state.deletes_in_flight.remove(txn) {
                        for key in rows {
                            state.row_map.remove(&key);
                        }
                    }
                    state.inserts_in_flight.remove(txn);
                } else {
                    self.txns.abort_replicated(*txn);
                    state.deletes_in_flight.remove(txn);
                    if let Some(rows) = state.inserts_in_flight.remove(txn) {
                        for key in rows {
                            state.row_map.remove(&key);
                        }
                    }
                }
            }
            // The primary's audit chain mirrors onto the replica link by
            // link. `accept` tolerates the re-delivery a checkpoint image
            // racing the stream can produce, but a *conflicting* link means
            // the stream (or the primary's log) was tampered with.
            LogRecord::Audit {
                seq,
                prev,
                hash,
                bytes,
            } => {
                self.audit
                    .lock()
                    .accept(AuditChainRecord {
                        seq: *seq,
                        prev: *prev,
                        hash: *hash,
                        bytes: bytes.clone(),
                    })
                    .map_err(|b| StorageError::Corruption {
                        detail: format!("replicated audit chain broken: {}", b.reason),
                    })?;
            }
        }
        self.replica_records_applied.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Discards every table, index and transaction status so a replica can
    /// re-bootstrap from a fresh checkpoint image (stream reset). Sessions
    /// already holding a `Table` handle keep scanning the orphaned heap
    /// safely; new statements bind against the rebuilt state as it streams
    /// back in. The transaction id allocator is left alone, so replica-local
    /// read transactions stay unique across resets.
    pub fn reset_replica_state(&self) {
        let mut tables = self.tables.write();
        let mut by_name = self.by_name.write();
        let mut stores = self.stores.write();
        tables.clear();
        by_name.clear();
        stores.clear();
        self.txns.clear_for_reset();
        // The primary's checkpoint image re-delivers the authoritative
        // chain; keeping stale links would make its links look conflicting.
        self.audit.lock().clear();
    }

    /// Flushes all dirty pages and the WAL.
    pub fn flush(&self) -> StorageResult<()> {
        for t in self.tables.read().values() {
            t.heap.flush()?;
        }
        self.wal.flush()
    }

    /// A snapshot of engine statistics.
    pub fn stats(&self) -> EngineStats {
        let mut s = EngineStats::default().with_buffer(self.buffer.stats());
        s.tuples_inserted = self.tuples_inserted.load(Ordering::Relaxed);
        s.tuples_deleted = self.tuples_deleted.load(Ordering::Relaxed);
        s.tuples_scanned = self.tuples_scanned.load(Ordering::Relaxed);
        s.full_table_scans = self.full_table_scans.load(Ordering::Relaxed);
        s.index_point_lookups = self.index_point_lookups.load(Ordering::Relaxed);
        s.index_range_scans = self.index_range_scans.load(Ordering::Relaxed);
        s.label_checks = self.label_checks.load(Ordering::Relaxed);
        s.label_page_checks = self.label_page_checks.load(Ordering::Relaxed);
        let txns = self.txns.counts();
        s.txns_started = txns.started;
        s.txns_read_only = txns.read_only;
        s.txns_active = txns.active;
        s.txn_table_entries = txns.entries;
        s.wal_bytes = self.wal.bytes_written();
        s.wal_fsyncs = self.wal.fsyncs();
        s.commits_batched = self.wal.commits_batched();
        s.recovery_replayed_records = self.recovery_replayed_records.load(Ordering::Relaxed);
        s.checkpoints = self.checkpoints.load(Ordering::Relaxed);
        s.checkpoints_deferred = self.checkpoints_deferred.load(Ordering::Relaxed);
        s.vacuums = self.vacuums.load(Ordering::Relaxed);
        s.replica_records_applied = self.replica_records_applied.load(Ordering::Relaxed);
        s.audit_records = self.audit.lock().len() as u64;
        let stores = self.stores.read();
        s.store_reads = stores.values().map(|st| st.reads()).sum();
        s.store_writes = stores.values().map(|st| st.writes()).sum();
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnDef;
    use crate::value::DataType;

    fn engine_with_table() -> (StorageEngine, TableId) {
        let eng = StorageEngine::in_memory();
        let id = eng
            .create_table(TableSchema::new(
                "people",
                vec![
                    ColumnDef::new("id", DataType::Int),
                    ColumnDef::new("name", DataType::Text),
                ],
            ))
            .unwrap();
        (eng, id)
    }

    fn visible_rows(eng: &StorageEngine, table: TableId) -> Vec<Vec<Datum>> {
        let txn = eng.begin().unwrap();
        let snap = eng.snapshot(txn);
        let mut out = Vec::new();
        eng.scan_visible(&snap, table, |_, v| {
            out.push(v.data);
            true
        })
        .unwrap();
        eng.commit(txn).unwrap();
        out
    }

    #[test]
    fn insert_commit_visible() {
        let (eng, table) = engine_with_table();
        let txn = eng.begin().unwrap();
        eng.insert(
            txn,
            table,
            vec![],
            vec![Datum::Int(1), Datum::from("alice")],
        )
        .unwrap();
        eng.commit(txn).unwrap();
        assert_eq!(visible_rows(&eng, table).len(), 1);
    }

    #[test]
    fn aborted_insert_invisible() {
        let (eng, table) = engine_with_table();
        let txn = eng.begin().unwrap();
        eng.insert(
            txn,
            table,
            vec![],
            vec![Datum::Int(1), Datum::from("ghost")],
        )
        .unwrap();
        eng.abort(txn).unwrap();
        assert!(visible_rows(&eng, table).is_empty());
    }

    #[test]
    fn snapshot_isolation_hides_concurrent_commits() {
        let (eng, table) = engine_with_table();
        let reader = eng.begin().unwrap();
        let snap = eng.snapshot(reader);

        let writer = eng.begin().unwrap();
        eng.insert(
            writer,
            table,
            vec![],
            vec![Datum::Int(2), Datum::from("late")],
        )
        .unwrap();
        eng.commit(writer).unwrap();

        let mut seen = 0;
        eng.scan_visible(&snap, table, |_, _| {
            seen += 1;
            true
        })
        .unwrap();
        assert_eq!(seen, 0, "reader's snapshot predates the writer's commit");
        eng.commit(reader).unwrap();
    }

    #[test]
    fn update_creates_new_version_and_hides_old() {
        let (eng, table) = engine_with_table();
        let t1 = eng.begin().unwrap();
        let row = eng
            .insert(t1, table, vec![], vec![Datum::Int(1), Datum::from("v1")])
            .unwrap();
        eng.commit(t1).unwrap();

        let t2 = eng.begin().unwrap();
        eng.update(
            t2,
            table,
            row,
            vec![],
            vec![Datum::Int(1), Datum::from("v2")],
        )
        .unwrap();
        eng.commit(t2).unwrap();

        let rows = visible_rows(&eng, table);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][1], Datum::from("v2"));
    }

    #[test]
    fn write_conflict_detected() {
        let (eng, table) = engine_with_table();
        let t0 = eng.begin().unwrap();
        let row = eng
            .insert(
                t0,
                table,
                vec![],
                vec![Datum::Int(1), Datum::from("target")],
            )
            .unwrap();
        eng.commit(t0).unwrap();

        let t1 = eng.begin().unwrap();
        let t2 = eng.begin().unwrap();
        eng.delete(t1, table, row).unwrap();
        let err = eng.delete(t2, table, row).unwrap_err();
        assert!(matches!(err, StorageError::WriteConflict { .. }));
        // After t1 aborts, t2 may retry successfully.
        eng.abort(t1).unwrap();
        eng.delete(t2, table, row).unwrap();
        eng.commit(t2).unwrap();
    }

    #[test]
    fn index_lookup_finds_rows() {
        let (eng, table) = engine_with_table();
        let txn = eng.begin().unwrap();
        for i in 0..20 {
            eng.insert(
                txn,
                table,
                vec![],
                vec![Datum::Int(i), Datum::Text(format!("user{i}"))],
            )
            .unwrap();
        }
        eng.commit(txn).unwrap();
        eng.create_index(table, "people_pk", &["id"]).unwrap();
        let rows = eng
            .index_lookup(table, "people_pk", &vec![Datum::Int(7)])
            .unwrap();
        assert_eq!(rows.len(), 1);
        let snap = eng.snapshot(eng.begin().unwrap());
        let v = eng.fetch_visible(&snap, table, rows[0]).unwrap().unwrap();
        assert_eq!(v.data[1], Datum::from("user7"));
        // Index created before inserts also stays maintained.
        let t2 = eng.begin().unwrap();
        eng.insert(t2, table, vec![], vec![Datum::Int(99), Datum::from("new")])
            .unwrap();
        eng.commit(t2).unwrap();
        assert_eq!(
            eng.index_lookup(table, "people_pk", &vec![Datum::Int(99)])
                .unwrap()
                .len(),
            1
        );
        assert!(eng.index_lookup(table, "nope", &vec![]).is_err());
    }

    #[test]
    fn duplicate_index_name_rejected() {
        let (eng, table) = engine_with_table();
        eng.create_index(table, "people_pk", &["id"]).unwrap();
        let err = eng.create_index(table, "people_pk", &["name"]).unwrap_err();
        assert!(matches!(err, StorageError::DuplicateIndex(_)));
    }

    #[test]
    fn access_path_counters_and_prefix_lookup() {
        let (eng, table) = engine_with_table();
        let txn = eng.begin().unwrap();
        for i in 0..10 {
            eng.insert(
                txn,
                table,
                vec![],
                vec![Datum::Int(i / 5), Datum::Text(format!("u{i}"))],
            )
            .unwrap();
        }
        eng.commit(txn).unwrap();
        eng.create_index(table, "people_pk", &["id"]).unwrap();
        let before = eng.stats();
        let _ = eng
            .index_lookup(table, "people_pk", &vec![Datum::Int(0)])
            .unwrap();
        let prefixed = eng
            .index_prefix(table, "people_pk", &[Datum::Int(1)])
            .unwrap();
        assert_eq!(prefixed.len(), 5);
        let ranged = eng
            .index_range(
                table,
                "people_pk",
                Some(&vec![Datum::Int(0)]),
                Some(&vec![Datum::Int(0)]),
            )
            .unwrap();
        assert_eq!(ranged.len(), 5);
        visible_rows(&eng, table);
        let after = eng.stats();
        assert_eq!(after.index_point_lookups - before.index_point_lookups, 1);
        assert_eq!(after.index_range_scans - before.index_range_scans, 2);
        assert_eq!(after.full_table_scans - before.full_table_scans, 1);
    }

    #[test]
    fn a_scan_counts_the_tuples_it_walked_however_it_ends() {
        let (eng, table) = engine_with_table();
        let txn = eng.begin().unwrap();
        for i in 0..10 {
            eng.insert(
                txn,
                table,
                vec![],
                vec![Datum::Int(i), Datum::Text("u".into())],
            )
            .unwrap();
        }
        eng.commit(txn).unwrap();
        let snap = eng.snapshot(eng.txns().begin());
        let scanned = || eng.stats().tuples_scanned;

        // Cut short by an error from the consumer.
        let before = scanned();
        let mut seen = 0;
        let cut = eng.visit_visible(&snap, table, |_, _, _| {
            seen += 1;
            if seen == 4 {
                Err(StorageError::UnknownTableId(0))
            } else {
                Ok(true)
            }
        });
        assert_eq!(cut, Err(StorageError::UnknownTableId(0)));
        assert_eq!(scanned() - before, 4);

        // Stopped early by the consumer, and run to the end.
        let before = scanned();
        eng.scan_visible(&snap, table, |_, _| false).unwrap();
        assert_eq!(scanned() - before, 1);
        eng.scan_visible(&snap, table, |_, _| true).unwrap();
        assert_eq!(scanned() - before, 11);
    }

    #[test]
    fn vacuum_reclaims_aborted_and_deleted_versions() {
        let (eng, table) = engine_with_table();
        let t1 = eng.begin().unwrap();
        let kept = eng
            .insert(t1, table, vec![], vec![Datum::Int(1), Datum::from("keep")])
            .unwrap();
        eng.insert(t1, table, vec![], vec![Datum::Int(2), Datum::from("drop")])
            .unwrap();
        eng.commit(t1).unwrap();

        let t2 = eng.begin().unwrap();
        eng.insert(
            t2,
            table,
            vec![],
            vec![Datum::Int(3), Datum::from("aborted")],
        )
        .unwrap();
        eng.abort(t2).unwrap();

        let t3 = eng.begin().unwrap();
        // Delete the second row (find it by scan).
        let snap = eng.snapshot(t3);
        let mut victim = None;
        eng.scan_visible(&snap, table, |row, v| {
            if v.data[0] == Datum::Int(2) {
                victim = Some(row);
            }
            true
        })
        .unwrap();
        eng.delete(t3, table, victim.unwrap()).unwrap();
        eng.commit(t3).unwrap();

        let removed = eng.vacuum().unwrap();
        assert!(removed >= 2, "aborted insert and deleted row are reclaimed");
        // The kept row is still there.
        let snap = eng.snapshot(eng.begin().unwrap());
        assert!(eng.fetch_visible(&snap, table, kept).unwrap().is_some());
    }

    #[test]
    fn periodic_vacuum_policy_reclaims_dead_versions() {
        let eng = StorageEngine::with_config(
            StorageKind::InMemory,
            DurabilityConfig::NO_SYNC.with_vacuum_every(5),
        )
        .unwrap();
        let table = eng
            .create_table(TableSchema::new(
                "t",
                vec![
                    ColumnDef::new("id", DataType::Int),
                    ColumnDef::new("v", DataType::Int),
                ],
            ))
            .unwrap();
        eng.create_index(table, "t_pkey", &["id"]).unwrap();
        // Churn: every commit supersedes a row, leaving a dead version.
        let t0 = eng.begin().unwrap();
        let mut row = eng
            .insert(t0, table, vec![], vec![Datum::Int(1), Datum::Int(0)])
            .unwrap();
        eng.commit(t0).unwrap();
        for round in 1..=20i64 {
            let txn = eng.begin().unwrap();
            row = eng
                .update(
                    txn,
                    table,
                    row,
                    vec![],
                    vec![Datum::Int(1), Datum::Int(round)],
                )
                .unwrap();
            eng.commit(txn).unwrap();
        }
        let stats = eng.stats();
        assert!(
            stats.vacuums >= 3,
            "policy vacuums every 5 commits: {stats:?}"
        );
        // Dead versions were reclaimed: the heap holds far fewer than the
        // 21 versions written, and the index still finds the live row.
        let mut versions = 0;
        eng.table(table)
            .unwrap()
            .heap()
            .scan(|_, _| {
                versions += 1;
                true
            })
            .unwrap();
        assert!(versions < 5, "dead versions reclaimed, saw {versions}");
        let hits = eng
            .index_lookup(table, "t_pkey", &vec![Datum::Int(1)])
            .unwrap();
        let snap = eng.snapshot(eng.begin().unwrap());
        let visible: Vec<_> = hits
            .into_iter()
            .filter(|r| eng.fetch_visible(&snap, table, *r).ok().flatten().is_some())
            .collect();
        assert_eq!(visible.len(), 1, "live row reachable through the index");
    }

    #[test]
    fn concurrent_inserts_survive_auto_vacuum() {
        // Regression for the vacuum/insert race: an insert whose heap write
        // lands after vacuum's index-derivation scan must not have its
        // index entry swept as stale (vacuum holds the index write lock
        // across the fix-up, so inserters serialize with it).
        let eng = Arc::new(
            StorageEngine::with_config(
                StorageKind::InMemory,
                DurabilityConfig::NO_SYNC.with_vacuum_every(3),
            )
            .unwrap(),
        );
        let table = eng
            .create_table(TableSchema::new(
                "t",
                vec![ColumnDef::new("id", DataType::Int)],
            ))
            .unwrap();
        eng.create_index(table, "t_pkey", &["id"]).unwrap();
        let writers = 4i64;
        let per_writer = 50i64;
        std::thread::scope(|scope| {
            for w in 0..writers {
                let eng = eng.clone();
                scope.spawn(move || {
                    for i in 0..per_writer {
                        let id = w * 1_000 + i;
                        let txn = eng.begin().unwrap();
                        eng.insert(txn, table, vec![], vec![Datum::Int(id)])
                            .unwrap();
                        eng.commit(txn).unwrap();
                        // Churn that gives vacuum something to reclaim.
                        let txn = eng.begin().unwrap();
                        eng.insert(txn, table, vec![], vec![Datum::Int(-id - 1)])
                            .unwrap();
                        eng.abort(txn).unwrap();
                    }
                });
            }
        });
        assert!(eng.stats().vacuums > 0, "auto-vacuum ran during the load");
        // Every committed row is reachable through the index.
        for w in 0..writers {
            for i in 0..per_writer {
                let id = w * 1_000 + i;
                let hits = eng
                    .index_lookup(table, "t_pkey", &vec![Datum::Int(id)])
                    .unwrap();
                assert!(!hits.is_empty(), "row {id} lost from the index");
            }
        }
    }

    #[test]
    fn stats_reflect_activity() {
        let (eng, table) = engine_with_table();
        let txn = eng.begin().unwrap();
        eng.insert(
            txn,
            table,
            vec![1, 2],
            vec![Datum::Int(1), Datum::from("x")],
        )
        .unwrap();
        eng.commit(txn).unwrap();
        visible_rows(&eng, table);
        let s = eng.stats();
        assert_eq!(s.tuples_inserted, 1);
        assert!(s.tuples_scanned >= 1);
        assert!(s.wal_bytes > 0);
        assert!(s.txns_started >= 2);
    }

    #[test]
    fn on_disk_engine_round_trips() {
        let dir = std::env::temp_dir().join(format!("ifdb-engine-test-{}", std::process::id()));
        let eng = StorageEngine::with_kind(StorageKind::OnDisk {
            dir: dir.clone(),
            buffer_pages: 8,
        })
        .unwrap();
        let table = eng
            .create_table(TableSchema::new(
                "disk_table",
                vec![
                    ColumnDef::new("k", DataType::Int),
                    ColumnDef::new("payload", DataType::Text),
                ],
            ))
            .unwrap();
        let txn = eng.begin().unwrap();
        let payload = "z".repeat(500);
        for i in 0..200 {
            eng.insert(
                txn,
                table,
                vec![i as u64 % 3],
                vec![Datum::Int(i), Datum::Text(payload.clone())],
            )
            .unwrap();
        }
        eng.commit(txn).unwrap();
        eng.flush().unwrap();
        let rows = visible_rows(&eng, table);
        assert_eq!(rows.len(), 200);
        let s = eng.stats();
        assert!(
            s.store_reads > 0,
            "small buffer pool must cause physical reads"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopen_replays_committed_state_and_drops_inflight() {
        let dir = std::env::temp_dir().join(format!("ifdb-engine-reopen-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        {
            let eng = StorageEngine::with_config(
                StorageKind::OnDisk {
                    dir: dir.clone(),
                    buffer_pages: 8,
                },
                DurabilityConfig::SYNC_EACH,
            )
            .unwrap();
            let table = eng
                .create_table(TableSchema::new(
                    "t",
                    vec![
                        ColumnDef::new("id", DataType::Int),
                        ColumnDef::new("name", DataType::Text),
                    ],
                ))
                .unwrap();
            eng.create_index(table, "t_pkey", &["id"]).unwrap();
            let committed = eng.begin().unwrap();
            for i in 0..10 {
                eng.insert(
                    committed,
                    table,
                    vec![7, i],
                    vec![Datum::Int(i as i64), Datum::Text(format!("row{i}"))],
                )
                .unwrap();
            }
            eng.commit(committed).unwrap();
            // An in-flight transaction at "crash" time: must not survive.
            let inflight = eng.begin().unwrap();
            eng.insert(
                inflight,
                table,
                vec![],
                vec![Datum::Int(99), Datum::from("ghost")],
            )
            .unwrap();
            // Dropped without commit, abort, or flush.
        }
        let eng = StorageEngine::open(&dir, 8, DurabilityConfig::SYNC_EACH).unwrap();
        // DDL (2) + begin/10 inserts/commit (12) + in-flight begin+insert (2):
        // everything is replayed, but the in-flight effects are dropped.
        assert_eq!(eng.stats().recovery_replayed_records, 16);
        let t = eng.table_by_name("t").unwrap();
        let rows = visible_rows(&eng, t.id());
        assert_eq!(rows.len(), 10, "committed rows survive, ghost does not");
        // Labels survive in tuple headers.
        let snap = eng.snapshot(eng.begin().unwrap());
        let mut labels_ok = true;
        eng.scan_visible(&snap, t.id(), |_, v| {
            labels_ok &= v.header.label.first() == Some(&7);
            true
        })
        .unwrap();
        assert!(labels_ok);
        // The index was rebuilt from the logged DDL.
        assert_eq!(eng.index_names(t.id()).unwrap(), vec!["t_pkey".to_string()]);
        let hits = eng
            .index_lookup(t.id(), "t_pkey", &vec![Datum::Int(4)])
            .unwrap();
        assert_eq!(hits.len(), 1);
        // New transactions never collide with logged ids.
        let fresh = eng.begin().unwrap();
        eng.insert(
            fresh,
            t.id(),
            vec![],
            vec![Datum::Int(100), Datum::from("new")],
        )
        .unwrap();
        eng.commit(fresh).unwrap();
        assert_eq!(visible_rows(&eng, t.id()).len(), 11);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn committed_delete_after_recovery_survives_second_recovery() {
        // Regression: replay skips uncommitted inserts, so recovered rows
        // occupy different heap slots than the log's Insert records say. A
        // delete committed *after* such a recovery logs the new slot; a
        // second recovery must still apply it (open() re-anchors the log
        // with a checkpoint whenever ids were remapped).
        let dir =
            std::env::temp_dir().join(format!("ifdb-engine-re-recovery-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        {
            let eng = StorageEngine::with_config(
                StorageKind::OnDisk {
                    dir: dir.clone(),
                    buffer_pages: 8,
                },
                DurabilityConfig::SYNC_EACH,
            )
            .unwrap();
            let table = eng
                .create_table(TableSchema::new(
                    "t",
                    vec![ColumnDef::new("id", DataType::Int)],
                ))
                .unwrap();
            // The in-flight insert claims heap slot 0, shifting the
            // committed rows' recovered slots relative to their logged ids.
            let inflight = eng.begin().unwrap();
            eng.insert(inflight, table, vec![], vec![Datum::Int(99)])
                .unwrap();
            let committed = eng.begin().unwrap();
            eng.insert(committed, table, vec![], vec![Datum::Int(1)])
                .unwrap();
            eng.insert(committed, table, vec![], vec![Datum::Int(2)])
                .unwrap();
            eng.commit(committed).unwrap();
            // Crash with `inflight` still open.
        }
        {
            let eng = StorageEngine::open(&dir, 8, DurabilityConfig::SYNC_EACH).unwrap();
            let t = eng.table_by_name("t").unwrap();
            let txn = eng.begin().unwrap();
            let snap = eng.snapshot(txn);
            let mut victim = None;
            eng.scan_visible(&snap, t.id(), |row, v| {
                if v.data[0] == Datum::Int(1) {
                    victim = Some(row);
                }
                true
            })
            .unwrap();
            eng.delete(txn, t.id(), victim.expect("row 1 recovered"))
                .unwrap();
            eng.commit(txn).unwrap();
            // Crash again.
        }
        let eng = StorageEngine::open(&dir, 8, DurabilityConfig::SYNC_EACH).unwrap();
        let t = eng.table_by_name("t").unwrap();
        let rows = visible_rows(&eng, t.id());
        assert_eq!(
            rows,
            vec![vec![Datum::Int(2)]],
            "the committed delete holds"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn abort_record_overrides_commit_record_at_replay() {
        // When a Commit append fails mid-fsync the frame may still be in
        // the log and become durable later; commit() then writes a
        // superseding Abort. Replay must side with the Abort.
        let dir =
            std::env::temp_dir().join(format!("ifdb-engine-abort-wins-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        {
            let eng = StorageEngine::with_config(
                StorageKind::OnDisk {
                    dir: dir.clone(),
                    buffer_pages: 8,
                },
                DurabilityConfig::SYNC_EACH,
            )
            .unwrap();
            let table = eng
                .create_table(TableSchema::new(
                    "t",
                    vec![ColumnDef::new("id", DataType::Int)],
                ))
                .unwrap();
            let keep = eng.begin().unwrap();
            eng.insert(keep, table, vec![], vec![Datum::Int(1)])
                .unwrap();
            eng.commit(keep).unwrap();
            let failed = eng.begin().unwrap();
            eng.insert(failed, table, vec![], vec![Datum::Int(2)])
                .unwrap();
            eng.commit(failed).unwrap();
            // Simulate the failure path's superseding record landing after
            // the (durable-after-all) Commit frame.
            eng.wal().append(LogRecord::Abort { txn: failed }).unwrap();
        }
        let eng = StorageEngine::open(&dir, 8, DurabilityConfig::SYNC_EACH).unwrap();
        let t = eng.table_by_name("t").unwrap();
        let rows = visible_rows(&eng, t.id());
        assert_eq!(
            rows,
            vec![vec![Datum::Int(1)]],
            "the aborted-after-commit txn is dropped"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_compacts_log_and_preserves_state() {
        let dir = std::env::temp_dir().join(format!("ifdb-engine-ckpt-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        {
            let eng = StorageEngine::with_config(
                StorageKind::OnDisk {
                    dir: dir.clone(),
                    buffer_pages: 8,
                },
                DurabilityConfig::SYNC_EACH,
            )
            .unwrap();
            let table = eng
                .create_table(TableSchema::new(
                    "t",
                    vec![
                        ColumnDef::new("id", DataType::Int),
                        ColumnDef::new("v", DataType::Int),
                    ],
                ))
                .unwrap();
            // Churn: every row is updated several times, so the raw history
            // is much larger than the live data.
            let mut rows = Vec::new();
            let t0 = eng.begin().unwrap();
            for i in 0..20 {
                rows.push(
                    eng.insert(t0, table, vec![], vec![Datum::Int(i), Datum::Int(0)])
                        .unwrap(),
                );
            }
            eng.commit(t0).unwrap();
            for round in 1..=5 {
                let txn = eng.begin().unwrap();
                for (i, row) in rows.iter_mut().enumerate() {
                    *row = eng
                        .update(
                            txn,
                            table,
                            *row,
                            vec![],
                            vec![Datum::Int(i as i64), Datum::Int(round)],
                        )
                        .unwrap();
                }
                eng.commit(txn).unwrap();
            }
            let before = eng.wal().len();
            let image = eng.checkpoint().unwrap();
            assert!(
                image < before,
                "image ({image}) smaller than history ({before})"
            );
            assert_eq!(eng.stats().checkpoints, 1);
            // Checkpoint during an active transaction is refused.
            let busy = eng.begin().unwrap();
            assert!(matches!(
                eng.checkpoint().unwrap_err(),
                StorageError::CheckpointBusy { active: 1 }
            ));
            eng.insert(busy, table, vec![], vec![Datum::Int(777), Datum::Int(9)])
                .unwrap();
            eng.commit(busy).unwrap();
        }
        let eng = StorageEngine::open(&dir, 8, DurabilityConfig::SYNC_EACH).unwrap();
        let t = eng.table_by_name("t").unwrap();
        let rows = visible_rows(&eng, t.id());
        assert_eq!(rows.len(), 21);
        assert!(
            rows.iter()
                .filter(|r| r[0] != Datum::Int(777))
                .all(|r| r[1] == Datum::Int(5)),
            "latest version of each row survives"
        );
        // Replay is O(live + delta), far below the 140-record history.
        assert!(eng.stats().recovery_replayed_records < 40);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn periodic_checkpoint_policy_fires() {
        let dir =
            std::env::temp_dir().join(format!("ifdb-engine-auto-ckpt-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let eng = StorageEngine::with_config(
            StorageKind::OnDisk {
                dir: dir.clone(),
                buffer_pages: 8,
            },
            DurabilityConfig::SYNC_EACH.with_checkpoint_every(5),
        )
        .unwrap();
        let table = eng
            .create_table(TableSchema::new(
                "t",
                vec![ColumnDef::new("id", DataType::Int)],
            ))
            .unwrap();
        for i in 0..12 {
            let txn = eng.begin().unwrap();
            eng.insert(txn, table, vec![], vec![Datum::Int(i)]).unwrap();
            eng.commit(txn).unwrap();
        }
        assert!(
            eng.stats().checkpoints >= 2,
            "policy checkpoints every 5 commits"
        );
        assert_eq!(visible_rows(&eng, table).len(), 12);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_soon_defers_until_quiescent() {
        let dir =
            std::env::temp_dir().join(format!("ifdb-engine-ckpt-soon-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let eng = StorageEngine::with_config(
            StorageKind::OnDisk {
                dir: dir.clone(),
                buffer_pages: 8,
            },
            DurabilityConfig::SYNC_EACH,
        )
        .unwrap();
        let table = eng
            .create_table(TableSchema::new(
                "t",
                vec![ColumnDef::new("id", DataType::Int)],
            ))
            .unwrap();
        // Quiescent: runs immediately.
        assert!(eng.checkpoint_soon().unwrap());
        assert_eq!(eng.stats().checkpoints, 1);

        // Busy: the request is deferred, and the transaction that drains the
        // active set performs it.
        let t1 = eng.begin().unwrap();
        let t2 = eng.begin().unwrap();
        eng.insert(t1, table, vec![], vec![Datum::Int(1)]).unwrap();
        assert!(
            !eng.checkpoint_soon().unwrap(),
            "deferred while txns active"
        );
        assert_eq!(eng.stats().checkpoints, 1);
        assert_eq!(eng.stats().checkpoints_deferred, 1);
        eng.commit(t1).unwrap();
        assert_eq!(eng.stats().checkpoints, 1, "still one txn active");
        eng.abort(t2).unwrap();
        assert_eq!(
            eng.stats().checkpoints,
            2,
            "drain settle ran the checkpoint"
        );

        // The checkpointed image is the live state.
        drop(eng);
        let eng = StorageEngine::open(&dir, 8, DurabilityConfig::SYNC_EACH).unwrap();
        assert_eq!(
            visible_rows(&eng, eng.table_by_name("t").unwrap().id()).len(),
            1
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn auto_checkpoint_fires_under_sustained_overlapping_load() {
        use std::sync::atomic::AtomicBool;

        let dir =
            std::env::temp_dir().join(format!("ifdb-engine-ckpt-load-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let eng = Arc::new(
            StorageEngine::with_config(
                StorageKind::OnDisk {
                    dir: dir.clone(),
                    buffer_pages: 64,
                },
                DurabilityConfig::NO_SYNC.with_checkpoint_every(25),
            )
            .unwrap(),
        );
        let table = eng
            .create_table(TableSchema::new(
                "t",
                vec![ColumnDef::new("id", DataType::Int)],
            ))
            .unwrap();
        // 4 writers keep transactions continuously overlapping, so the old
        // "only when already quiescent" policy would essentially never
        // checkpoint; the deferred request plus begin-quiesce must still
        // get checkpoints through.
        let stop = Arc::new(AtomicBool::new(false));
        std::thread::scope(|scope| {
            for w in 0..4u64 {
                let eng = eng.clone();
                let stop = stop.clone();
                scope.spawn(move || {
                    let mut i = 0i64;
                    while !stop.load(Ordering::Relaxed) {
                        let txn = eng.begin().unwrap();
                        eng.insert(
                            txn,
                            table,
                            vec![],
                            vec![Datum::Int(w as i64 * 1_000_000 + i)],
                        )
                        .unwrap();
                        eng.commit(txn).unwrap();
                        i += 1;
                    }
                });
            }
            std::thread::sleep(std::time::Duration::from_millis(600));
            stop.store(true, Ordering::Relaxed);
        });
        let stats = eng.stats();
        assert!(
            stats.checkpoints >= 1,
            "sustained load must not starve checkpointing: {stats:?}"
        );
        assert!(stats.txns_started > 100, "writers made progress: {stats:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn schema_violations_rejected() {
        let (eng, table) = engine_with_table();
        let txn = eng.begin().unwrap();
        assert!(eng
            .insert(
                txn,
                table,
                vec![],
                vec![Datum::from("wrong"), Datum::Int(1)]
            )
            .is_err());
        assert!(eng.insert(txn, table, vec![], vec![Datum::Int(1)]).is_err());
        eng.abort(txn).unwrap();
    }
}
