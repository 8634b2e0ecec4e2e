//! The storage engine facade: tables, transactions, indexes, WAL, vacuum.
//!
//! [`StorageEngine`] is what the `ifdb` crate (and, transitively, the SQL
//! front end, application platform and benchmarks) builds on. It corresponds
//! to the unmodified parts of PostgreSQL in the paper's architecture: it has
//! no notion of labels beyond storing them — each distinct label once, in the
//! engine's label dictionary ([`crate::labels`]), and its id in every tuple —
//! and the label *semantics* (Query by Label, Write Rule, polyinstantiation,
//! the Foreign Key Rule) are implemented by the layer above.

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use crate::audit::{AuditChain, AuditChainRecord};
use crate::buffer::BufferPool;
use crate::error::{StorageError, StorageResult};
use crate::heap::{DecodedSlot, PageSummary, RowId, TableHeap, Verdict};
use crate::index::{encode_key, OrderedIndex};
use crate::labels::{undefined, Entries, LabelDictionary, LabelId};
use crate::mvcc::{
    Snapshot, TransactionManager, TxnId, TxnStatus, BOOTSTRAP_TXN, REPLICA_LOCAL_TXN_BASE,
};
use crate::schema::TableSchema;
use crate::stats::EngineStats;
use crate::store::{FilePageStore, MemPageStore, PageStore};
use crate::tuple::{encode, with_mvcc_header, TupleRef, TupleVersion, MVCC_HEADER_LEN};
use crate::value::Datum;
use crate::wal::{DurabilityConfig, LogRecord, Wal};

/// The lengths of the longest prefix and the longest suffix that `new`
/// shares with `old`, which overlap in neither, each at most `u16::MAX`:
/// what an update's log record keeps of the old body.
fn shared_affixes(old: &[u8], new: &[u8]) -> (u16, u16) {
    let cap = u16::MAX as usize;
    let prefix = old.iter().zip(new).take_while(|(a, b)| a == b).count();
    let prefix = prefix.min(cap);
    let (old, new) = (&old[prefix..], &new[prefix..]);
    let suffix = old
        .iter()
        .rev()
        .zip(new.iter().rev())
        .take_while(|(a, b)| a == b)
        .count();
    (prefix as u16, suffix.min(cap) as u16)
}

/// The corruption of a logged `what` (a delete or an update) that names
/// the empty slot `row` of `table`.
fn empty_slot(what: &str, row: RowId, table: u32) -> StorageError {
    StorageError::Corruption {
        detail: format!("a logged {what} names the empty slot {row} of table {table}"),
    }
}

/// Identifier of a table within the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TableId(pub u32);

/// Where tables keep their pages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageKind {
    /// All pages in memory: the buffer pool never evicts, and a page's pool
    /// frame is its only copy.
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

impl IndexEntry {
    /// This index's key for a version whose fields are `values`.
    fn key_of(&self, values: &[Datum]) -> Vec<u8> {
        encode_key(self.columns.iter().map(|c| &values[*c]))
    }

    /// This index's key for a version read in place, decoding its key
    /// columns alone.
    fn key_of_tuple(&self, tuple: &TupleRef<'_>) -> StorageResult<Vec<u8>> {
        let key = self
            .columns
            .iter()
            .map(|c| tuple.field(*c))
            .collect::<StorageResult<Vec<Datum>>>()?;
        Ok(encode_key(&key))
    }
}

/// The index entries of dead versions, noted while their pages are read
/// and removed once they are released: by index position, each dead
/// version's key in that index and its row. A table's indexes are only ever
/// appended to, so a position names one index for the table's lifetime; an
/// index created after a version was noted keeps that version's entry for
/// the next lookup to find.
#[derive(Default)]
struct DeadEntries(Vec<Vec<(Vec<u8>, RowId)>>);

impl DeadEntries {
    /// Notes the entries of `tuple`, the dead version at `row`, in each of
    /// `indexes`.
    fn note(
        &mut self,
        indexes: &[IndexEntry],
        tuple: &TupleRef<'_>,
        row: RowId,
    ) -> StorageResult<()> {
        self.0.resize_with(indexes.len(), Vec::new);
        for (entry, keys) in indexes.iter().zip(&mut self.0) {
            keys.push((entry.key_of_tuple(tuple)?, row));
        }
        Ok(())
    }

    /// Removes the noted entries from `indexes`, each index under its own
    /// write lock; returns how many were there.
    fn remove(&mut self, indexes: &[IndexEntry]) -> u64 {
        indexes
            .iter()
            .zip(&mut self.0)
            .map(|(entry, keys)| entry.index.remove(keys))
            .sum()
    }
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

    /// Records `row`, a version whose fields are `values`, in every index.
    fn index_row(&self, values: &[Datum], row: RowId) {
        for entry in self.indexes.read().iter() {
            entry.index.insert(&entry.key_of(values), row);
        }
    }

    /// [`Table::index_row`] for a version read in place.
    fn index_tuple(&self, tuple: &TupleRef<'_>, row: RowId) -> StorageResult<()> {
        for entry in self.indexes.read().iter() {
            entry.index.insert(&entry.key_of_tuple(tuple)?, row);
        }
        Ok(())
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
    pages_skipped: AtomicU64,
    pages_decoded: AtomicU64,
    rows_rejected_by_bounds: AtomicU64,
    full_table_scans: AtomicU64,
    index_point_lookups: AtomicU64,
    index_range_scans: AtomicU64,
    index_rows_fetched: AtomicU64,
    index_entries_dropped: AtomicU64,
    label_checks: AtomicU64,
    label_page_checks: AtomicU64,
    recovery_replayed_records: AtomicU64,
    checkpoints: AtomicU64,
    commits_since_checkpoint: AtomicU64,
    vacuums: AtomicU64,
    commits_since_vacuum: AtomicU64,
    replica_records_applied: AtomicU64,
    /// The write gate: each operation that changes both in-memory state and
    /// the log holds it shared from start to finish, and
    /// [`StorageEngine::checkpoint`] holds it exclusively, so an image sees
    /// every such operation whole or not at all. Nothing takes it twice on
    /// one thread: a shared acquisition queues behind a waiting checkpoint.
    ///
    /// Lock order: gate → audit chain → label dictionary → the log's append
    /// lock. Redo, reads and [`StorageEngine::append_audit`] do not take it.
    gate: RwLock<()>,
    /// The tamper-evident audit chain ([`crate::audit`]): every link is also
    /// a [`LogRecord::Audit`] in the WAL, so the chain is durable, survives
    /// checkpoint compaction (images re-log it) and ships to replicas.
    ///
    /// Lock order: the chain lock is taken *before* the log's append lock
    /// ([`StorageEngine::append_audit`] holds it across the WAL append so
    /// chain order always matches log order), and checkpoints take it before
    /// `rewrite_with` for the same reason. Never acquire it the other way.
    audit: Mutex<AuditChain>,
    /// Every distinct label, once ([`crate::labels`]). A new label's
    /// `Label` record is appended under the dictionary's lock, so that lock
    /// too is taken before the log's append lock; checkpoints take it after
    /// the chain lock and hold it across `rewrite_with`. A replica reset
    /// swaps in an empty dictionary rather than emptying this one, so a
    /// statement still reading the discarded heap resolves its ids against
    /// the dictionary they were written under.
    labels: RwLock<Arc<LabelDictionary>>,
}

impl std::fmt::Debug for StorageEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StorageEngine")
            .field("kind", &self.kind)
            .field("tables", &self.tables.read().len())
            .finish()
    }
}

/// What a scan counted, added to an engine counter when the scan ends, on
/// the error paths too.
struct Counted<'a> {
    n: u64,
    counter: &'a AtomicU64,
}

impl<'a> Counted<'a> {
    fn new(counter: &'a AtomicU64) -> Self {
        Counted { n: 0, counter }
    }
}

impl Drop for Counted<'_> {
    fn drop(&mut self) {
        self.counter.fetch_add(self.n, Ordering::Relaxed);
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
            // 8 GiB of pages: the pool never evicts, so the frames are the
            // pages' only copy and the page store stays empty.
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
            pages_skipped: AtomicU64::new(0),
            pages_decoded: AtomicU64::new(0),
            rows_rejected_by_bounds: AtomicU64::new(0),
            full_table_scans: AtomicU64::new(0),
            index_point_lookups: AtomicU64::new(0),
            index_range_scans: AtomicU64::new(0),
            index_rows_fetched: AtomicU64::new(0),
            index_entries_dropped: AtomicU64::new(0),
            label_checks: AtomicU64::new(0),
            label_page_checks: AtomicU64::new(0),
            recovery_replayed_records: AtomicU64::new(0),
            checkpoints: AtomicU64::new(0),
            commits_since_checkpoint: AtomicU64::new(0),
            vacuums: AtomicU64::new(0),
            commits_since_vacuum: AtomicU64::new(0),
            replica_records_applied: AtomicU64::new(0),
            gate: RwLock::new(()),
            audit: Mutex::new(AuditChain::new()),
            labels: RwLock::new(Arc::new(LabelDictionary::new())),
        }
    }

    /// Opens (recovers) a file-backed engine from `dir` by redoing the
    /// write-ahead log, record by record, through the same path a replica
    /// applies its primary's stream with: tables and indexes are recreated
    /// from the logged DDL, every tuple version goes back to its logged row
    /// id (so the heap keeps the layout, and the holes, it had), deletes
    /// and transaction outcomes are re-applied, and 2PC participants
    /// prepared without a decision come back in doubt. At the end of the
    /// log every other unresolved transaction — in flight at the crash —
    /// aborts, and the id allocator moves past the log's ids. A torn tail
    /// left by a crash mid-append is truncated with a warning rather than
    /// failing the recovery.
    ///
    /// A directory with no log opens as an empty engine, so first boot and
    /// restart share this path.
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
        // The parsed records are redone once and dropped: the log keeps
        // only where their frames are.
        for record in &recovery.records {
            engine.redo(record)?;
        }
        engine.txns.abort_orphaned_replicated();
        engine.txns.allocate_past_logged_ids();
        engine
            .recovery_replayed_records
            .store(recovery.records.len() as u64, Ordering::Relaxed);
        Ok(engine)
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

    /// The label dictionary: the tags behind the label ids tuples carry.
    pub fn labels(&self) -> Arc<LabelDictionary> {
        Arc::clone(&self.labels.read())
    }

    // ------------------------------------------------------------------
    // DDL
    // ------------------------------------------------------------------

    /// Creates a table with the given schema. The DDL is logged, so the
    /// table (and everything later inserted into it) survives
    /// [`StorageEngine::open`].
    pub fn create_table(&self, schema: TableSchema) -> StorageResult<TableId> {
        let _gate = self.gate.read();
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
        let _gate = self.gate.read();
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
        let entry = IndexEntry {
            name: name.to_string(),
            columns: col_idx,
            index: OrderedIndex::new(),
        };
        t.heap.walk::<StorageError>(
            &[],
            |_| Ok(Verdict::Read),
            |row, _, tuple| {
                entry.index.insert(&entry.key_of_tuple(&tuple)?, row);
                Ok(true)
            },
        )?;
        indexes.push(entry);
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
    /// `Insert`/`Update`/`Delete`/`Prepare` record, so a transaction that never
    /// writes never existed for the log or a replica.
    pub fn begin(&self) -> StorageResult<TxnId> {
        Ok(self.txns.begin())
    }

    /// Appends `txn`'s `Begin` if this is its first log record. A
    /// transaction is driven by one session at a time, so the `Begin` lands
    /// directly ahead of the record the caller appends next.
    ///
    /// A transaction begun while this engine was a replica (its id in the
    /// reserved local range) may not write once the engine is promoted: its
    /// id sits above every snapshot horizon of the new timeline, so its
    /// commit would stay invisible. It fails; the caller begins afresh.
    fn log_begin_once(&self, txn: TxnId) -> StorageResult<()> {
        if txn.0 >= REPLICA_LOCAL_TXN_BASE {
            return Err(StorageError::InvalidTransaction(txn.0));
        }
        if self.txns.note_first_write(txn) {
            self.wal.append(LogRecord::Begin { txn })?;
        }
        Ok(())
    }

    /// Commits a transaction. With `sync_on_commit` durability the call
    /// returns only once the commit record is on the device — via the
    /// transaction's own fsync, or a shared one under group commit. When a
    /// periodic-checkpoint policy is configured
    /// ([`DurabilityConfig::with_checkpoint_every`]), every `n`-th commit
    /// then takes a checkpoint.
    ///
    /// A transaction that wrote nothing has no commit record: it appends
    /// nothing, never fsyncs, and does not count towards the periodic
    /// checkpoint/vacuum policies.
    pub fn commit(&self, txn: TxnId) -> StorageResult<()> {
        if !self.commit_under_gate(txn)? {
            return Ok(());
        }
        // The policies run outside the gate: a checkpoint takes it
        // exclusively.
        if let Some(every) = self.durability.checkpoint_every_commits {
            let n = self
                .commits_since_checkpoint
                .fetch_add(1, Ordering::Relaxed)
                + 1;
            if n >= every {
                // The transaction is durably committed at this point: an
                // auto-checkpoint failure must not turn a successful commit
                // into an error (the caller would retry and double-apply).
                // Surface it out of band.
                if let Err(e) = self.checkpoint() {
                    eprintln!("wal: auto-checkpoint failed after commit: {e}");
                }
            }
        }
        if let Some(every) = self.durability.vacuum_every_commits {
            let n = self.commits_since_vacuum.fetch_add(1, Ordering::Relaxed) + 1;
            // Auto-vacuum rides the commit settle path: the transaction is
            // already durably committed, so a vacuum failure is surfaced
            // out of band rather than turning a successful commit into an
            // error. Concurrent vacuum is *correct* (version retention is
            // commit-stamp based, and it removes only the index entries of
            // the versions it reclaims), so the quiescence probe is purely
            // a latency courtesy:
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

    /// [`StorageEngine::commit`] up to the periodic policies, under the
    /// gate; returns whether the transaction logged a commit record.
    fn commit_under_gate(&self, txn: TxnId) -> StorageResult<bool> {
        let _gate = self.gate.read();
        // The log record is the commit point: it must be durable *before*
        // the transaction is marked committed in memory, or a concurrent
        // reader could observe (and re-publish, via its own durable commit)
        // effects whose commit record never reaches the device. The
        // active→committing claim is atomic, so two racing commit() calls
        // cannot both append a durable Commit record.
        if !self.txns.begin_commit(txn)? {
            self.txns.finish_commit(txn)?;
            return Ok(false);
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
        Ok(true)
    }

    /// Aborts a transaction. The tuple versions it wrote remain in the heap
    /// but are never visible; vacuum reclaims them.
    pub fn abort(&self, txn: TxnId) -> StorageResult<()> {
        let _gate = self.gate.read();
        if self.txns.settle(txn, TxnStatus::Aborted)? {
            self.wal.append(LogRecord::Abort { txn })?;
        }
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
        let _gate = self.gate.read();
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
        let _gate = self.gate.read();
        let Some(txn) = self.txns.prepared_txn(gid) else {
            return Ok(false);
        };
        // Log the decision before flipping in-memory state (same ordering
        // rule as commit): if the append fails the transaction simply stays
        // prepared and the coordinator retries.
        self.wal.append(LogRecord::Decide { txn, commit })?;
        self.txns.finish_prepared(gid, commit);
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
    /// (an event serialized by the layer above), appends it to the
    /// write-ahead log, and only then keeps it in the chain: a link the log
    /// refused is not kept, so the chain's head, its length and its
    /// verification are as before the call, and the error is returned. The
    /// chain lock is held across the log append so the chain's order and
    /// the log's order can never diverge. Returns the link's sequence number.
    ///
    /// The link is as durable as the surrounding history: it rides the next
    /// commit's fsync rather than paying its own, which keeps audit appends
    /// off the commit critical path while still guaranteeing that any
    /// committed transaction the event preceded in the log is only
    /// recoverable *with* the event.
    pub fn append_audit(&self, bytes: Vec<u8>) -> StorageResult<u64> {
        let mut chain = self.audit.lock();
        let link = chain.forge(bytes);
        let seq = link.seq;
        self.wal.append(link.to_log_record())?;
        chain
            .accept(link)
            .expect("a forged link extends the chain it was forged on");
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

    /// Inserts a tuple with the given label, returning its row id. A
    /// version the log refuses is killed again, so a failed insert leaves
    /// nothing a commit could show.
    pub fn insert(
        &self,
        txn: TxnId,
        table: TableId,
        label: Vec<u64>,
        values: Vec<Datum>,
    ) -> StorageResult<RowId> {
        let _gate = self.gate.read();
        let t = self.table(table)?;
        t.schema.check_tuple(&values)?;
        let label = self.intern(&label)?;
        let mut bytes = encode(txn, label, &values);
        self.log_begin_once(txn)?;
        let (row, chain) = t.heap.insert(label, &bytes)?;
        // The log takes the body: the same bytes, without the MVCC header.
        bytes.drain(..MVCC_HEADER_LEN);
        let logged = self.wal.append(LogRecord::Insert {
            txn,
            table: table.0,
            row,
            chain,
            body: bytes,
        });
        if let Err(e) = logged {
            t.heap.kill(row)?;
            return Err(e);
        }
        t.index_row(&values, row);
        self.tuples_inserted.fetch_add(1, Ordering::Relaxed);
        Ok(row)
    }

    /// The dictionary id of `label`, logging a [`LogRecord::Label`] first if
    /// the label is new.
    fn intern(&self, label: &[u64]) -> StorageResult<LabelId> {
        self.labels().intern(label, |id, tags| {
            self.wal.append(LogRecord::Label {
                id,
                tags: tags.to_vec(),
            })
        })
    }

    /// Marks the version at `row` deleted by `txn`, enforcing
    /// first-updater-wins: if another transaction already deleted or
    /// superseded the version (and did not abort), the call fails with
    /// [`StorageError::WriteConflict`].
    ///
    /// Only a version whose `Insert` (or `Update`) the log already holds can
    /// be deleted, so redo always finds the slot a `Delete` names: one its
    /// writer aborted never existed ([`StorageError::UnknownRow`]), and one
    /// its writer is still running is that writer's (a write conflict). A
    /// `Delete` the log refuses undoes the claim.
    pub fn delete(&self, txn: TxnId, table: TableId, row: RowId) -> StorageResult<()> {
        let _gate = self.gate.read();
        let t = self.table(table)?;
        let (seen, ()) = self.claim(&t, txn, row, |_| ())?;
        if seen == Some(txn) {
            // Deleting twice in the same transaction is a no-op.
            return Ok(());
        }
        let logged = self.wal.append(LogRecord::Delete {
            txn,
            table: table.0,
            row,
        });
        if let Err(e) = logged {
            t.heap.compare_and_set_xmax(row, Some(txn), seen)?;
            return Err(e);
        }
        self.tuples_deleted.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Sets the `xmax` of the version at `row` to `txn` under
    /// first-updater-wins, logging nothing but `txn`'s `Begin`. Returns the
    /// `xmax` the version had (`Some(txn)` if `txn` already held it, and
    /// then nothing changed) and what `look` made of the version on the
    /// page access that decided the claim.
    ///
    /// The claim is a compare-and-set on the slot's `xmax`: read it in
    /// place, decide, then set it only if the slot still holds what was
    /// read, else decide again. Of two transactions racing for one version
    /// exactly one wins; the other sees the winner as the holder. The
    /// decision consults the transaction table, which is never locked under
    /// the pool mutex, so it happens between the two page accesses.
    fn claim<R>(
        &self,
        t: &Table,
        txn: TxnId,
        row: RowId,
        look: impl Fn(&TupleRef<'_>) -> R,
    ) -> StorageResult<(Option<TxnId>, R)> {
        loop {
            let (xmin, seen, looked) = t
                .heap
                .read::<_, StorageError>(row, |v| Ok((v.xmin(), v.xmax(), look(&v))))?
                .ok_or(StorageError::UnknownRow {
                    page: row.page,
                    slot: row.slot,
                })?;
            if xmin != txn {
                match self.txns.status(xmin) {
                    TxnStatus::Committed => {}
                    TxnStatus::Aborted => {
                        return Err(StorageError::UnknownRow {
                            page: row.page,
                            slot: row.slot,
                        })
                    }
                    TxnStatus::InProgress => {
                        return Err(StorageError::WriteConflict {
                            txn: txn.0,
                            holder: xmin.0,
                        })
                    }
                }
            }
            if let Some(holder) = seen {
                if holder == txn {
                    return Ok((seen, looked));
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
                return Ok((seen, looked));
            }
        }
    }

    /// Updates the version at `row`: marks it superseded and inserts a new
    /// version with `values` and `label`. Returns the new row id.
    ///
    /// The old version is claimed as [`StorageEngine::delete`] claims it,
    /// and the update is one [`LogRecord::Update`], whose new body is only
    /// the bytes that differ from the old body, found on the page access
    /// that claimed it. A new version the heap cannot place (one too large,
    /// say) undoes the claim, and an `Update` the log refuses also kills the
    /// new version, so a failed update leaves the old version as it was and
    /// no new one.
    pub fn update(
        &self,
        txn: TxnId,
        table: TableId,
        row: RowId,
        label: Vec<u64>,
        values: Vec<Datum>,
    ) -> StorageResult<RowId> {
        let _gate = self.gate.read();
        let t = self.table(table)?;
        t.schema.check_tuple(&values)?;
        let label = self.intern(&label)?;
        let bytes = encode(txn, label, &values);
        let body = &bytes[MVCC_HEADER_LEN..];
        let (seen, (prefix, suffix)) =
            self.claim(&t, txn, row, |old| shared_affixes(old.body(), body))?;
        let unclaim = |e: StorageError| {
            if seen != Some(txn) {
                t.heap.compare_and_set_xmax(row, Some(txn), seen)?;
            }
            Err(e)
        };
        let (new, chain) = match t.heap.insert(label, &bytes) {
            Ok(placed) => placed,
            Err(e) => return unclaim(e),
        };
        let logged = self.wal.append(LogRecord::Update {
            txn,
            table: table.0,
            old: row,
            row: new,
            chain,
            prefix,
            suffix,
            middle: body[prefix as usize..body.len() - suffix as usize].to_vec(),
        });
        if let Err(e) = logged {
            t.heap.kill(new)?;
            return unclaim(e);
        }
        t.index_row(&values, new);
        if seen != Some(txn) {
            self.tuples_deleted.fetch_add(1, Ordering::Relaxed);
        }
        self.tuples_inserted.fetch_add(1, Ordering::Relaxed);
        Ok(new)
    }

    /// Fetches the version at `row` if it is visible to `snapshot`.
    pub fn fetch_visible(
        &self,
        snapshot: &Snapshot,
        table: TableId,
        row: RowId,
    ) -> StorageResult<Option<TupleVersion>> {
        let mut found = None;
        let labels = self.labels();
        self.visit_rows::<StorageError>(snapshot, table, [row], |_, t| {
            found = Some(t.to_version(&labels)?);
            Ok(true)
        })?;
        Ok(found)
    }

    /// Scans every version visible to `snapshot`, invoking `f` for each.
    /// Returning `false` from `f` stops the scan. Every version walked
    /// counts towards `tuples_scanned`; no page's column view is built or
    /// read.
    pub fn scan_visible(
        &self,
        snapshot: &Snapshot,
        table: TableId,
        mut f: impl FnMut(RowId, TupleVersion) -> bool,
    ) -> StorageResult<()> {
        let t = self.table(table)?;
        self.full_table_scans.fetch_add(1, Ordering::Relaxed);
        let labels = self.labels();
        let mut walked = Counted::new(&self.tuples_scanned);
        let mut visibility = self.txns.visibility(snapshot);
        t.heap.walk::<StorageError>(
            &[],
            |_| Ok(Verdict::Read),
            |row, _, tuple| {
                walked.n += 1;
                if !visibility.is_visible(tuple.xmin(), tuple.xmax()) {
                    return Ok(true);
                }
                Ok(f(row, tuple.to_version(&labels)?))
            },
        )
    }

    /// A statement's full scan: [`StorageEngine::scan_visible`] deciding
    /// each slot before it is read, and without building the versions.
    ///
    /// Before a page is pinned, `verdict` decides it from its summary, with
    /// its ranges on `columns` ([`TableHeap::walk`]); a page it skips counts
    /// towards `pages_skipped`. On a page it reads, `decide` gets each live
    /// slot's page label id (`Some` on a chain page, where every tuple
    /// carries it) and the slot as the page's column view shows it — its
    /// label id and its `Int`s at `columns` ([`TableHeap::walk_deciding`]);
    /// each column decoded into a view counts towards `pages_decoded`. Only
    /// a slot `decide` keeps is parsed and asked its visibility, and `f`
    /// reads each visible one in place ([`TupleRef`]) and materialises what
    /// it keeps; `Ok(false)` stops the scan. The tags behind an id are
    /// [`StorageEngine::labels`]'. Every live slot walked counts towards
    /// `tuples_scanned`, however the scan ends.
    pub fn visit_visible<E: From<StorageError>>(
        &self,
        snapshot: &Snapshot,
        table: TableId,
        columns: &[usize],
        mut verdict: impl FnMut(&PageSummary<'_>) -> Result<Verdict, E>,
        mut decide: impl FnMut(Option<LabelId>, DecodedSlot<'_>) -> Result<bool, E>,
        mut f: impl FnMut(RowId, Option<LabelId>, TupleRef<'_>) -> Result<bool, E>,
    ) -> Result<(), E> {
        let t = self.table(table)?;
        self.full_table_scans.fetch_add(1, Ordering::Relaxed);
        let mut walked = Counted::new(&self.tuples_scanned);
        let mut skipped = Counted::new(&self.pages_skipped);
        let mut visibility = self.txns.visibility(snapshot);
        t.heap.walk_deciding(
            columns,
            |page| {
                let v = verdict(page)?;
                skipped.n += u64::from(v == Verdict::Skip);
                Ok(v)
            },
            &self.pages_decoded,
            |page_label, slot| {
                walked.n += 1;
                decide(page_label, slot)
            },
            |row, page_label, tuple| {
                if visibility.is_visible(tuple.xmin(), tuple.xmax()) {
                    f(row, page_label, tuple)
                } else {
                    Ok(true)
                }
            },
        )
    }

    /// Fetches each of `rows` (row ids an index returned) and invokes `f`
    /// with those visible to `snapshot`, read in place; `Ok(false)` stops.
    ///
    /// A row whose slot vacuum has reclaimed since the index handed it out
    /// is skipped like any version the snapshot cannot see. A version it
    /// cannot see and that is dead to every snapshot
    /// ([`crate::mvcc::ScanVisibility::is_dead`]) is noted with its key in
    /// each of the table's indexes, and once the walk is over, with no page
    /// pinned, exactly those entries are removed, however the walk ended.
    /// Every row id read counts towards `index_rows_fetched`, every entry
    /// removed towards `index_entries_dropped`.
    pub fn visit_rows<E: From<StorageError>>(
        &self,
        snapshot: &Snapshot,
        table: TableId,
        rows: impl IntoIterator<Item = RowId>,
        mut f: impl FnMut(RowId, TupleRef<'_>) -> Result<bool, E>,
    ) -> Result<(), E> {
        let t = self.table(table)?;
        let mut visibility = self.txns.visibility(snapshot);
        let mut fetched = Counted::new(&self.index_rows_fetched);
        let mut dead = DeadEntries::default();
        let mut visited = Ok(());
        for row in rows {
            fetched.n += 1;
            let read = t.heap.read(row, |tuple| {
                let (xmin, xmax) = (tuple.xmin(), tuple.xmax());
                if visibility.is_visible(xmin, xmax) {
                    return f(row, tuple);
                }
                if visibility.is_dead(xmin, xmax) {
                    dead.note(&t.indexes.read(), &tuple, row)?;
                }
                Ok(true)
            });
            match read {
                Ok(Some(false)) => break,
                Ok(_) => {}
                Err(e) => {
                    visited = Err(e);
                    break;
                }
            }
        }
        // A walk that met no dead version, as a point read's does, takes
        // no lock and touches no counter for it.
        if !dead.0.is_empty() {
            let dropped = dead.remove(&t.indexes.read());
            self.index_entries_dropped
                .fetch_add(dropped, Ordering::Relaxed);
        }
        visited
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

    /// Records `rows` that a full scan walked, whose labels admitted them,
    /// and that it then rejected on their `Int`s in the page's column view
    /// ([`DecodedSlot::ints_within`]), visible or not. Like
    /// [`StorageEngine::count_label_checks`], the executor decides and
    /// reports; the count sits in [`EngineStats`] beside `pages_skipped`.
    pub fn count_rows_rejected_by_bounds(&self, rows: u64) {
        self.rows_rejected_by_bounds
            .fetch_add(rows, Ordering::Relaxed);
    }

    /// Point lookup through the named index: returns the row ids whose
    /// indexed columns equal `key`. Visibility is *not* applied here.
    pub fn index_lookup(
        &self,
        table: TableId,
        index: &str,
        key: &[Datum],
    ) -> StorageResult<Vec<RowId>> {
        self.index_point_lookups.fetch_add(1, Ordering::Relaxed);
        self.with_index(table, index, |i| i.get(key))
    }

    /// Range lookup through the named index, in key order: inclusive bounds
    /// that are key prefixes, the high one taking in every key that extends
    /// it ([`OrderedIndex::range_of_prefixes`]).
    pub fn index_range(
        &self,
        table: TableId,
        index: &str,
        low: Option<&[Datum]>,
        high: Option<&[Datum]>,
    ) -> StorageResult<Vec<RowId>> {
        self.index_range_scans.fetch_add(1, Ordering::Relaxed);
        self.with_index(table, index, |i| i.range_of_prefixes(low, high))
    }

    /// Prefix lookup through the named index: row ids whose keys start with
    /// `prefix` (an equality on the leading index columns), in key order.
    pub fn index_prefix(
        &self,
        table: TableId,
        index: &str,
        prefix: &[Datum],
    ) -> StorageResult<Vec<RowId>> {
        self.index_range_scans.fetch_add(1, Ordering::Relaxed);
        self.with_index(table, index, |i| i.prefix(prefix))
    }

    /// Runs `f` on the index of `table` named `index`.
    fn with_index<R>(
        &self,
        table: TableId,
        index: &str,
        f: impl FnOnce(&OrderedIndex) -> R,
    ) -> StorageResult<R> {
        let t = self.table(table)?;
        let indexes = t.indexes.read();
        let entry = indexes
            .iter()
            .find(|e| e.name == index)
            .ok_or_else(|| StorageError::UnknownIndex(index.to_string()))?;
        Ok(f(&entry.index))
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

    /// Removes tuple versions that no snapshot can ever see again
    /// ([`crate::mvcc::DeadVersions`]): versions written by aborted
    /// transactions, and versions deleted by transactions that committed
    /// before every active transaction began. Exactly the index entries of
    /// the removed versions go with them: their keys are taken while the
    /// walk reads them, and removed once it is over. The table's index list
    /// is held shared throughout, so an index back-fill (which holds it
    /// exclusively) either ran before the walk, and its entries are among
    /// those removed, or runs after it and never sees the removed versions.
    pub fn vacuum(&self) -> StorageResult<usize> {
        let tables: Vec<Arc<Table>> = self.tables.read().values().cloned().collect();
        let mut removed_total = 0;
        for t in tables {
            let indexes = t.indexes.read();
            let mut versions = self.txns.dead_versions();
            let mut dead = DeadEntries::default();
            let mut unkeyed = Ok(());
            let removed = t.heap.vacuum(|row, v| {
                if unkeyed.is_err() || !versions.is_dead(v.xmin(), v.xmax()) {
                    return false;
                }
                // A version whose keys cannot be read stays, and so do its
                // entries; the error ends the pass.
                match dead.note(&indexes, v, row) {
                    Ok(()) => true,
                    Err(e) => {
                        unkeyed = Err(e);
                        false
                    }
                }
            });
            // Every noted version is dead, reclaimed or not: its entries go
            // even when the pass failed part-way.
            dead.remove(&indexes);
            removed_total += removed?;
            unkeyed?;
        }
        self.vacuums.fetch_add(1, Ordering::Relaxed);
        Ok(removed_total)
    }

    /// Serializes a consistent snapshot of the engine into the log and
    /// truncates the history before it, so that [`StorageEngine::open`]
    /// replays O(live data + post-checkpoint delta) records instead of the
    /// full history. The checkpoint runs beside transactions: it neither
    /// waits for them to finish nor refuses while they run. It holds the
    /// write gate exclusively, so it sees each logged operation whole, and
    /// the image it installs (crash-atomically, by temp file and rename) is:
    ///
    /// 1. the DDL of every table and index, then every label of the
    ///    dictionary;
    /// 2. one `Insert` under the always-committed bootstrap transaction per
    ///    committed live version, at its row id;
    /// 3. every running transaction the log names: its `Begin`, then, from
    ///    one walk of each heap, an `Insert` under its id for each version
    ///    it wrote and a `Delete` for each version it marked, then `Prepare`
    ///    for those in doubt. Its later records follow in the new tail;
    /// 4. the audit chain, an `Epoch` when the generation is above 1, and the
    ///    `Checkpoint` marker.
    ///
    /// Readers appear nowhere in it: they wrote nothing. Returns the number
    /// of records in the installed image.
    pub fn checkpoint(&self) -> StorageResult<usize> {
        let _gate = self.gate.write();
        // Chain lock before the log's append lock (see the `audit` field
        // docs): holding it across the rewrite keeps a concurrent
        // `append_audit` from logging a link the image would then discard.
        let audit = self.audit.lock();
        let dictionary = self.labels();
        let labels = dictionary.read();
        let count = self.wal.rewrite_with(|emit| {
            let tables = self.tables.read();
            let ids = self.emit_live_state(&tables, &labels, emit)?;
            self.emit_in_flight(&tables, &ids, emit)?;
            // The audit chain survives compaction the same way live rows
            // do: every link is re-logged into the image.
            for r in audit.records() {
                emit(r.to_log_record())?;
            }
            // Promotions survive checkpoint truncation: the image re-logs
            // the generation the same way it re-logs live rows.
            if self.wal.generation() > 1 {
                emit(LogRecord::Epoch {
                    generation: self.wal.generation(),
                })?;
            }
            emit(LogRecord::Checkpoint)
        })?;
        drop(labels);
        drop(audit);
        self.checkpoints.fetch_add(1, Ordering::Relaxed);
        self.commits_since_checkpoint.store(0, Ordering::Relaxed);
        Ok(count)
    }

    /// Emits what every checkpoint image starts with: the DDL of each table
    /// and index, then every label of the dictionary `labels` under the id
    /// it has, so the ids the rows carry keep their meaning, then one
    /// `Insert` under the always-committed bootstrap transaction per tuple
    /// version a fresh snapshot sees. Returns the table ids in the order
    /// emitted.
    fn emit_live_state(
        &self,
        tables: &HashMap<TableId, Arc<Table>>,
        labels: &Entries,
        emit: &mut dyn FnMut(LogRecord) -> StorageResult<()>,
    ) -> StorageResult<Vec<TableId>> {
        let snap = self.txns.snapshot(BOOTSTRAP_TXN);
        let mut ids: Vec<TableId> = tables.keys().copied().collect();
        ids.sort();
        for id in &ids {
            let t = &tables[id];
            emit(LogRecord::CreateTable {
                id: id.0,
                schema: t.schema.clone(),
            })?;
            for entry in t.indexes.read().iter() {
                emit(LogRecord::CreateIndex {
                    table: id.0,
                    name: entry.name.clone(),
                    columns: entry.columns.iter().map(|c| *c as u16).collect(),
                })?;
            }
        }
        for (id, tags) in labels.defined() {
            emit(LogRecord::Label {
                id,
                tags: tags.to_vec(),
            })?;
        }
        let mut visibility = self.txns.visibility(&snap);
        for id in &ids {
            tables[id].heap.walk::<StorageError>(
                &[],
                |_| Ok(Verdict::Read),
                |row, label, tuple| {
                    if visibility.is_visible(tuple.xmin(), tuple.xmax()) {
                        // The image represents settled history: every row in
                        // it is committed before anything that can follow, so
                        // its logged `xmin` is the bootstrap transaction.
                        emit(LogRecord::Insert {
                            txn: BOOTSTRAP_TXN,
                            table: id.0,
                            row,
                            chain: label.is_some(),
                            body: tuple.body().to_vec(),
                        })?;
                    }
                    Ok(true)
                },
            )?;
        }
        Ok(ids)
    }

    /// Emits the running transactions the log names, after the live state
    /// (`ids` are its tables): each one's `Begin`, then its effects from
    /// one walk of each heap, then `Prepare` for those in doubt. Their
    /// effects redo invisible, and redo holds a `Prepare` with no `Decide`
    /// in doubt, so the image's reader settles each as its log tail says —
    /// or, at the end of the log, as recovery settles in-flight work.
    fn emit_in_flight(
        &self,
        tables: &HashMap<TableId, Arc<Table>>,
        ids: &[TableId],
        emit: &mut dyn FnMut(LogRecord) -> StorageResult<()>,
    ) -> StorageResult<()> {
        let writers = self.txns.logged_active();
        if writers.is_empty() {
            return Ok(());
        }
        for (txn, _) in &writers {
            emit(LogRecord::Begin { txn: *txn })?;
        }
        let running: HashSet<TxnId> = writers.iter().map(|(txn, _)| *txn).collect();
        for id in ids {
            tables[id].heap.walk::<StorageError>(
                &[],
                |_| Ok(Verdict::Read),
                |row, label, tuple| {
                    if running.contains(&tuple.xmin()) {
                        emit(LogRecord::Insert {
                            txn: tuple.xmin(),
                            table: id.0,
                            row,
                            chain: label.is_some(),
                            body: tuple.body().to_vec(),
                        })?;
                    }
                    // A row it inserted and then deleted or updated takes both
                    // records: a logged insert has no `xmax`.
                    if let Some(txn) = tuple.xmax().filter(|x| running.contains(x)) {
                        emit(LogRecord::Delete {
                            txn,
                            table: id.0,
                            row,
                        })?;
                    }
                    Ok(true)
                },
            )?;
        }
        for (txn, gid) in writers {
            if let Some(gid) = gid {
                emit(LogRecord::Prepare { txn, gid })?;
            }
        }
        Ok(())
    }

    /// Turns this replica engine into a primary of `generation`. Streamed
    /// transactions whose outcome will never arrive abort (the primary that
    /// ran them is gone: the crash-recovery rule, applied to the dead
    /// stream), the log adopts the generation, and a checkpoint writes the
    /// full state — in-doubt 2PC transactions included — into the node's
    /// own log, empty until now, which it serves and replicates from here
    /// on. Open replica-local readers do not hold it up. Meant for a
    /// replica only: on a primary, the first step would abort its own
    /// running writers.
    pub fn promote_to_primary(&self, generation: u64) -> StorageResult<usize> {
        self.txns.abort_orphaned_replicated();
        self.wal.set_generation(generation);
        let count = self.checkpoint()?;
        // From here on this node's transactions are a primary's: they leave
        // the id range reserved for replica-local readers.
        self.txns.allocate_past_logged_ids();
        Ok(count)
    }

    // ------------------------------------------------------------------
    // Replication (continuous apply)
    // ------------------------------------------------------------------

    /// Applies one record shipped from a primary's log to this engine by
    /// redoing it exactly as [`StorageEngine::open`] redoes its own log.
    ///
    /// This bypasses the local write-ahead log: a replica's engine is a
    /// cache of the primary's log, exactly as heap files are a cache of the
    /// local one.
    pub fn apply_replicated(&self, record: &LogRecord) -> StorageResult<()> {
        self.redo(record)?;
        self.replica_records_applied.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Redoes one log record: the one path by which both
    /// [`StorageEngine::open`] and a replica rebuild state from a log.
    ///
    /// Outcomes are not known ahead: inserts, updates and deletes apply as
    /// they come, carrying their writers' transaction ids in tuple headers,
    /// and stay invisible until the writer's `Commit` (or commit `Decide`)
    /// applies. Every version goes to the row id and page kind its `Insert`
    /// or `Update` names ([`TableHeap::place`]), so a later `Delete` or
    /// `Update` names the slot it means, and one that names an empty slot
    /// is corruption. An `Update`'s new body is rebuilt from the body its
    /// old slot holds. Labels are defined in the order they were logged in,
    /// and a version whose tuple names a label no `Label` record defined is
    /// corruption.
    fn redo(&self, record: &LogRecord) -> StorageResult<()> {
        match record {
            LogRecord::CreateTable { id, schema } => {
                self.next_table.fetch_max(*id as u64 + 1, Ordering::SeqCst);
                // Idempotent: a checkpoint racing the DDL append can leave
                // the same definition both in the image and as a trailing
                // record, and re-installing would discard the table's rows.
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
            LogRecord::Commit { txn } => self.txns.commit_replicated(*txn),
            // An Abort overrides an earlier Commit or Prepare whose record
            // reached the log but could not be made durable (see
            // `commit`), so a prepared gid settles as decided-abort.
            LogRecord::Abort { txn } => {
                self.txns.settle_prepared_replicated(*txn, false);
                self.txns.abort_replicated(*txn);
            }
            LogRecord::Insert {
                txn,
                table,
                row,
                chain,
                body,
            } => {
                let t = self.table(TableId(*table))?;
                self.redo_place(&t, *row, *chain, &with_mvcc_header(*txn, body))?;
            }
            LogRecord::Update {
                txn,
                table,
                old,
                row,
                chain,
                prefix,
                suffix,
                middle,
            } => {
                // The old slot's body is the base the new one was logged
                // against: the same bytes it held when the update was made,
                // since a body never changes. Then the old version ends as a
                // delete's does.
                let t = self.table(TableId(*table))?;
                let bytes = t
                    .heap
                    .read::<_, StorageError>(*old, |v| {
                        let base = v.body();
                        let (prefix, suffix) = (*prefix as usize, *suffix as usize);
                        if prefix + suffix > base.len() {
                            return Err(StorageError::Corruption {
                                detail: format!(
                                    "a logged update keeps {prefix} + {suffix} bytes of the \
                                     {}-byte body at {old} of table {table}",
                                    base.len()
                                ),
                            });
                        }
                        let mut bytes = with_mvcc_header(*txn, &base[..prefix]);
                        bytes.extend_from_slice(middle);
                        bytes.extend_from_slice(&base[base.len() - suffix..]);
                        Ok(bytes)
                    })?
                    .ok_or_else(|| empty_slot("update", *old, *table))?;
                self.redo_xmax(&t, *txn, *old, "update")?;
                self.redo_place(&t, *row, *chain, &bytes)?;
            }
            LogRecord::Delete { txn, table, row } => {
                let t = self.table(TableId(*table))?;
                self.redo_xmax(&t, *txn, *row, "delete")?;
            }
            LogRecord::Label { id, tags } => self.labels().redo(*id, tags)?,
            LogRecord::Checkpoint => {}
            // The Epoch record names the primary's generation; a replica
            // tracks it on its own (discarding) log so a later promotion
            // continues the fencing order.
            LogRecord::Epoch { generation } => self.wal.set_generation(*generation),
            // A Prepare registers the transaction in doubt under its gid
            // (its effects stay invisible), so a recovered node, or a
            // replica promoted to primary, can answer outcome queries and
            // apply the coordinator's decision; a Decide settles it like a
            // Commit or an Abort would.
            LogRecord::Prepare { txn, gid } => self.txns.mark_prepared_replicated(*txn, *gid),
            LogRecord::Decide { txn, commit } => {
                self.txns.settle_prepared_replicated(*txn, *commit);
                if *commit {
                    self.txns.commit_replicated(*txn);
                } else {
                    self.txns.abort_replicated(*txn);
                }
            }
            // The audit chain is rebuilt link by link. `accept` tolerates
            // the re-delivery a checkpoint image racing the stream can
            // produce, but a *conflicting* link means the log was edited.
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
                        detail: format!("audit chain broken at redo: {}", b.reason),
                    })?;
            }
        }
        Ok(())
    }

    /// Redoes the placing of a version, as its `Insert` or `Update` names
    /// it: the slot takes `bytes`, the version's header and body, and only
    /// the index key columns are decoded.
    fn redo_place(&self, t: &Table, row: RowId, chain: bool, bytes: &[u8]) -> StorageResult<()> {
        let tuple = TupleRef::parse(bytes)?;
        let label = tuple.label_id();
        if !self.labels().contains(label) {
            return Err(undefined(label));
        }
        t.heap.place(row, chain, label, bytes)?;
        t.index_tuple(&tuple, row)?;
        self.tuples_inserted.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Redoes the end of the version at `row` by `txn`, which a logged
    /// `what` (a delete or an update) made. Conflicts were resolved when it
    /// was first made; redo only repeats the outcome, and a record that
    /// names an empty slot is corruption.
    fn redo_xmax(&self, t: &Table, txn: TxnId, row: RowId, what: &str) -> StorageResult<()> {
        t.heap.set_xmax(row, Some(txn)).map_err(|e| match e {
            StorageError::UnknownRow { .. } => empty_slot(what, row, t.id.0),
            e => e,
        })?;
        self.tuples_deleted.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Discards every table, index, label and transaction status so a
    /// replica can re-bootstrap from a fresh checkpoint image (stream
    /// reset). Sessions
    /// already holding a `Table` handle keep scanning the orphaned heap
    /// safely; new statements bind against the rebuilt state as it streams
    /// back in. The transaction id allocator is left alone, so replica-local
    /// read transactions stay unique across resets.
    pub fn reset_replica_state(&self) {
        let mut tables = self.tables.write();
        let mut by_name = self.by_name.write();
        let mut stores = self.stores.write();
        // The image re-creates the tables under the same ids, and pool
        // frames are keyed by table id: left behind, the old pages would
        // serve as the new heaps' pages.
        for id in tables.keys() {
            self.buffer.discard_table(id.0);
        }
        tables.clear();
        by_name.clear();
        stores.clear();
        self.txns.clear_for_reset();
        // The primary's checkpoint image re-delivers the authoritative
        // chain; keeping stale links would make its links look conflicting.
        self.audit.lock().clear();
        // Likewise its label dictionary, under the ids its rows carry.
        *self.labels.write() = Arc::new(LabelDictionary::new());
    }

    /// Flushes all dirty pages and the WAL. An in-memory engine's pages have
    /// nowhere better to go than their pool frames, their only copy, so
    /// there this flushes only the WAL.
    pub fn flush(&self) -> StorageResult<()> {
        if matches!(self.kind, StorageKind::OnDisk { .. }) {
            for t in self.tables.read().values() {
                t.heap.flush()?;
            }
        }
        self.wal.flush()
    }

    /// A snapshot of engine statistics.
    pub fn stats(&self) -> EngineStats {
        let mut s = EngineStats::default().with_buffer(self.buffer.stats());
        s.tuples_inserted = self.tuples_inserted.load(Ordering::Relaxed);
        s.tuples_deleted = self.tuples_deleted.load(Ordering::Relaxed);
        s.tuples_scanned = self.tuples_scanned.load(Ordering::Relaxed);
        s.pages_skipped = self.pages_skipped.load(Ordering::Relaxed);
        s.pages_decoded = self.pages_decoded.load(Ordering::Relaxed);
        s.rows_rejected_by_bounds = self.rows_rejected_by_bounds.load(Ordering::Relaxed);
        s.full_table_scans = self.full_table_scans.load(Ordering::Relaxed);
        s.index_point_lookups = self.index_point_lookups.load(Ordering::Relaxed);
        s.index_range_scans = self.index_range_scans.load(Ordering::Relaxed);
        s.index_rows_fetched = self.index_rows_fetched.load(Ordering::Relaxed);
        s.index_entries_dropped = self.index_entries_dropped.load(Ordering::Relaxed);
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
    use crate::page::PAGE_SIZE;
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

    #[test]
    fn a_logged_row_costs_its_body_and_the_record_header_alone() {
        let eng = StorageEngine::in_memory();
        let ints = |name: &str, n: usize| {
            let columns = (0..n)
                .map(|i| ColumnDef::new(&format!("c{i}"), DataType::Int))
                .collect();
            eng.create_table(TableSchema::new(name, columns)).unwrap()
        };
        let (stock, data) = (ints("stock", 5), ints("data", 3));
        let txn = eng.begin().unwrap();
        // The first write also logs the transaction's Begin, and the first
        // row of a label logs the label's definition.
        eng.insert(txn, data, vec![3, 4], vec![Datum::Int(0); 3])
            .unwrap();
        let logged = |table, label, n: i64| {
            let before = eng.wal().bytes_written();
            let values = (0..n).map(|i| Datum::Int(1_000 + i)).collect();
            let row = eng.insert(txn, table, label, values).unwrap();
            let page_bytes = eng
                .table(table)
                .unwrap()
                .heap()
                .read::<_, StorageError>(row, |t| Ok(MVCC_HEADER_LEN + t.body().len()))
                .unwrap()
                .unwrap();
            (eng.wal().bytes_written() - before, page_bytes)
        };
        // A 2-tag TPC-C stock version: frame 8 B, record header 19 B, body
        // 18 B (label id 1 B, field count 2 B, five integers of 1 000 and
        // up, 3 B each: a kind byte and an `i16`).
        let (stock_frame, stock_page) = logged(stock, vec![3, 4], 5);
        assert_eq!(stock_frame, 45, "stock insert frames at {stock_frame} B");
        assert_eq!(stock_frame as usize, 8 + 19 + stock_page - MVCC_HEADER_LEN);
        // A 1-tag row of three such integers takes 28 B of page. Its label
        // is new, so its insert also logs the label's definition once.
        let (data_frames, data_page) = logged(data, vec![9], 3);
        assert_eq!(data_page, 28);
        assert_eq!(data_frames, 8 + 19 + 28 - MVCC_HEADER_LEN as u64 + 8 + 17);
        let (data_frame, _) = logged(data, vec![9], 3);
        assert_eq!(data_frame, 8 + 19 + 28 - MVCC_HEADER_LEN as u64);
        eng.commit(txn).unwrap();
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
    fn shared_affixes_rebuild_the_new_body_and_never_overlap() {
        let cases: [(&[u8], &[u8]); 7] = [
            (b"abc", b"abc"),
            (b"abca", b"aba"),
            (b"aaaa", b"aa"),
            (b"aa", b"aaaa"),
            (b"", b"xyz"),
            (b"xyz", b""),
            (b"1234", b"1334"),
        ];
        let found: Vec<(u16, u16)> = cases
            .iter()
            .map(|(old, new)| shared_affixes(old, new))
            .collect();
        assert_eq!(
            found,
            [(3, 0), (2, 1), (2, 0), (2, 0), (0, 0), (0, 0), (1, 2)]
        );
        for ((old, new), (prefix, suffix)) in cases.iter().zip(found) {
            let (prefix, suffix) = (prefix as usize, suffix as usize);
            let rebuilt = [
                &old[..prefix],
                &new[prefix..new.len() - suffix],
                &old[old.len() - suffix..],
            ]
            .concat();
            assert_eq!(rebuilt, *new);
        }
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
    fn an_update_that_cannot_place_its_row_leaves_the_old_one_unclaimed() {
        let (eng, table) = engine_with_table();
        let t1 = eng.begin().unwrap();
        let row = eng
            .insert(t1, table, vec![], vec![Datum::Int(1), Datum::from("v1")])
            .unwrap();
        eng.commit(t1).unwrap();
        let logged = eng.wal().last_seq();

        // Half a page is the most a version may take.
        let t2 = eng.begin().unwrap();
        let huge = vec![Datum::Int(1), Datum::Text("x".repeat(PAGE_SIZE))];
        let err = eng.update(t2, table, row, vec![], huge).unwrap_err();
        assert!(matches!(err, StorageError::TupleTooLarge { .. }), "{err}");
        let xmax = eng
            .table(table)
            .unwrap()
            .heap
            .read::<_, StorageError>(row, |v| Ok(v.xmax()));
        assert_eq!(xmax.unwrap(), Some(None), "the claim was undone");
        let t3 = eng.begin().unwrap();
        eng.update(
            t3,
            table,
            row,
            vec![],
            vec![Datum::Int(1), Datum::from("v3")],
        )
        .unwrap();
        eng.commit(t3).unwrap();
        eng.commit(t2).unwrap();
        let rows = visible_rows(&eng, table);
        assert_eq!(rows, [vec![Datum::Int(1), Datum::from("v3")]]);
        // t2 logged its Begin and nothing of the update; t3 one Update.
        let records = eng
            .wal()
            .read_replication_batch(logged + 1, usize::MAX)
            .records;
        assert!(
            matches!(
                records[..],
                [
                    LogRecord::Begin { txn: a },
                    LogRecord::Begin { txn: b },
                    LogRecord::Update { txn: c, .. },
                    LogRecord::Commit { txn: d },
                    LogRecord::Commit { txn: e },
                ] if (a, b, c, d, e) == (t2, t3, t3, t3, t2)
            ),
            "{records:?}"
        );
    }

    /// Runs `write` on row 1 in a transaction whose log refuses that one
    /// append, commits the transaction after two writes the log took, then
    /// has a later transaction run `write` on row 1 again. The live visible
    /// rows must equal a replica's fed the log and those of the log
    /// reopened; returns them sorted.
    fn after_a_refused_write(
        name: &str,
        write: impl Fn(&StorageEngine, TxnId, TableId, RowId) -> StorageResult<()>,
    ) -> Vec<Vec<Datum>> {
        let dir =
            std::env::temp_dir().join(format!("ifdb-engine-refused-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let row_of = |id: i64, name: &str| vec![Datum::Int(id), Datum::from(name)];
        let (table, live) = {
            let eng = StorageEngine::open(&dir, 8, DurabilityConfig::NO_SYNC).unwrap();
            let table = eng
                .create_table(TableSchema::new(
                    "people",
                    vec![
                        ColumnDef::new("id", DataType::Int),
                        ColumnDef::new("name", DataType::Text),
                    ],
                ))
                .unwrap();
            let t0 = eng.begin().unwrap();
            let row = eng.insert(t0, table, vec![], row_of(1, "v0")).unwrap();
            eng.commit(t0).unwrap();
            let t1 = eng.begin().unwrap();
            eng.insert(t1, table, vec![], row_of(2, "before")).unwrap();
            eng.wal().refuse_writes.store(true, Ordering::Relaxed);
            assert!(write(&eng, t1, table, row).is_err());
            eng.wal().refuse_writes.store(false, Ordering::Relaxed);
            eng.insert(t1, table, vec![], row_of(3, "after")).unwrap();
            eng.commit(t1).unwrap();
            let t2 = eng.begin().unwrap();
            write(&eng, t2, table, row).unwrap();
            eng.commit(t2).unwrap();
            let live = visible_rows(&eng, table);
            let replica = StorageEngine::in_memory();
            replica
                .txns()
                .reserve_local_ids(crate::mvcc::REPLICA_LOCAL_TXN_BASE);
            let batch = eng.wal().read_replication_batch(1, usize::MAX);
            crate::replica::ReplicaApplier::new()
                .apply_batch(&replica, batch.first_seq, &batch.records)
                .unwrap();
            assert_eq!(visible_rows(&replica, table), live, "replica");
            eng.wal().sync().unwrap();
            (table, live)
        };
        let eng = StorageEngine::open(&dir, 8, DurabilityConfig::NO_SYNC).unwrap();
        assert_eq!(visible_rows(&eng, table), live, "reopened");
        std::fs::remove_dir_all(&dir).ok();
        let mut sorted = live;
        sorted.sort_by_key(|r| r[0].clone().as_int());
        sorted
    }

    #[test]
    fn an_insert_the_log_refuses_leaves_no_row() {
        let rows = after_a_refused_write("insert", |eng, txn, table, _| {
            let values = vec![Datum::Int(4), Datum::from("new")];
            eng.insert(txn, table, vec![], values).map(drop)
        });
        let ids: Vec<_> = rows.iter().map(|r| r[0].clone()).collect();
        assert_eq!(ids, (1..=4).map(Datum::Int).collect::<Vec<_>>());
    }

    #[test]
    fn an_update_the_log_refuses_leaves_the_old_row_unclaimed() {
        let writer = std::cell::Cell::new(TxnId(0));
        let rows = after_a_refused_write("update", |eng, txn, table, row| {
            writer.set(txn);
            let values = vec![Datum::Int(1), Datum::Text(format!("by {}", txn.0))];
            eng.update(txn, table, row, vec![], values).map(drop)
        });
        let last = Datum::Text(format!("by {}", writer.get().0));
        assert_eq!(rows.len(), 3, "{rows:?}");
        assert_eq!(rows[0], [Datum::Int(1), last]);
    }

    #[test]
    fn a_delete_the_log_refuses_leaves_the_row_unclaimed() {
        let rows =
            after_a_refused_write("delete", |eng, txn, table, row| eng.delete(txn, table, row));
        let ids: Vec<_> = rows.iter().map(|r| r[0].clone()).collect();
        assert_eq!(ids, [Datum::Int(2), Datum::Int(3)]);
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
            .index_lookup(table, "people_pk", &[Datum::Int(7)])
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
            eng.index_lookup(table, "people_pk", &[Datum::Int(99)])
                .unwrap()
                .len(),
            1
        );
        assert!(eng.index_lookup(table, "nope", &[]).is_err());
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
            .index_lookup(table, "people_pk", &[Datum::Int(0)])
            .unwrap();
        let prefixed = eng
            .index_prefix(table, "people_pk", &[Datum::Int(1)])
            .unwrap();
        assert_eq!(prefixed.len(), 5);
        let ranged = eng
            .index_range(
                table,
                "people_pk",
                Some(&[Datum::Int(0)][..]),
                Some(&[Datum::Int(0)][..]),
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
        let cut = eng.visit_visible(
            &snap,
            table,
            &[],
            |_| Ok(Verdict::Read),
            |_, _| Ok(true),
            |_, _, _| {
                seen += 1;
                if seen == 4 {
                    Err(StorageError::UnknownTableId(0))
                } else {
                    Ok(true)
                }
            },
        );
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
        let versions = eng.table(table).unwrap().heap().version_count().unwrap();
        assert!(versions < 5, "dead versions reclaimed, saw {versions}");
        let hits = eng.index_lookup(table, "t_pkey", &[Datum::Int(1)]).unwrap();
        let snap = eng.snapshot(eng.begin().unwrap());
        let visible: Vec<_> = hits
            .into_iter()
            .filter(|r| eng.fetch_visible(&snap, table, *r).ok().flatten().is_some())
            .collect();
        assert_eq!(visible.len(), 1, "live row reachable through the index");
    }

    /// Commits a new version of `people` row `id`, found through the index.
    fn update_through_index(eng: &StorageEngine, table: TableId, id: i64, name: &str) {
        let txn = eng.begin().unwrap();
        let snap = eng.snapshot(txn);
        let rows = eng
            .index_lookup(table, "people_pk", &[Datum::Int(id)])
            .unwrap();
        let mut current = None;
        eng.visit_rows::<StorageError>(&snap, table, rows, |row, _| {
            current = Some(row);
            Ok(false)
        })
        .unwrap();
        let values = vec![Datum::Int(id), Datum::from(name)];
        eng.update(
            txn,
            table,
            current.expect("a visible version"),
            vec![],
            values,
        )
        .unwrap();
        eng.commit(txn).unwrap();
    }

    #[test]
    fn an_index_read_racing_vacuum_skips_the_reclaimed_slot() {
        let (eng, table) = engine_with_table();
        eng.create_index(table, "people_pk", &["id"]).unwrap();
        let txn = eng.begin().unwrap();
        let old = eng
            .insert(txn, table, vec![], vec![Datum::Int(1), Datum::from("a")])
            .unwrap();
        eng.commit(txn).unwrap();
        let txn = eng.begin().unwrap();
        eng.update(
            txn,
            table,
            old,
            vec![],
            vec![Datum::Int(1), Datum::from("b")],
        )
        .unwrap();
        eng.commit(txn).unwrap();
        // The lookup hands out both versions; vacuum then reclaims the old
        // one before they are read.
        let rows = eng
            .index_lookup(table, "people_pk", &[Datum::Int(1)])
            .unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(eng.vacuum().unwrap(), 1);
        let snap = eng.snapshot(eng.begin().unwrap());
        let mut names = Vec::new();
        eng.visit_rows::<StorageError>(&snap, table, rows, |_, tuple| {
            names.push(tuple.field(1)?);
            Ok(true)
        })
        .unwrap();
        assert_eq!(names, vec![Datum::from("b")]);
        assert!(eng.fetch_visible(&snap, table, old).unwrap().is_none());
        // A slot the page never had is corruption, not a missing row.
        let never = RowId {
            page: old.page,
            slot: 900,
        };
        assert!(matches!(
            eng.fetch_visible(&snap, table, never),
            Err(StorageError::Corruption { .. })
        ));
    }

    #[test]
    fn index_reads_beside_vacuum_after_every_commit_always_find_the_row() {
        let eng = StorageEngine::with_config(
            StorageKind::InMemory,
            DurabilityConfig::NO_SYNC.with_vacuum_every(1),
        )
        .unwrap();
        let table = eng
            .create_table(TableSchema::new(
                "people",
                vec![
                    ColumnDef::new("id", DataType::Int),
                    ColumnDef::new("name", DataType::Text),
                ],
            ))
            .unwrap();
        eng.create_index(table, "people_pk", &["id"]).unwrap();
        let txn = eng.begin().unwrap();
        eng.insert(txn, table, vec![], vec![Datum::Int(1), Datum::from("v0")])
            .unwrap();
        eng.commit(txn).unwrap();
        let updates = 400;
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for i in 1..=updates {
                    update_through_index(&eng, table, 1, &format!("v{i}"));
                }
            });
            for _ in 0..2 {
                scope.spawn(|| {
                    for _ in 0..updates {
                        let txn = eng.begin().unwrap();
                        let snap = eng.snapshot(txn);
                        let rows = eng
                            .index_lookup(table, "people_pk", &[Datum::Int(1)])
                            .unwrap();
                        // Let the writer's commit, and its vacuum, land
                        // between the lookup and the reads.
                        std::thread::yield_now();
                        let mut seen = 0;
                        eng.visit_rows::<StorageError>(&snap, table, rows, |_, _| {
                            seen += 1;
                            Ok(true)
                        })
                        .unwrap();
                        assert_eq!(seen, 1, "one version of the row is visible");
                        eng.commit(txn).unwrap();
                    }
                });
            }
        });
        // The policy waits up to four periods for a drained moment.
        assert!(eng.stats().vacuums >= updates as u64 / 4);
    }

    #[test]
    fn concurrent_inserts_survive_auto_vacuum() {
        // Regression for the vacuum/insert race: an insert whose heap write
        // lands while vacuum runs must keep its index entry (vacuum removes
        // only the entries of the versions it reclaims, and a running
        // writer's version is not dead).
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
                    .index_lookup(table, "t_pkey", &[Datum::Int(id)])
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
    fn an_in_memory_engine_keeps_its_pages_only_in_the_pool() {
        let (eng, table) = engine_with_table();
        eng.create_index(table, "people_pk", &["id"]).unwrap();
        let rows = 3_000;
        let name = |i: i64| format!("{i:0>300}");
        let txn = eng.begin().unwrap();
        for i in 0..rows {
            eng.insert(
                txn,
                table,
                vec![],
                vec![Datum::Int(i), Datum::Text(name(i))],
            )
            .unwrap();
        }
        eng.commit(txn).unwrap();
        let store = Arc::clone(&eng.stores.read()[&table]);
        assert!(store.page_count() >= 100, "{} pages", store.page_count());
        // The store holds exactly the pages written to it (see
        // `store::tests`), so no write means no copy outside the pool.
        assert_eq!(store.writes(), 0);
        eng.flush().unwrap();
        assert_eq!(store.writes(), 0, "flush copies nothing into the store");
        let scanned = visible_rows(&eng, table);
        assert_eq!(scanned.len(), rows as usize);
        let snap = eng.snapshot(eng.begin().unwrap());
        for i in (0..rows).step_by(7) {
            let found = eng
                .index_lookup(table, "people_pk", &[Datum::Int(i)])
                .unwrap();
            let v = eng.fetch_visible(&snap, table, found[0]).unwrap().unwrap();
            assert_eq!(v.data, vec![Datum::Int(i), Datum::Text(name(i))]);
        }
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
    fn a_label_of_300_tags_round_trips_through_every_path() {
        // A label longer than a byte can count: its row stays readable on
        // every path, and so does the rest of its table.
        let dir = std::env::temp_dir().join(format!("ifdb-engine-300-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let tags: Vec<u64> = (1..=300).map(|t| t * 7).collect();
        let label_of = |eng: &StorageEngine, key: i64| -> Option<Vec<u64>> {
            let t = eng.table_by_name("t").unwrap();
            let txn = eng.begin().unwrap();
            let snap = eng.snapshot(txn);
            let mut by_key = None;
            for row in eng
                .index_lookup(t.id(), "t_pkey", &[Datum::Int(key)])
                .unwrap()
            {
                let v = eng.fetch_visible(&snap, t.id(), row).unwrap();
                by_key = by_key.or(v.map(|v| v.header.label));
            }
            let mut scanned = Vec::new();
            eng.scan_visible(&snap, t.id(), |_, v| {
                if v.data[0] == Datum::Int(key) {
                    scanned.push(v.header.label);
                }
                true
            })
            .unwrap();
            eng.commit(txn).unwrap();
            assert_eq!(scanned.len(), usize::from(by_key.is_some()));
            by_key
        };
        {
            let eng = StorageEngine::with_kind(StorageKind::OnDisk {
                dir: dir.clone(),
                buffer_pages: 8,
            })
            .unwrap();
            let t = eng
                .create_table(TableSchema::new(
                    "t",
                    vec![
                        ColumnDef::new("id", DataType::Int),
                        ColumnDef::new("v", DataType::Text),
                    ],
                ))
                .unwrap();
            eng.create_index(t, "t_pkey", &["id"]).unwrap();
            let txn = eng.begin().unwrap();
            eng.insert(
                txn,
                t,
                tags.clone(),
                vec![Datum::Int(1), Datum::from("wide")],
            )
            .unwrap();
            eng.insert(txn, t, vec![], vec![Datum::Int(2), Datum::from("bare")])
                .unwrap();
            eng.commit(txn).unwrap();
            assert_eq!(label_of(&eng, 1), Some(tags.clone()));
            assert_eq!(label_of(&eng, 2), Some(vec![]));
            let replica = StorageEngine::in_memory();
            replica
                .txns()
                .reserve_local_ids(crate::mvcc::REPLICA_LOCAL_TXN_BASE);
            let batch = eng.wal().read_replication_batch(1, usize::MAX);
            crate::replica::ReplicaApplier::new()
                .apply_batch(&replica, batch.first_seq, &batch.records)
                .unwrap();
            assert_eq!(label_of(&replica, 1), Some(tags.clone()));
            assert_eq!(label_of(&replica, 2), Some(vec![]));
        }
        let eng = StorageEngine::open(&dir, 8, DurabilityConfig::NO_SYNC).unwrap();
        assert_eq!(label_of(&eng, 1), Some(tags.clone()));
        assert_eq!(label_of(&eng, 2), Some(vec![]));
        eng.checkpoint().unwrap();
        drop(eng);
        let eng = StorageEngine::open(&dir, 8, DurabilityConfig::NO_SYNC).unwrap();
        assert_eq!(label_of(&eng, 1), Some(tags));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A link is kept only once the log has taken it: an append the log
    /// refuses leaves the chain's head, its length and its verification as
    /// they were, the next link chains to the last one logged, and a
    /// reopened engine holds exactly the links that were kept.
    #[test]
    fn a_refused_audit_append_leaves_the_chain_as_it_was() {
        let dir = std::env::temp_dir().join(format!("ifdb-engine-audit-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let kept = {
            let eng = StorageEngine::open(&dir, 8, DurabilityConfig::NO_SYNC).unwrap();
            for i in 0..3u8 {
                eng.append_audit(vec![i; 4]).unwrap();
            }
            let before = eng.audit_records();
            eng.wal().refuse_writes.store(true, Ordering::Relaxed);
            assert!(eng.append_audit(b"refused".to_vec()).is_err());
            eng.wal().refuse_writes.store(false, Ordering::Relaxed);
            assert_eq!(eng.audit_records(), before);
            assert_eq!(eng.audit_len(), 3);
            eng.verify_audit_chain().unwrap();
            assert_eq!(eng.append_audit(b"after".to_vec()).unwrap(), 4);
            eng.verify_audit_chain().unwrap();
            eng.wal().sync().unwrap();
            eng.audit_records()
        };
        let eng = StorageEngine::open(&dir, 8, DurabilityConfig::NO_SYNC).unwrap();
        assert_eq!(eng.audit_records(), kept);
        assert!(kept.iter().all(|r| r.bytes != b"refused"));
        eng.verify_audit_chain().unwrap();
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
        // DDL (2) + begin/10 inserts/commit (12) + one definition per
        // label (10) + in-flight begin+insert (2): everything is replayed,
        // but the in-flight effects are dropped.
        assert_eq!(eng.stats().recovery_replayed_records, 26);
        let t = eng.table_by_name("t").unwrap();
        let rows = visible_rows(&eng, t.id());
        assert_eq!(rows.len(), 10, "committed rows survive, ghost does not");
        // Labels survive, by the ids tuples carry.
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
            .index_lookup(t.id(), "t_pkey", &[Datum::Int(4)])
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
        // A delete committed *after* a recovery logs the recovered row's
        // slot, and a second recovery must apply it to the same row. The
        // in-flight insert redoes into its own slot, so the committed rows
        // come back at their logged ids and no checkpoint re-anchors them.
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
            // A checkpoint beside a running writer carries its insert, and
            // the commit that follows lands in the new tail.
            let busy = eng.begin().unwrap();
            eng.insert(busy, table, vec![], vec![Datum::Int(777), Datum::Int(9)])
                .unwrap();
            eng.checkpoint().unwrap();
            assert_eq!(eng.stats().checkpoints, 2);
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
    fn a_checkpoint_runs_beside_readers_writers_and_in_doubt_gids() {
        let dir =
            std::env::temp_dir().join(format!("ifdb-engine-ckpt-beside-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let ids = |eng: &StorageEngine| {
            let mut ids: Vec<i64> = visible_rows(eng, eng.table_by_name("t").unwrap().id())
                .iter()
                .map(|r| r[0].as_int().unwrap())
                .collect();
            ids.sort();
            ids
        };
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
            let t0 = eng.begin().unwrap();
            let one = eng.insert(t0, table, vec![], vec![Datum::Int(1)]).unwrap();
            let two = eng.insert(t0, table, vec![5], vec![Datum::Int(2)]).unwrap();
            eng.commit(t0).unwrap();
            // An idle reader, a writer that inserts, deletes and updates, a
            // writer the crash will cut off, and a gid in doubt.
            let reader = eng.begin().unwrap();
            let reader_snap = eng.snapshot(reader);
            let writer = eng.begin().unwrap();
            eng.insert(writer, table, vec![5], vec![Datum::Int(10)])
                .unwrap();
            eng.delete(writer, table, one).unwrap();
            let own = eng
                .insert(writer, table, vec![], vec![Datum::Int(11)])
                .unwrap();
            eng.update(writer, table, own, vec![], vec![Datum::Int(12)])
                .unwrap();
            eng.update(writer, table, two, vec![5], vec![Datum::Int(20)])
                .unwrap();
            let cut_off = eng.begin().unwrap();
            eng.insert(cut_off, table, vec![], vec![Datum::Int(40)])
                .unwrap();
            let prepared = eng.begin().unwrap();
            eng.insert(prepared, table, vec![6], vec![Datum::Int(30)])
                .unwrap();
            eng.prepare_commit(prepared, 9).unwrap();
            for n in 1..=2 {
                eng.checkpoint().unwrap();
                assert_eq!(eng.stats().checkpoints, n);
            }
            assert_eq!(eng.stats().txns_active, 4, "nobody was waited for");
            let mut seen = 0;
            eng.scan_visible(&reader_snap, table, |_, _| {
                seen += 1;
                true
            })
            .unwrap();
            assert_eq!(seen, 2, "the reader's view is untouched");
            eng.commit(reader).unwrap();
            eng.commit(writer).unwrap();
            assert_eq!(ids(&eng), [10, 12, 20]);
            // Crash with `cut_off` running and gid 9 in doubt.
        }
        let eng = StorageEngine::open(&dir, 8, DurabilityConfig::SYNC_EACH).unwrap();
        assert_eq!(ids(&eng), [10, 12, 20], "the writer's commit, no more");
        assert_eq!(eng.in_doubt(), [9]);
        assert!(eng.decide(9, true).unwrap());
        assert_eq!(ids(&eng), [10, 12, 20, 30]);
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
        // 4 writers keep transactions continuously overlapping, so every
        // policy checkpoint finds others mid-transaction and carries them.
        let stop = Arc::new(AtomicBool::new(false));
        let acked: Vec<i64> = std::thread::scope(|scope| {
            let writers: Vec<_> = (0..4i64)
                .map(|w| {
                    let eng = eng.clone();
                    let stop = stop.clone();
                    scope.spawn(move || {
                        let mut i = 0i64;
                        while !stop.load(Ordering::Relaxed) {
                            let txn = eng.begin().unwrap();
                            eng.insert(txn, table, vec![], vec![Datum::Int(w * 1_000_000 + i)])
                                .unwrap();
                            eng.commit(txn).unwrap();
                            i += 1;
                        }
                        i
                    })
                })
                .collect();
            std::thread::sleep(std::time::Duration::from_millis(600));
            stop.store(true, Ordering::Relaxed);
            writers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        let stats = eng.stats();
        assert!(
            stats.checkpoints >= 1,
            "sustained load must not starve checkpointing: {stats:?}"
        );
        assert!(stats.txns_started > 100, "writers made progress: {stats:?}");
        // Every acknowledged row is in the log the checkpoints left.
        drop(eng);
        let eng = StorageEngine::open(&dir, 64, DurabilityConfig::NO_SYNC).unwrap();
        let mut found: Vec<i64> = visible_rows(&eng, table)
            .iter()
            .map(|r| r[0].as_int().unwrap())
            .collect();
        found.sort();
        let expected: Vec<i64> = (0..4i64)
            .flat_map(|w| (0..acked[w as usize]).map(move |i| w * 1_000_000 + i))
            .collect();
        assert_eq!(found, expected);
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
