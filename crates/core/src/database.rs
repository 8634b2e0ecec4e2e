//! The [`Database`] handle: storage, authority state, catalog and sessions.

use std::path::PathBuf;
use std::sync::Arc;

use ifdb_difc::audit::{AuditEvent, AuditLog};
use ifdb_difc::authority::AuthorityState;
use ifdb_difc::principal::PrincipalKind;
use ifdb_difc::{Label, PrincipalId, TagId};
use ifdb_storage::{DurabilityConfig, StorageEngine, StorageKind, TableSchema};
use parking_lot::RwLock;

use crate::catalog::{
    Catalog, IndexSpec, StoredProcedure, TableDef, TableInfo, TriggerDef, ViewDef, ViewSource,
};
use crate::error::{IfdbError, IfdbResult};
use crate::qos::ExecutionConstraints;
use crate::session::Session;

/// Configuration for creating a [`Database`].
#[derive(Debug, Clone)]
pub struct DatabaseConfig {
    /// Where tables keep their pages.
    pub storage: StorageKind,
    /// Whether DIFC enforcement is enabled. With `false` the engine behaves
    /// like the unmodified PostgreSQL baseline of the paper's evaluation:
    /// labels are neither stored nor checked.
    pub difc_enabled: bool,
    /// Whether sessions default to the (stricter) serializable clearance
    /// rule of Section 5.1. The prototype in the paper runs snapshot
    /// isolation, which does not need the rule, so the default is `false`.
    pub serializable: bool,
    /// Seed for the authority state's id generator (deterministic tests).
    pub authority_seed: Option<u64>,
    /// Commit durability: no-sync (default), sync-per-commit, or group
    /// commit, plus the optional periodic-checkpoint policy. Only meaningful
    /// for on-disk storage.
    pub durability: DurabilityConfig,
    /// Default per-statement execution budgets applied to every new session
    /// (sessions may be tightened further via
    /// [`Session::set_execution_constraints`]). Unlimited by default.
    ///
    /// [`Session::set_execution_constraints`]: crate::session::Session::set_execution_constraints
    pub constraints: ExecutionConstraints,
    /// Whether security-relevant audit events (declassify, delegate/revoke,
    /// label raises, commit-label refusals, budget kills) are additionally
    /// appended to the storage engine's tamper-evident, WAL-carried audit
    /// chain. The in-memory [`AuditLog`] records regardless. On by default;
    /// turned off only to measure the append overhead.
    pub audit_chain: bool,
}

impl Default for DatabaseConfig {
    fn default() -> Self {
        DatabaseConfig {
            storage: StorageKind::InMemory,
            difc_enabled: true,
            serializable: false,
            authority_seed: None,
            durability: DurabilityConfig::default(),
            constraints: ExecutionConstraints::default(),
            audit_chain: true,
        }
    }
}

impl DatabaseConfig {
    /// An in-memory IFDB instance.
    pub fn in_memory() -> Self {
        Self::default()
    }

    /// An in-memory instance with DIFC disabled (the "PostgreSQL" baseline).
    pub fn baseline() -> Self {
        DatabaseConfig {
            difc_enabled: false,
            ..Self::default()
        }
    }

    /// An on-disk instance with the given heap directory and buffer pool
    /// size (in pages).
    pub fn on_disk(dir: PathBuf, buffer_pages: usize) -> Self {
        DatabaseConfig {
            storage: StorageKind::OnDisk { dir, buffer_pages },
            ..Self::default()
        }
    }

    /// Fixes the authority-state PRNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.authority_seed = Some(seed);
        self
    }

    /// Enables or disables DIFC enforcement.
    pub fn with_difc(mut self, enabled: bool) -> Self {
        self.difc_enabled = enabled;
        self
    }

    /// Sets the commit-durability configuration (see [`DurabilityConfig`]).
    pub fn with_durability(mut self, durability: DurabilityConfig) -> Self {
        self.durability = durability;
        self
    }

    /// Sets the default per-statement execution budgets.
    pub fn with_constraints(mut self, constraints: ExecutionConstraints) -> Self {
        self.constraints = constraints;
        self
    }

    /// Enables or disables the durable (WAL-carried) audit chain.
    pub fn with_audit_chain(mut self, enabled: bool) -> Self {
        self.audit_chain = enabled;
        self
    }
}

pub(crate) struct DbInner {
    pub(crate) engine: StorageEngine,
    pub(crate) auth: RwLock<AuthorityState>,
    pub(crate) catalog: RwLock<Catalog>,
    pub(crate) audit: AuditLog,
    pub(crate) difc_enabled: bool,
    pub(crate) serializable: bool,
    /// Default execution budgets copied into every new session.
    pub(crate) constraints: ExecutionConstraints,
    /// Whether chain-worthy audit events are appended to the WAL-carried
    /// audit chain (the in-memory log always records).
    pub(crate) audit_chain: bool,
    /// `true` when this handle serves a log-shipping replica: sessions are
    /// read-only (writes fail with [`IfdbError::ReadOnlyReplica`]) and data
    /// arrives exclusively through the replication apply loop.
    pub(crate) read_only: std::sync::atomic::AtomicBool,
}

/// A handle to an IFDB database. Cloning the handle is cheap; all clones
/// refer to the same database.
#[derive(Clone)]
pub struct Database {
    pub(crate) inner: Arc<DbInner>,
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("difc_enabled", &self.inner.difc_enabled)
            .field("tables", &self.inner.catalog.read().table_names().len())
            .finish()
    }
}

/// Builder for [`Database`] handles: the single construction path behind
/// which the historical constructors ([`Database::new`], [`Database::open`],
/// [`Database::open_with_tables`], [`Database::replica_over`]) are thin
/// wrappers. One fluent chain covers storage kind, durability, DIFC and
/// serializable modes, the authority seed, QoS budgets, the audit chain,
/// recovery (`recover`), first-boot DDL, and replica mode:
///
/// ```
/// use ifdb::prelude::*;
/// use ifdb_storage::DataType;
///
/// let db = Database::builder()
///     .seed(0x1FDB)
///     .first_boot_ddl([TableDef::new("t")
///         .column("id", DataType::Int)
///         .primary_key(&["id"])])
///     .build()
///     .unwrap();
/// assert!(db.difc_enabled());
/// ```
#[derive(Debug, Default)]
pub struct DatabaseBuilder {
    config: DatabaseConfig,
    recover: bool,
    tables: Vec<TableDef>,
    replica_engine: Option<StorageEngine>,
}

impl DatabaseBuilder {
    /// Replaces the whole configuration at once (the historical
    /// [`DatabaseConfig`]-taking constructors funnel through this).
    pub fn config(mut self, config: DatabaseConfig) -> Self {
        self.config = config;
        self
    }

    /// In-memory storage (the default).
    pub fn in_memory(mut self) -> Self {
        self.config.storage = StorageKind::InMemory;
        self
    }

    /// On-disk storage with the given heap directory and buffer pool size
    /// (in pages).
    pub fn on_disk(mut self, dir: PathBuf, buffer_pages: usize) -> Self {
        self.config.storage = StorageKind::OnDisk { dir, buffer_pages };
        self
    }

    /// Fixes the authority-state PRNG seed (deterministic principal and tag
    /// ids — required for recovery and replication to line labels up).
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.authority_seed = Some(seed);
        self
    }

    /// Enables or disables DIFC enforcement (`false` is the paper's
    /// "unmodified PostgreSQL" baseline).
    pub fn difc(mut self, enabled: bool) -> Self {
        self.config.difc_enabled = enabled;
        self
    }

    /// Enables the serializable-mode transaction clearance rule.
    pub fn serializable(mut self, on: bool) -> Self {
        self.config.serializable = on;
        self
    }

    /// Sets the commit-durability configuration.
    pub fn durability(mut self, durability: DurabilityConfig) -> Self {
        self.config.durability = durability;
        self
    }

    /// Sets the default per-statement execution budgets for sessions.
    pub fn constraints(mut self, constraints: ExecutionConstraints) -> Self {
        self.config.constraints = constraints;
        self
    }

    /// Enables or disables the durable (WAL-carried) audit chain.
    pub fn audit_chain(mut self, enabled: bool) -> Self {
        self.config.audit_chain = enabled;
        self
    }

    /// Recovers an existing on-disk database (replays the write-ahead log)
    /// instead of starting from a fresh log. Requires on-disk storage.
    pub fn recover(mut self) -> Self {
        self.recover = true;
        self
    }

    /// Runs the given table definitions through [`Database::create_table`]
    /// immediately after construction — on a fresh database this is the
    /// first-boot DDL; combined with [`recover`](Self::recover) it re-attaches
    /// constraint metadata so recovered tables come back writable.
    pub fn first_boot_ddl(mut self, tables: impl IntoIterator<Item = TableDef>) -> Self {
        self.tables.extend(tables);
        self
    }

    /// Wraps `engine` as a **read-only replica** database instead of
    /// creating storage from the configuration (see
    /// [`Database::replica_over`] for the replication contract).
    pub fn replica_over(mut self, engine: StorageEngine) -> Self {
        self.replica_engine = Some(engine);
        self
    }

    /// Builds the database, validating the combination first: `recover`
    /// requires on-disk storage, and replica mode excludes both `recover`
    /// (a replica's state arrives on the stream, not from its own log) and
    /// first-boot DDL (a replica cannot create tables; re-run DDL after the
    /// stream has delivered them).
    pub fn build(self) -> IfdbResult<Database> {
        if let Some(engine) = self.replica_engine {
            if self.recover {
                return Err(IfdbError::InvalidStatement(
                    "a replica cannot recover from its own log; its state arrives on the replication stream".into(),
                ));
            }
            if !self.tables.is_empty() {
                return Err(IfdbError::InvalidStatement(
                    "a replica cannot run first-boot DDL; re-run table definitions after the stream delivers the tables".into(),
                ));
            }
            engine
                .txns()
                .reserve_local_ids(ifdb_storage::REPLICA_LOCAL_TXN_BASE);
            // The replica's own log is never read (its state is a cache of
            // the primary's log), so nothing logged locally may accumulate.
            engine.wal().set_discard(true);
            let db = Database::from_engine(engine, self.config);
            db.inner
                .read_only
                .store(true, std::sync::atomic::Ordering::SeqCst);
            return Ok(db);
        }
        let db = if self.recover {
            let StorageKind::OnDisk { dir, buffer_pages } = &self.config.storage else {
                return Err(IfdbError::InvalidStatement(
                    "recovery requires on-disk storage".into(),
                ));
            };
            let engine = StorageEngine::open(dir, *buffer_pages, self.config.durability)?;
            let db = Database::from_engine(engine, self.config.clone());
            db.resync_catalog()?;
            db
        } else {
            let engine =
                StorageEngine::with_config(self.config.storage.clone(), self.config.durability)?;
            Database::from_engine(engine, self.config)
        };
        for def in self.tables {
            db.create_table(def)?;
        }
        Ok(db)
    }
}

impl Database {
    /// Starts a [`DatabaseBuilder`] — the preferred construction path; the
    /// historical constructors are thin wrappers over it.
    pub fn builder() -> DatabaseBuilder {
        DatabaseBuilder::default()
    }

    /// Creates a database with the given configuration. An on-disk database
    /// created this way starts from a fresh log; use [`Database::open`] to
    /// recover one from a previous run.
    ///
    /// Prefer [`Database::builder`] in new code.
    ///
    /// Panics if the write-ahead log cannot be created (on-disk storage
    /// only) — a database configured for durability must never silently run
    /// without a log. Use [`Database::try_new`] to handle the error instead.
    pub fn new(config: DatabaseConfig) -> Self {
        Self::try_new(config).expect("failed to create the storage engine")
    }

    /// Fallible form of [`Database::new`]: surfaces write-ahead-log creation
    /// errors (permissions, disk) instead of panicking.
    ///
    /// Prefer [`Database::builder`] in new code.
    pub fn try_new(config: DatabaseConfig) -> IfdbResult<Self> {
        Self::builder().config(config).build()
    }

    /// Opens (recovers) an on-disk database: the storage engine replays its
    /// write-ahead log ([`StorageEngine::open`]), and the relational catalog
    /// is reconstructed from the recovered schemas and indexes — the
    /// primary-key index is recognized by its `{table}_pkey` naming
    /// convention.
    ///
    /// Two kinds of state are *code*, not logged data, and must be
    /// re-established by the application after opening, exactly as on first
    /// boot:
    ///
    /// * **Constraints and views** — re-run the first-boot DDL:
    ///   [`Database::create_table`] with the same [`TableDef`] re-attaches
    ///   uniques, foreign keys and label constraints to the recovered table
    ///   (it keeps the existing rows and indexes), and
    ///   `create_view`/`create_declassifying_view` re-register views. Until
    ///   that happens, recovered tables are **read-only**: writes fail with
    ///   [`IfdbError::ConstraintsPending`] rather than silently running
    ///   without constraint or label-constraint enforcement.
    ///   [`Database::open_with_tables`] folds the re-run into the open.
    /// * **The DIFC authority state** — principals and tags are not
    ///   persisted, but recovered tuples still carry their numeric tag ids.
    ///   Recreate principals and tags in the same order with the same
    ///   [`DatabaseConfig::with_seed`] seed and the ids line up; without a
    ///   fixed seed, relabeling is impossible and recovered labeled data is
    ///   unreachable.
    ///
    /// Fails unless `config.storage` is [`StorageKind::OnDisk`].
    pub fn open(config: DatabaseConfig) -> IfdbResult<Self> {
        let StorageKind::OnDisk { dir, buffer_pages } = &config.storage else {
            return Err(IfdbError::InvalidStatement(
                "Database::open requires on-disk storage".into(),
            ));
        };
        let engine = StorageEngine::open(dir, *buffer_pages, config.durability)?;
        let db = Self::from_engine(engine, config.clone());
        db.resync_catalog()?;
        Ok(db)
    }

    /// Rebuilds the relational catalog from the storage engine's live
    /// schema, exactly as [`Database::open`] does after recovery: every
    /// engine table gets a catalog entry, with the primary-key index
    /// recognized by the `{table}_pkey` naming convention. Tables whose
    /// catalog entry already matches (same id and schema) are left alone —
    /// including any constraint metadata a DDL re-run attached — so the call
    /// is cheap and non-destructive when nothing changed.
    ///
    /// Besides recovery, this is how a log-shipping replica keeps its
    /// catalog in step with replicated DDL: the apply loop calls it whenever
    /// a streamed batch created tables or indexes (and after a stream
    /// reset, when table ids may have changed wholesale).
    pub fn resync_catalog(&self) -> IfdbResult<()> {
        let mut names = self.inner.engine.table_names();
        names.sort();
        for name in names {
            let table = self.inner.engine.table_by_name(&name)?;
            let specs = self.inner.engine.index_specs(table.id())?;
            {
                let catalog = self.inner.catalog.read();
                if let Ok(existing) = catalog.table(&name) {
                    if existing.id == table.id()
                        && existing.schema == *table.schema()
                        && existing.indexes.len() + usize::from(existing.pk_index.is_some())
                            == specs.len()
                    {
                        continue;
                    }
                }
            }
            let col_name = |offsets: &[usize]| -> Vec<String> {
                offsets
                    .iter()
                    .map(|o| table.schema().columns[*o].name.clone())
                    .collect()
            };
            let pk_name = format!("{name}_pkey");
            let pk = specs.iter().find(|(n, _)| *n == pk_name);
            let info = TableInfo {
                id: table.id(),
                schema: table.schema().clone(),
                primary_key: pk.map(|(_, cols)| col_name(cols)).unwrap_or_default(),
                uniques: Vec::new(),
                foreign_keys: Vec::new(),
                label_constraints: Vec::new(),
                pk_index: pk.map(|(n, _)| n.clone()),
                indexes: specs
                    .iter()
                    .filter(|(n, _)| *n != pk_name)
                    .map(|(n, cols)| IndexSpec {
                        name: n.clone(),
                        columns: col_name(cols),
                    })
                    .collect(),
                constraints_pending: true,
            };
            self.inner.catalog.write().add_table(info);
        }
        // Drop catalog entries whose engine table vanished (replica reset).
        let stale: Vec<String> = {
            let catalog = self.inner.catalog.read();
            catalog
                .table_names()
                .into_iter()
                .filter(|n| self.inner.engine.table_by_name(n).is_err())
                .collect()
        };
        if !stale.is_empty() {
            let mut catalog = self.inner.catalog.write();
            for name in stale {
                catalog.remove_table(&name);
            }
        }
        Ok(())
    }

    /// Opens (recovers) an on-disk database and immediately re-runs the
    /// given first-boot table definitions ([`Database::create_table`] per
    /// def), so the catalog is never observable with missing constraint
    /// metadata: recovered tables named by a def come back with their
    /// uniques, foreign keys and label constraints attached and writable;
    /// tables *not* named by any def stay read-only until their DDL is
    /// re-run.
    pub fn open_with_tables(
        config: DatabaseConfig,
        tables: impl IntoIterator<Item = TableDef>,
    ) -> IfdbResult<Self> {
        let db = Self::open(config)?;
        for def in tables {
            db.create_table(def)?;
        }
        Ok(db)
    }

    fn from_engine(engine: StorageEngine, config: DatabaseConfig) -> Self {
        let auth = match config.authority_seed {
            Some(seed) => AuthorityState::with_seed(seed),
            None => AuthorityState::new(),
        };
        Database {
            inner: Arc::new(DbInner {
                engine,
                auth: RwLock::new(auth),
                catalog: RwLock::new(Catalog::new()),
                audit: AuditLog::new(),
                difc_enabled: config.difc_enabled,
                serializable: config.serializable,
                constraints: config.constraints,
                audit_chain: config.audit_chain,
                read_only: std::sync::atomic::AtomicBool::new(false),
            }),
        }
    }

    /// Wraps an existing storage engine as a **read-only replica** database:
    /// sessions opened from this handle refuse writes with
    /// [`IfdbError::ReadOnlyReplica`], replica-local transaction ids are
    /// moved into the reserved high range
    /// ([`ifdb_storage::REPLICA_LOCAL_TXN_BASE`]) so they can never collide
    /// with ids arriving on the replication stream, and data is expected to
    /// arrive exclusively through
    /// [`StorageEngine::apply_replicated`](ifdb_storage::engine::StorageEngine::apply_replicated).
    ///
    /// The DIFC authority state is *not* replicated (it is code, not logged
    /// data — the same contract as [`Database::open`]): pass the primary's
    /// `authority_seed` in `config` and re-create principals and tags in the
    /// same order so the numeric tag ids embedded in replicated tuples line
    /// up, or label-faithful replica reads are impossible.
    pub fn replica_over(engine: StorageEngine, config: DatabaseConfig) -> Self {
        engine
            .txns()
            .reserve_local_ids(ifdb_storage::REPLICA_LOCAL_TXN_BASE);
        // The replica's own log is never read (its state is a cache of the
        // primary's log), so nothing logged locally may accumulate.
        engine.wal().set_discard(true);
        let db = Self::from_engine(engine, config);
        db.inner
            .read_only
            .store(true, std::sync::atomic::Ordering::SeqCst);
        db
    }

    /// Returns `true` when this handle serves a read-only replica.
    pub fn is_read_only(&self) -> bool {
        self.inner
            .read_only
            .load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Promotes a replica database to primary of `generation`: the engine's
    /// log leaves discard mode, adopts the generation and re-anchors with a
    /// checkpoint image (in-doubt 2PC transactions carried along — see
    /// [`StorageEngine::promote_to_primary`](ifdb_storage::engine::StorageEngine::promote_to_primary)),
    /// and the read-only gate is lifted so sessions opened from this handle
    /// accept writes. Fails with
    /// [`StorageError::CheckpointBusy`](ifdb_storage::StorageError::CheckpointBusy)
    /// while replica-local read transactions are still active; callers
    /// retry. On a database that is already a primary the call is a plain
    /// generation bump plus checkpoint (idempotent promotion).
    pub fn promote_to_primary(&self, generation: u64) -> IfdbResult<usize> {
        let count = self.inner.engine.promote_to_primary(generation)?;
        self.inner
            .read_only
            .store(false, std::sync::atomic::Ordering::SeqCst);
        Ok(count)
    }

    /// Checkpoints the storage engine: compacts the write-ahead log into a
    /// consistent snapshot image so that a later [`Database::open`] replays
    /// O(live data) records. Requires a quiescent engine (no open
    /// transactions); see
    /// [`StorageEngine::checkpoint`](ifdb_storage::engine::StorageEngine::checkpoint).
    pub fn checkpoint(&self) -> IfdbResult<usize> {
        Ok(self.inner.engine.checkpoint()?)
    }

    /// Checkpoints as soon as the engine allows it: immediately when no
    /// transaction is active, otherwise the request is deferred — new
    /// transactions briefly quiesce and the transaction that drains the
    /// active set performs the checkpoint — so auto-checkpointing makes
    /// progress even under the sustained concurrent load of a network
    /// server, where [`Database::checkpoint`] would return
    /// [`StorageError::CheckpointBusy`](ifdb_storage::StorageError::CheckpointBusy)
    /// essentially always. Returns `true` if the checkpoint ran within this
    /// call.
    pub fn checkpoint_soon(&self) -> IfdbResult<bool> {
        Ok(self.inner.engine.checkpoint_soon()?)
    }

    /// Applies a two-phase-commit coordinator's verdict to the transaction
    /// prepared under `gid` (via [`Session::prepare_commit`], or recovered
    /// in-doubt from the log). Returns `true` if a prepared transaction was
    /// resolved; idempotent, so a retrying coordinator gets a clean ack for
    /// an already-decided gid.
    ///
    /// [`Session::prepare_commit`]: crate::session::Session::prepare_commit
    pub fn decide_prepared(&self, gid: u64, commit: bool) -> IfdbResult<bool> {
        Ok(self.inner.engine.decide(gid, commit)?)
    }

    /// Global ids of transactions prepared and awaiting a coordinator
    /// decision (in-doubt), in ascending order. After a crash these are the
    /// transactions the coordinator must resolve on reconnect.
    pub fn in_doubt(&self) -> Vec<u64> {
        self.inner.engine.in_doubt()
    }

    /// What this node knows about global transaction `gid`:
    /// `Some(committed?)` once a decision was applied here, `None` when the
    /// gid is unknown or still in-doubt here. Coordinator recovery commits
    /// an in-doubt gid iff some participant answers `Some(true)`, and
    /// otherwise presumes abort.
    pub fn prepared_outcome(&self, gid: u64) -> Option<bool> {
        self.inner.engine.outcome(gid)
    }

    /// Shorthand for an in-memory IFDB instance with a fixed seed.
    pub fn in_memory() -> Self {
        Self::new(DatabaseConfig::in_memory().with_seed(0x1FDB))
    }

    /// Returns `true` if DIFC enforcement is enabled.
    pub fn difc_enabled(&self) -> bool {
        self.inner.difc_enabled
    }

    /// The underlying storage engine (exposed for statistics and benches).
    pub fn engine(&self) -> &StorageEngine {
        &self.inner.engine
    }

    /// The audit log.
    pub fn audit(&self) -> &AuditLog {
        &self.inner.audit
    }

    /// Records a security-relevant event: always in the in-memory
    /// [`AuditLog`], and — for the chain-worthy kinds the issue of
    /// multi-tenant accountability cares about (declassify, delegate/revoke,
    /// label raises, commit-label refusals, budget kills) — also as a link
    /// of the storage engine's tamper-evident audit chain, carried in the
    /// WAL so it is ordered with the transactions around it, durable,
    /// replicated to standbys and replayable against committed history.
    ///
    /// High-frequency per-scan events (declassifying-view applications) and
    /// blocked releases stay in-memory only. On a read-only replica nothing
    /// is chained locally: the authoritative chain arrives on the
    /// replication stream.
    pub fn record_audit(&self, event: AuditEvent) {
        let chain_worthy = matches!(
            event,
            AuditEvent::Declassify { .. }
                | AuditEvent::Delegate { .. }
                | AuditEvent::Revoke { .. }
                | AuditEvent::LabelRaise { .. }
                | AuditEvent::CommitRefused { .. }
                | AuditEvent::BudgetKill { .. }
        );
        if chain_worthy && self.inner.audit_chain && !self.is_read_only() {
            // The append is ordered in the log before we acknowledge the
            // event; a failure (disk) is surfaced to the in-memory log via
            // the event still being recorded below, but cannot be returned
            // to the (infallible) audit callers — the storage engine's next
            // commit will surface the same I/O failure loudly.
            let _ = self.inner.engine.append_audit(event.encode());
        }
        self.inner.audit.record(event);
    }

    /// Decodes the engine's audit chain back into events — the replayable
    /// view of every chained event this database (or the primary it
    /// replicates) ever recorded. Links whose payload fails to decode are
    /// skipped; [`verify_audit_chain`](Self::verify_audit_chain) is the
    /// integrity check.
    pub fn replay_audit(&self) -> Vec<AuditEvent> {
        self.inner
            .engine
            .audit_records()
            .iter()
            .filter_map(|r| AuditEvent::decode(&r.bytes))
            .collect()
    }

    /// Verifies the engine's audit chain link by link (sequence continuity,
    /// predecessor-hash commitment, hash recomputation).
    pub fn verify_audit_chain(&self) -> Result<(), ifdb_storage::AuditChainBreak> {
        self.inner.engine.verify_audit_chain()
    }

    // ------------------------------------------------------------------
    // Principals and tags
    // ------------------------------------------------------------------

    /// Creates a principal.
    pub fn create_principal(&self, name: &str, kind: PrincipalKind) -> PrincipalId {
        self.inner.auth.write().create_principal(name, kind)
    }

    /// The distinguished anonymous principal.
    pub fn anonymous(&self) -> PrincipalId {
        self.inner.auth.read().anonymous()
    }

    /// Creates an ordinary tag owned by `owner`.
    pub fn create_tag(
        &self,
        owner: PrincipalId,
        name: &str,
        compounds: &[TagId],
    ) -> IfdbResult<TagId> {
        Ok(self.inner.auth.write().create_tag(owner, name, compounds)?)
    }

    /// Creates a compound tag owned by `owner`.
    pub fn create_compound_tag(
        &self,
        owner: PrincipalId,
        name: &str,
        parents: &[TagId],
    ) -> IfdbResult<TagId> {
        Ok(self
            .inner
            .auth
            .write()
            .create_compound_tag(owner, name, parents)?)
    }

    /// Returns `true` if `principal` has authority for `tag` in the current
    /// authority state.
    pub fn has_authority(&self, principal: PrincipalId, tag: TagId) -> bool {
        self.inner.auth.read().has_authority(principal, tag)
    }

    // ------------------------------------------------------------------
    // Schema (the administrator's job)
    // ------------------------------------------------------------------

    /// Creates a table from a declarative definition, along with a
    /// primary-key index when a primary key is declared.
    ///
    /// Re-running the same definition against a table recovered by
    /// [`Database::open`] is the supported way to restore constraint
    /// metadata (uniques, foreign keys, label constraints), which is code
    /// rather than logged data: when the named table already exists with an
    /// identical column list, the existing table and its rows are kept,
    /// missing indexes are created, and the constraint metadata from `def`
    /// is (re)attached. A same-named table with a *different* column list
    /// is an error.
    pub fn create_table(&self, def: TableDef) -> IfdbResult<()> {
        let schema = TableSchema::new(&def.name, def.columns.clone());
        // Validate constraint columns exist before touching storage.
        for pk in &def.primary_key {
            schema.column_index(pk)?;
        }
        for u in &def.uniques {
            for c in &u.columns {
                schema.column_index(c)?;
            }
        }
        for fk in &def.foreign_keys {
            for c in &fk.columns {
                schema.column_index(c)?;
            }
        }
        for idx in &def.indexes {
            for c in &idx.columns {
                schema.column_index(c)?;
            }
        }
        // The catalog write lock is held across the existence check, the
        // engine-side DDL and the TableInfo install, so concurrent DDL on
        // the same name cannot interleave.
        let read_only = self.is_read_only();
        let mut catalog = self.inner.catalog.write();
        let id = match catalog.table(&def.name) {
            Ok(existing) => {
                if existing.schema != schema {
                    return Err(IfdbError::InvalidStatement(format!(
                        "table {} already exists with a different schema",
                        def.name
                    )));
                }
                existing.id
            }
            Err(_) if read_only => {
                // On a replica, storage-level DDL arrives via the
                // replication stream; re-running a definition here only
                // attaches catalog metadata to a table that already
                // streamed in.
                return Err(IfdbError::ReadOnlyReplica);
            }
            Err(_) => self.inner.engine.create_table(schema.clone())?,
        };
        let present = self.inner.engine.index_names(id)?;
        let pk_index = if def.primary_key.is_empty() {
            None
        } else {
            let index_name = format!("{}_pkey", def.name);
            if !present.contains(&index_name) && !read_only {
                let cols: Vec<&str> = def.primary_key.iter().map(String::as_str).collect();
                self.inner.engine.create_index(id, &index_name, &cols)?;
            }
            Some(index_name)
        };
        for idx in &def.indexes {
            if !present.contains(&idx.name) && !read_only {
                let cols: Vec<&str> = idx.columns.iter().map(String::as_str).collect();
                self.inner.engine.create_index(id, &idx.name, &cols)?;
            }
        }
        let info = TableInfo {
            id,
            schema,
            primary_key: def.primary_key,
            uniques: def.uniques,
            foreign_keys: def.foreign_keys,
            label_constraints: def.label_constraints,
            pk_index,
            indexes: def.indexes,
            // The definition carries the constraint metadata, so a table
            // recovered by `open` becomes writable again here.
            constraints_pending: false,
        };
        catalog.add_table(info);
        Ok(())
    }

    /// Creates a secondary ordered index over `columns` of an existing
    /// table, back-filled from the current heap contents and registered with
    /// the planner, which will use it for equality, prefix and range access
    /// paths.
    pub fn create_secondary_index(
        &self,
        table: &str,
        name: &str,
        columns: &[&str],
    ) -> IfdbResult<()> {
        if self.is_read_only() {
            return Err(IfdbError::ReadOnlyReplica);
        }
        // The catalog write lock is held across the engine-side creation and
        // the TableInfo swap, so concurrent index DDL on the same table
        // cannot lose a registration; the engine rejects duplicate names.
        let mut catalog = self.inner.catalog.write();
        let info = catalog.table(table)?;
        for c in columns {
            info.schema.column_index(c)?;
        }
        self.inner.engine.create_index(info.id, name, columns)?;
        let mut updated = (*info).clone();
        updated.indexes.push(crate::catalog::IndexSpec {
            name: name.to_string(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
        });
        catalog.add_table(updated);
        Ok(())
    }

    /// Creates an ordinary (non-declassifying) view.
    pub fn create_view(&self, name: &str, source: ViewSource) -> IfdbResult<()> {
        self.inner.catalog.write().add_view(ViewDef {
            name: name.to_string(),
            source,
            declassifies: Label::empty(),
            authority: None,
        });
        Ok(())
    }

    /// Creates a *declassifying view* (`CREATE VIEW ... WITH DECLASSIFYING`):
    /// the view removes `declassifies` from the labels of the tuples it
    /// exposes. The creator must hold authority for every declassified tag;
    /// that authority is bound into the view definition (Section 4.3).
    pub fn create_declassifying_view(
        &self,
        creator: PrincipalId,
        name: &str,
        source: ViewSource,
        declassifies: Label,
    ) -> IfdbResult<()> {
        {
            let auth = self.inner.auth.read();
            for tag in declassifies.iter() {
                if !auth.has_authority(creator, tag) {
                    return Err(IfdbError::Difc(ifdb_difc::DifcError::NoAuthority {
                        principal: creator,
                        tag,
                    }));
                }
            }
        }
        self.inner.catalog.write().add_view(ViewDef {
            name: name.to_string(),
            source,
            declassifies,
            authority: Some(creator),
        });
        Ok(())
    }

    /// Registers a trigger. For a trigger that is a stored authority closure
    /// (`authority: Some(p)`), the creator must be the bound principal or
    /// hold every tag the closure principal holds; in this reproduction the
    /// check is that a delegation path exists is established separately via
    /// [`Session::delegate`], mirroring how closure principals are set up in
    /// the paper's applications.
    pub fn create_trigger(&self, trigger: TriggerDef) -> IfdbResult<()> {
        if !self.inner.catalog.read().has_table(&trigger.table) {
            return Err(IfdbError::UnknownTable(trigger.table.clone()));
        }
        self.inner.catalog.write().add_trigger(trigger);
        Ok(())
    }

    /// Registers a stored procedure (or stored authority closure).
    pub fn create_procedure(&self, proc: StoredProcedure) -> IfdbResult<()> {
        self.inner.catalog.write().add_procedure(proc);
        Ok(())
    }

    /// Number of catalog objects that carry authority (declassifying views,
    /// authority-closure triggers and procedures). Used by the trusted-base
    /// report.
    pub fn trusted_component_count(&self) -> usize {
        self.inner.catalog.read().trusted_component_count()
    }

    // ------------------------------------------------------------------
    // Sessions
    // ------------------------------------------------------------------

    /// Opens a session acting for `principal`.
    pub fn session(&self, principal: PrincipalId) -> Session {
        Session::new(self.clone(), principal)
    }

    /// Opens a session for the anonymous principal (unauthenticated
    /// requests).
    pub fn anonymous_session(&self) -> Session {
        let anon = self.anonymous();
        self.session(anon)
    }

    /// Runs vacuum: physically reclaims versions no snapshot can see.
    pub fn vacuum(&self) -> IfdbResult<usize> {
        Ok(self.inner.engine.vacuum()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifdb_storage::DataType;

    #[test]
    fn create_table_validates_constraint_columns() {
        let db = Database::in_memory();
        let bad = TableDef::new("t")
            .column("a", DataType::Int)
            .primary_key(&["nonexistent"]);
        assert!(db.create_table(bad).is_err());
        let good = TableDef::new("t")
            .column("a", DataType::Int)
            .primary_key(&["a"]);
        assert!(db.create_table(good).is_ok());
    }

    #[test]
    fn declassifying_view_requires_creator_authority() {
        let db = Database::in_memory();
        let alice = db.create_principal("alice", PrincipalKind::User);
        let mallory = db.create_principal("mallory", PrincipalKind::User);
        let tag = db.create_tag(alice, "alice_contact", &[]).unwrap();
        db.create_table(
            TableDef::new("ContactInfo")
                .column("id", DataType::Int)
                .column("name", DataType::Text)
                .primary_key(&["id"]),
        )
        .unwrap();
        let src = ViewSource::Select(crate::query::Select::star("ContactInfo"));
        assert!(db
            .create_declassifying_view(mallory, "Leak", src.clone(), Label::singleton(tag))
            .is_err());
        assert!(db
            .create_declassifying_view(alice, "PCMembers", src, Label::singleton(tag))
            .is_ok());
        assert_eq!(db.trusted_component_count(), 1);
    }

    #[test]
    fn trigger_requires_existing_table() {
        let db = Database::in_memory();
        let t = TriggerDef {
            name: "t".into(),
            table: "Missing".into(),
            events: vec![crate::catalog::TriggerEvent::Insert],
            timing: crate::catalog::TriggerTiming::Immediate,
            authority: None,
            body: Arc::new(|_, _| Ok(())),
        };
        assert!(db.create_trigger(t).is_err());
    }

    #[test]
    fn baseline_database_reports_difc_disabled() {
        let db = Database::new(DatabaseConfig::baseline());
        assert!(!db.difc_enabled());
        assert!(Database::in_memory().difc_enabled());
    }

    #[test]
    fn recovered_tables_are_read_only_until_ddl_rerun() {
        use crate::query::{Delete, Insert, Select};
        use ifdb_storage::{Datum, DurabilityConfig};

        let dir = std::env::temp_dir().join(format!("ifdb-db-readonly-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let config = DatabaseConfig::on_disk(dir.clone(), 32)
            .with_seed(0x1FDB)
            .with_durability(DurabilityConfig::SYNC_EACH);
        let notes = TableDef::new("notes")
            .column("id", DataType::Int)
            .column("body", DataType::Text)
            .primary_key(&["id"]);
        let kids = TableDef::new("kids")
            .column("id", DataType::Int)
            .column("note_id", DataType::Int)
            .primary_key(&["id"])
            .foreign_key("kids_note_fkey", &["note_id"], "notes", &["id"]);
        {
            let db = Database::new(config.clone());
            db.create_table(notes.clone()).unwrap();
            db.create_table(kids.clone()).unwrap();
            let mut s = db.anonymous_session();
            s.insert(&Insert::new("notes", vec![Datum::Int(1), Datum::from("a")]))
                .unwrap();
        }
        {
            let db = Database::open(config.clone()).unwrap();
            let mut s = db.anonymous_session();
            // Reads work, but writes are refused until the first-boot DDL
            // re-attaches the constraint metadata.
            assert_eq!(s.select(&Select::star("notes")).unwrap().len(), 1);
            let err = s
                .insert(&Insert::new("notes", vec![Datum::Int(2), Datum::from("b")]))
                .unwrap_err();
            assert!(matches!(err, IfdbError::ConstraintsPending { .. }));
            db.create_table(notes.clone()).unwrap();
            s.insert(&Insert::new("notes", vec![Datum::Int(2), Datum::from("b")]))
                .unwrap();
            // The re-attached primary key is enforced again.
            let dup = s.insert(&Insert::new(
                "notes",
                vec![Datum::Int(2), Datum::from("dup")],
            ));
            assert!(matches!(
                dup.unwrap_err(),
                IfdbError::UniqueViolation { .. }
            ));
            // Deletes stay refused while *any* table is pending: "kids"
            // could reference "notes" without its foreign key registered.
            let del = s
                .delete(&Delete::new("notes", crate::query::Predicate::True))
                .unwrap_err();
            assert!(
                matches!(del, IfdbError::ConstraintsPending { ref table } if table == "kids"),
                "unexpected error: {del}"
            );
            db.create_table(kids.clone()).unwrap();
            assert_eq!(
                s.delete(&Delete::new("notes", crate::query::Predicate::True))
                    .unwrap(),
                2
            );
        }
        // open_with_tables folds the DDL re-run into the open.
        let db = Database::open_with_tables(config, [notes, kids]).unwrap();
        let mut s = db.anonymous_session();
        assert!(s.select(&Select::star("notes")).unwrap().is_empty());
        s.insert(&Insert::new("notes", vec![Datum::Int(3), Datum::from("c")]))
            .unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_recovers_tables_catalog_and_rows() {
        use crate::query::{Insert, Select};
        use ifdb_storage::{Datum, DurabilityConfig};

        let dir = std::env::temp_dir().join(format!("ifdb-db-open-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let config = DatabaseConfig::on_disk(dir.clone(), 32)
            .with_seed(0x1FDB)
            .with_durability(DurabilityConfig::GROUP_COMMIT);
        {
            let db = Database::new(config.clone());
            let alice = db.create_principal("alice", PrincipalKind::User);
            let tag = db.create_tag(alice, "alice_data", &[]).unwrap();
            db.create_table(
                TableDef::new("notes")
                    .column("id", DataType::Int)
                    .column("body", DataType::Text)
                    .primary_key(&["id"]),
            )
            .unwrap();
            db.create_secondary_index("notes", "notes_body", &["body"])
                .unwrap();
            let mut s = db.session(alice);
            s.add_secrecy(tag).unwrap();
            for i in 0..5 {
                s.insert(&Insert::new(
                    "notes",
                    vec![Datum::Int(i), Datum::Text(format!("note{i}"))],
                ))
                .unwrap();
            }
            db.checkpoint().unwrap();
            // Dropped without shutdown: group commit already made each
            // implicit transaction durable.
        }
        let db = Database::open(config).unwrap();
        // Catalog: table, pk and secondary index all reconstructed.
        let catalog = db.inner.catalog.read();
        let info = catalog.table("notes").unwrap();
        assert_eq!(info.primary_key, vec!["id".to_string()]);
        assert_eq!(info.pk_index.as_deref(), Some("notes_pkey"));
        assert_eq!(info.indexes.len(), 1);
        assert_eq!(info.indexes[0].columns, vec!["body".to_string()]);
        drop(catalog);
        // Rows recovered with labels intact: an uncontaminated session sees
        // nothing, a session re-raised to the (re-created) tag sees all.
        let alice = db.create_principal("alice", PrincipalKind::User);
        let tag = db.create_tag(alice, "alice_data", &[]).unwrap();
        let mut public = db.anonymous_session();
        assert!(public.select(&Select::star("notes")).unwrap().is_empty());
        let mut s = db.session(alice);
        s.add_secrecy(tag).unwrap();
        assert_eq!(s.select(&Select::star("notes")).unwrap().len(), 5);
        assert!(db.engine().stats().recovery_replayed_records > 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
