//! The [`Database`] handle: storage, authority state, catalog and sessions.

use std::path::PathBuf;
use std::sync::Arc;

use ifdb_difc::audit::{AuditCounters, AuditEvent};
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
}

pub(crate) struct DbInner {
    pub(crate) engine: StorageEngine,
    pub(crate) auth: RwLock<AuthorityState>,
    pub(crate) catalog: RwLock<Catalog>,
    /// Audit events counted rather than chained (see
    /// [`Database::record_audit`]).
    pub(crate) audit_counters: AuditCounters,
    /// While set, the chain refuses every append, as a log on a full
    /// device would.
    #[cfg(test)]
    pub(crate) refuse_audit: std::sync::atomic::AtomicBool,
    pub(crate) difc_enabled: bool,
    pub(crate) serializable: bool,
    /// Default execution budgets copied into every new session.
    pub(crate) constraints: ExecutionConstraints,
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

/// Builder for [`Database`] handles: the single construction path
/// ([`Database::new`] and [`Database::try_new`] are wrappers over
/// [`config`](Self::config)). One fluent chain covers storage kind,
/// durability, DIFC and serializable modes, the authority seed, QoS budgets,
/// recovery ([`recover`](Self::recover)), first-boot DDL
/// ([`first_boot_ddl`](Self::first_boot_ddl)), and replica mode
/// ([`replica_over`](Self::replica_over)):
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

    /// Recovers an existing on-disk database instead of starting from a
    /// fresh log: the storage engine replays its write-ahead log
    /// ([`StorageEngine::open`]), and the relational catalog is rebuilt from
    /// the recovered schemas and indexes — the primary-key index is
    /// recognized by its `{table}_pkey` naming convention. Requires on-disk
    /// storage.
    ///
    /// Two kinds of state are *code*, not logged data, and must be
    /// re-established by the application on every boot:
    ///
    /// * **Constraints and views** — re-run the first-boot DDL:
    ///   [`Database::create_table`] with the same [`TableDef`] re-attaches
    ///   uniques, foreign keys and label constraints to the recovered table
    ///   (it keeps the existing rows and indexes), and
    ///   `create_view`/`create_declassifying_view` re-register views. Until
    ///   that happens, recovered tables are **read-only**: writes fail with
    ///   [`IfdbError::ConstraintsPending`] rather than silently running
    ///   without constraint or label-constraint enforcement.
    ///   [`first_boot_ddl`](Self::first_boot_ddl) folds the re-run into the
    ///   build, so the catalog is never observable with missing constraint
    ///   metadata.
    /// * **The DIFC authority state** — principals and tags are not
    ///   persisted, but recovered tuples still carry their numeric tag ids.
    ///   Recreate principals and tags in the same order with the same
    ///   [`seed`](Self::seed) and the ids line up; without a fixed seed,
    ///   relabeling is impossible and recovered labeled data is unreachable.
    pub fn recover(mut self) -> Self {
        self.recover = true;
        self
    }

    /// Runs the given table definitions through [`Database::create_table`]
    /// immediately after construction — on a fresh database this is the
    /// first-boot DDL; combined with [`recover`](Self::recover) it re-attaches
    /// constraint metadata so the recovered tables it names come back
    /// writable, while tables *not* named by any def stay read-only until
    /// their DDL is re-run.
    pub fn first_boot_ddl(mut self, tables: impl IntoIterator<Item = TableDef>) -> Self {
        self.tables.extend(tables);
        self
    }

    /// Wraps `engine` as a **read-only replica** database instead of
    /// creating storage from the configuration: sessions opened from the
    /// handle refuse writes with [`IfdbError::ReadOnlyReplica`], replica-local
    /// transaction ids are moved into the reserved high range
    /// ([`ifdb_storage::REPLICA_LOCAL_TXN_BASE`]) so they can never collide
    /// with ids arriving on the replication stream, and data is expected to
    /// arrive exclusively through
    /// [`StorageEngine::apply_replicated`](ifdb_storage::engine::StorageEngine::apply_replicated).
    ///
    /// The DIFC authority state is *not* replicated (it is code, not logged
    /// data — the same contract as [`recover`](Self::recover)): pass the
    /// primary's authority [`seed`](Self::seed) and re-create principals and
    /// tags in the same order so the numeric tag ids embedded in replicated
    /// tuples line up, or label-faithful replica reads are impossible.
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
            // Its own log stays empty until promotion: every write, DDL and
            // 2PC decision is refused here, and its readers log nothing.
            engine
                .txns()
                .reserve_local_ids(ifdb_storage::REPLICA_LOCAL_TXN_BASE);
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
    /// Starts a [`DatabaseBuilder`] — the one construction path.
    pub fn builder() -> DatabaseBuilder {
        DatabaseBuilder::default()
    }

    /// Creates a database with the given configuration. An on-disk database
    /// created this way starts from a fresh log; use
    /// [`DatabaseBuilder::recover`] to recover one from a previous run.
    ///
    /// Panics if the write-ahead log cannot be created (on-disk storage
    /// only) — a database configured for durability must never silently run
    /// without a log. Use [`Database::try_new`] to handle the error instead.
    pub fn new(config: DatabaseConfig) -> Self {
        Self::try_new(config).expect("failed to create the storage engine")
    }

    /// Fallible form of [`Database::new`]: surfaces write-ahead-log creation
    /// errors (permissions, disk) instead of panicking.
    pub fn try_new(config: DatabaseConfig) -> IfdbResult<Self> {
        Self::builder().config(config).build()
    }

    /// Rebuilds the relational catalog from the storage engine's live
    /// schema, exactly as [`DatabaseBuilder::recover`] does: every
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
                        && existing.index_specs().count() == specs.len()
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
            let pk_name = TableInfo::pkey_index(&name);
            let def = TableDef {
                name: name.clone(),
                columns: table.schema().columns.clone(),
                primary_key: specs
                    .iter()
                    .find(|(n, _)| *n == pk_name)
                    .map(|(_, cols)| col_name(cols))
                    .unwrap_or_default(),
                indexes: specs
                    .iter()
                    .filter(|(n, _)| *n != pk_name)
                    .map(|(n, cols)| IndexSpec {
                        name: n.clone(),
                        columns: col_name(cols),
                    })
                    .collect(),
                ..TableDef::default()
            };
            let info = TableInfo::new(table.id(), def, true)?;
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
                audit_counters: AuditCounters::default(),
                #[cfg(test)]
                refuse_audit: Default::default(),
                difc_enabled: config.difc_enabled,
                serializable: config.serializable,
                constraints: config.constraints,
                read_only: std::sync::atomic::AtomicBool::new(false),
            }),
        }
    }

    /// Returns `true` when this handle serves a read-only replica.
    pub fn is_read_only(&self) -> bool {
        self.inner
            .read_only
            .load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Promotes a replica database to primary of `generation`: streamed
    /// transactions that will never finish abort, the engine's log adopts
    /// the generation and starts with a checkpoint image of the full state
    /// (in-doubt 2PC transactions carried along — see
    /// [`StorageEngine::promote_to_primary`](ifdb_storage::engine::StorageEngine::promote_to_primary)),
    /// and the read-only gate is lifted so sessions opened from this handle
    /// accept writes. Open replica-local reads do not hold it up; a
    /// transaction begun before the promotion may still read and commit,
    /// but not write. Meant for a replica: on a primary it would abort the
    /// running writers.
    pub fn promote_to_primary(&self, generation: u64) -> IfdbResult<usize> {
        let count = self.inner.engine.promote_to_primary(generation)?;
        self.inner
            .read_only
            .store(false, std::sync::atomic::Ordering::SeqCst);
        Ok(count)
    }

    /// Checkpoints the storage engine: compacts the write-ahead log into a
    /// consistent snapshot image so that a later recovery
    /// ([`DatabaseBuilder::recover`]) replays O(live data) records. Runs
    /// beside open transactions, neither waiting for them nor refusing: the
    /// image carries every running writer's effects, and its later records
    /// follow in the log; see
    /// [`StorageEngine::checkpoint`](ifdb_storage::engine::StorageEngine::checkpoint).
    /// A read-only replica refuses with [`IfdbError::ReadOnlyReplica`]: its
    /// own log stays empty until promotion, which is its first checkpoint.
    pub fn checkpoint(&self) -> IfdbResult<usize> {
        if self.is_read_only() {
            return Err(IfdbError::ReadOnlyReplica);
        }
        Ok(self.inner.engine.checkpoint()?)
    }

    /// Applies a two-phase-commit coordinator's verdict to the transaction
    /// prepared under `gid` (via [`Session::prepare_commit`], or recovered
    /// in-doubt from the log). Returns `true` if a prepared transaction was
    /// resolved; idempotent, so a retrying coordinator gets a clean ack for
    /// an already-decided gid.
    ///
    /// A read-only replica refuses with [`IfdbError::ReadOnlyReplica`]: the
    /// gids it holds in doubt are its primary's, settled by the `Decide` its
    /// stream delivers, until a promotion makes them its own.
    ///
    /// [`Session::prepare_commit`]: crate::session::Session::prepare_commit
    pub fn decide_prepared(&self, gid: u64, commit: bool) -> IfdbResult<bool> {
        if self.is_read_only() {
            return Err(IfdbError::ReadOnlyReplica);
        }
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

    /// The audit events counted rather than chained: each use of a
    /// declassifying view or a `DECLASSIFYING` foreign key, each blocked
    /// release, and every event of a read-only replica's sessions.
    pub fn audit_counters(&self) -> &AuditCounters {
        &self.inner.audit_counters
    }

    /// Records a security-relevant event as the next link of the storage
    /// engine's tamper-evident audit chain, carried in the WAL so it is
    /// ordered with the transactions around it, durable, replicated to
    /// standbys and replayable against committed history.
    ///
    /// This is part of enforcement: callers append after their check and
    /// before its effect is published, and an `Err` (the log refused the
    /// link) refuses the operation, so nothing happens that the chain does
    /// not hold. On a read-only replica nothing is chained locally (the
    /// authoritative chain arrives on the replication stream): the event is
    /// counted in [`Self::audit_counters`] instead.
    pub fn record_audit(&self, event: AuditEvent) -> IfdbResult<()> {
        if self.is_read_only() {
            self.inner.audit_counters.count(event.kind());
            return Ok(());
        }
        #[cfg(test)]
        self.refused_in_test()?;
        self.inner.engine.append_audit(event.encode())?;
        Ok(())
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

    /// Creates a table from a declarative definition, along with an index
    /// for its primary key (`<table>_pkey`), one for each UNIQUE constraint
    /// (named after the constraint) and its secondary indexes.
    ///
    /// Re-running the same definition against a table recovered by
    /// [`DatabaseBuilder::recover`] is the supported way to restore
    /// constraint metadata (uniques, foreign keys, label constraints), which
    /// is code rather than logged data: when the named table already exists
    /// with an identical column list, the existing table and its rows are
    /// kept, missing indexes are created, and the constraint metadata from
    /// `def` is (re)attached. A same-named table with a *different* column
    /// list is an error.
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
        let pkey = (!def.primary_key.is_empty()).then(|| TableInfo::pkey_index(&def.name));
        let mut names: Vec<&String> = pkey.iter().collect();
        names.extend(def.uniques.iter().map(|u| &u.name));
        names.extend(def.indexes.iter().map(|i| &i.name));
        names.sort();
        if let Some(pair) = names.windows(2).find(|pair| pair[0] == pair[1]) {
            return Err(IfdbError::InvalidStatement(format!(
                "table {} names two indexes {}",
                def.name, pair[0]
            )));
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
        // The definition carries the constraint metadata, so a table
        // recovered by `open` becomes writable again here.
        let info = TableInfo::new(id, def, false)?;
        // Every key owns an index named after it, created here if the
        // table does not have it yet (first boot, or a table recovered from
        // a log written before its key had one); on a replica the index
        // streams in with the primary's DDL.
        let present = self.inner.engine.index_names(id)?;
        let keys = info.keys().map(|k| (&k.index, &k.columns));
        let secondary = info.indexes.iter().map(|i| (&i.name, &i.columns));
        for (name, columns) in keys.chain(secondary) {
            if !present.contains(name) && !read_only {
                let cols: Vec<&str> = columns.iter().map(String::as_str).collect();
                self.inner.engine.create_index(id, name, &cols)?;
            }
        }
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
    fn a_replica_refuses_to_decide_a_streamed_gid_until_promoted() {
        use crate::query::{Insert, Select};
        use ifdb_storage::replica::ReplicaApplier;
        use ifdb_storage::Datum;

        let notes = TableDef::new("notes")
            .column("id", DataType::Int)
            .primary_key(&["id"]);
        let primary = Database::in_memory();
        primary.create_table(notes).unwrap();
        let mut s = primary.anonymous_session();
        s.begin().unwrap();
        s.insert(&Insert::new("notes", vec![Datum::Int(1)]))
            .unwrap();
        s.prepare_commit(9).unwrap();
        let replica = Database::builder()
            .config(DatabaseConfig::in_memory())
            .replica_over(StorageEngine::in_memory())
            .build()
            .unwrap();
        let batch = primary.engine().wal().read_replication_batch(1, usize::MAX);
        ReplicaApplier::new()
            .apply_batch(replica.engine(), batch.first_seq, &batch.records)
            .unwrap();
        replica.resync_catalog().unwrap();
        assert_eq!(replica.in_doubt(), [9]);
        // The gid is the primary's: the replica neither settles it nor
        // logs anything of its own — no prepare, no checkpoint either.
        assert!(matches!(
            replica.decide_prepared(9, true),
            Err(IfdbError::ReadOnlyReplica)
        ));
        let mut local = replica.anonymous_session();
        local.begin().unwrap();
        assert!(matches!(
            local.prepare_commit(10),
            Err(IfdbError::ReadOnlyReplica)
        ));
        local.abort().unwrap();
        assert!(matches!(
            replica.checkpoint(),
            Err(IfdbError::ReadOnlyReplica)
        ));
        assert_eq!(replica.in_doubt(), [9]);
        assert_eq!(replica.engine().wal().len(), 0);
        let rows = |db: &Database| {
            db.anonymous_session()
                .select(&Select::star("notes"))
                .unwrap()
                .len()
        };
        assert_eq!(rows(&replica), 0);
        // Promoted, the node owns the gid and decides it.
        replica.promote_to_primary(2).unwrap();
        assert!(replica.decide_prepared(9, true).unwrap());
        assert_eq!(rows(&replica), 1);
        assert_eq!(primary.in_doubt(), [9], "the primary was never told");
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
            let db = Database::builder()
                .config(config.clone())
                .recover()
                .build()
                .unwrap();
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
        // First-boot DDL folds the re-run into the recovery.
        let db = Database::builder()
            .config(config)
            .recover()
            .first_boot_ddl([notes, kids])
            .build()
            .unwrap();
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
        let db = Database::builder()
            .config(config)
            .recover()
            .build()
            .unwrap();
        // Catalog: table, pk and secondary index all reconstructed.
        let catalog = db.inner.catalog.read();
        let info = catalog.table("notes").unwrap();
        let pk = info.primary_key.as_ref().unwrap();
        assert_eq!(pk.columns, vec!["id".to_string()]);
        assert_eq!(pk.index, "notes_pkey");
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

    impl Database {
        /// Fails as a log on a full device would while the test has set
        /// `refuse_audit`.
        pub(crate) fn refused_in_test(&self) -> IfdbResult<()> {
            use ifdb_storage::StorageError;
            use std::sync::atomic::Ordering;
            if self.inner.refuse_audit.load(Ordering::Relaxed) {
                let detail = "the log refuses appends".into();
                return Err(IfdbError::Storage(StorageError::Io { detail }));
            }
            Ok(())
        }
    }

    /// The audit chain records label operations, not transactions: commits
    /// that change no label append nothing to it, however many there are,
    /// so the chain costs a workload nothing per commit. Each label
    /// operation appends exactly one link.
    #[test]
    fn plain_commits_append_no_audit_records() {
        use crate::query::{Delete, Insert, Predicate, Select, Update};
        use ifdb_storage::Datum;

        let db = Database::builder().seed(0xA0D1).build().unwrap();
        let alice = db.create_principal("alice", PrincipalKind::User);
        let tag = db.create_tag(alice, "alice_data", &[]).unwrap();
        db.create_table(
            TableDef::new("notes")
                .column("id", DataType::Int)
                .column("body", DataType::Text)
                .primary_key(&["id"]),
        )
        .unwrap();
        let mut s = db.session(alice);
        s.add_secrecy(tag).unwrap();
        let chained = db.replay_audit().len();
        assert_eq!(chained, 1, "the raise is chained");
        let wal_before = db.engine().wal().last_seq();

        for i in 0..200 {
            let body = Datum::Text(format!("note {i}"));
            s.insert(&Insert::new("notes", vec![Datum::Int(i), body]))
                .unwrap();
        }
        s.begin().unwrap();
        let id_lt_50 = Predicate::Lt("id".into(), Datum::Int(50));
        let set = vec![("body", Datum::from("edited"))];
        s.update(&Update::new("notes", id_lt_50, set)).unwrap();
        let id_ge_150 = Predicate::Ge("id".into(), Datum::Int(150));
        s.delete(&Delete::new("notes", id_ge_150)).unwrap();
        s.commit().unwrap();
        assert_eq!(s.select(&Select::star("notes")).unwrap().len(), 150);

        assert!(db.engine().wal().last_seq() > wal_before, "commits logged");
        assert_eq!(db.replay_audit().len(), chained, "commits chain nothing");

        s.declassify(tag).unwrap();
        assert_eq!(db.replay_audit().len(), chained + 1);
        db.verify_audit_chain().unwrap();
    }
}
